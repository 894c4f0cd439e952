// Command offloadc runs the Native Offloader compiler over one workload and
// prints the compile report: profiling results, candidate estimation
// (Table 3 style), selected targets, partition statistics, and optionally
// the partitioned IR.
//
// Usage:
//
//	offloadc -w 458.sjeng [-dump mobile|server] [-bw 650000000]
//	offloadc -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/report"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "offloadc: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("offloadc", flag.ExitOnError)
	name := fs.String("w", "chess", "workload name (chess or a Table 4 program id)")
	irFile := fs.String("ir", "", "compile a textual IR program file instead of a named workload")
	stdin := fs.String("stdin", "", "comma-separated integers fed to the program's scanf calls")
	cost := fs.Int64("cost", 1, "cost amplification for -ir programs")
	dump := fs.String("dump", "", "dump partitioned IR: mobile or server")
	list := fs.Bool("list", false, "list available workloads")
	image := fs.Bool("image", false, "print shared program image statistics for the compiled binary pair")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "chess  \tthe paper's running example (Figure 3)")
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "%s\t%s\n", w.Name, w.Desc)
		}
		return nil
	}

	fw := core.NewFramework(core.FastNetwork)
	var mod = workloads.BuildChess(workloads.DefaultChessConfig())
	profIO := workloads.ChessInput(8, 3)
	fw.CostScale = workloads.ChessCostScale
	if *irFile != "" {
		var err error
		if mod, err = cli.LoadIR(*irFile); err != nil {
			return err
		}
		if profIO, err = cli.StdinIO(*stdin); err != nil {
			return fmt.Errorf("-stdin: %w", err)
		}
		fw.CostScale = *cost
	} else if *name != "chess" {
		w := workloads.ByName(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q (try -list)", *name)
		}
		fw = fw.WithScale(workloads.Scale, w.CostScale)
		mod = w.Build()
		profIO = w.ProfileIO()
	}

	// Not fw.Prepare: the profile report is printed between the two steps.
	prof, err := fw.Profile(mod, profIO)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	fmt.Fprintln(stdout, prof)

	cres, err := fw.Compile(mod, prof)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}

	fmt.Fprintln(stdout, experiments.CandidateTable("candidate estimation (Equation 1)", cres.Candidates, false))
	fmt.Fprintln(stdout, cres.Summary())

	if *image {
		if err := printImageStats(stdout, fw, cres); err != nil {
			return fmt.Errorf("-image: %w", err)
		}
	}

	switch *dump {
	case "mobile":
		fmt.Fprintln(stdout, cres.Mobile)
	case "server":
		fmt.Fprintln(stdout, cres.Server)
	case "":
	default:
		return fmt.Errorf("-dump must be mobile or server")
	}
	return nil
}

// printImageStats compiles both halves of the binary pair into shared
// program artifacts and reports the image footprint a server fleet would
// hold: logical size, content-deduplicated backing size, and what one
// copy-on-write session bind costs (nothing until it writes).
func printImageStats(stdout io.Writer, fw *core.Framework, cres *compiler.Result) error {
	mobileProg, serverProg, err := fw.Programs(cres)
	if err != nil {
		return err
	}
	t := report.New("shared program images (compile-once / instantiate-many)",
		"Binary", "Pages", "Image(KiB)", "Unique(KiB)", "Bind(B)")
	for _, p := range []*interp.Program{mobileProg, serverProg} {
		img := p.Image()
		inst := p.NewInstance()
		t.Add(p.Name(), img.NumPages(),
			float64(img.Bytes())/1024, float64(img.UniqueBytes())/1024,
			inst.Mem.ResidentPrivateBytes())
	}
	fmt.Fprintln(stdout, t)
	if fw.Cache != nil {
		fmt.Fprintln(stdout, cli.CacheStatsLine(fw.Cache))
	}
	return nil
}
