// Command bench is the repository's one benchmark: four workloads that
// load the layers differently, end-to-end metrics measured with tracing
// off, and per-layer metrics from a separate traced run. BENCHMARK.json at
// the repository root names the workloads, metrics, units and bounds;
// README.md in this directory says why each was chosen.
//
//	bash bench/run.sh                              all workloads, one child process each
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	bash bench/run.sh -compare A.json B.json       parent-vs-change verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// sizes are the cell sizes of the four workloads. Only the tests shrink
// them; a benchmark run always uses fullSizes.
type sizes struct {
	paperPrograms   []string // paper_sweep's programs; nil is all of workloads.All()
	shortPrograms   []string // session_churn's programs (2-7 ms of guest execution each)
	churnRounds     int      // session_churn rounds per pass
	overloadClients int
	tieredClients   int
	tieredRequests  int // per client
	calibEvents     int // the calibration's work per sample (calib.go)
	calibInstrs     int
}

var fullSizes = sizes{
	shortPrograms: []string{"175.vpr", "177.mesa", "183.equake", "300.twolf",
		"456.hmmer", "462.libquantum", "464.h264ref"},
	churnRounds:     10,
	overloadClients: 100000,
	tieredClients:   1536,
	tieredRequests:  300,
	calibEvents:     250_000,
	calibInstrs:     16_000_000,
}

func main() {
	o := &options{sizes: fullSizes}
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every fleet config, fault plan and session order")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure each run for this long (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.passes, "passes", 0, "measure exactly this many passes instead of -seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for results.json and trace-<workload>.json")
	runs := flag.Int("runs", 1, "with no -workload: untraced runs per workload, on seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	// run.sh starts the program at the repository root.
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	o.trace = *trace != 0

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case o.workload == "":
		if err := runAll(spec, o, *runs); err != nil {
			fatal(err)
		}
	default:
		res, err := runWorkload(spec, o)
		if err != nil {
			fatal(err)
		}
		printRun(spec, res)
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "bench: failed op:", f)
		}
		detail, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s%s\n", detailPrefix, detail)
		// The last line is the contract's result object.
		last, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(last))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
