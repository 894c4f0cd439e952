// Bigendian: offloading across byte orders.
//
// The paper's evaluation pair (ARM + x86) is all little-endian, so its
// endianness translation never fires. This example retargets the server to
// a big-endian 32-bit machine: the compiler lowers the server binary
// against the mobile (little-endian) standard, inserting byte-order
// translation on every memory access, and the offloaded run still produces
// bit-identical output.
//
//	go run ./examples/bigendian
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/offrt"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bigendian:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	w := workloads.ByName("429.mcf")
	fw := core.NewFramework(core.FastNetwork).WithScale(workloads.Scale, w.CostScale)
	fw.Server = arch.POWER32BE() // big-endian server

	mod := w.Build()
	prof, err := fw.Profile(mod, w.ProfileIO())
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	local, err := fw.RunLocal(mod, w.EvalIO())
	if err != nil {
		return fmt.Errorf("local: %w", err)
	}
	off, err := fw.RunOffloaded(cres, w.EvalIO(), offrt.Policy{ForceOffload: true})
	if err != nil {
		return fmt.Errorf("offload: %w", err)
	}

	if local.Output != off.Output {
		return errors.New("OUTPUT MISMATCH — endianness translation failed")
	}
	fmt.Fprintf(stdout, "server architecture: %s\n", fw.Server)
	fmt.Fprintln(stdout, "outputs identical: endianness translation preserved every value")
	fmt.Fprintf(stdout, "local %v -> offloaded %v (%.2fx)\n", local.Time, off.Time, off.Speedup(local))
	fmt.Fprintln(stdout, "note: each server memory access pays the translation cost the")
	fmt.Fprintln(stdout, "compiler inserted; the paper's ARM/x86 pair avoids it entirely.")
	return nil
}
