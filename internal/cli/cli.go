// Package cli holds what the offload* commands share: the -cpuprofile and
// -bindstats flags with their start-up and tear-down, and the loaders for
// user-supplied IR files and -stdin token lists.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Common is the flag set every simulating command carries.
type Common struct {
	cpuProfile string
	bindStats  bool
}

// CommonFlags registers -cpuprofile and -bindstats on fs.
func CommonFlags(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
	fs.BoolVar(&c.bindStats, "bindstats", false, "print compilation-cache statistics (programs, hits, misses) after the run")
	return c
}

// Start applies the parsed flags: it starts the CPU profile. The returned
// stop must run once the command's work is done; it prints the -bindstats
// line to stdout and closes the profile.
func (c *Common) Start(stdout io.Writer) (stop func(), err error) {
	var prof *os.File
	if c.cpuProfile != "" {
		if prof, err = os.Create(c.cpuProfile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if c.bindStats {
			fmt.Fprintln(stdout, CacheStatsLine(core.DefaultCache))
		}
		if prof != nil {
			pprof.StopCPUProfile()
			prof.Close()
		}
	}, nil
}

// CacheStatsLine renders a compilation cache's counters.
func CacheStatsLine(cache *interp.CompilationCache) string {
	s := cache.Stats()
	return fmt.Sprintf("compilation cache: %d programs, %d hits, %d misses (hit rate %.0f%%)",
		s.Entries, s.Hits, s.Misses, 100*s.HitRate())
}

// LoadIR reads and parses a textual IR program.
func LoadIR(path string) (*ir.Module, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ir.Parse(string(data))
}

// StdinIO builds a program's scanf token stream from a comma-separated
// integer list (the -stdin flag). The empty list is no input; a token that
// is not an integer is an error naming it, never silently dropped — the
// program would otherwise run on a different input than the one given.
func StdinIO(csv string) (*interp.StdIO, error) {
	in := interp.NewStdIO(nil)
	in.MaxBuffered = 1 << 20
	if strings.TrimSpace(csv) == "" {
		return in, nil
	}
	for _, tok := range strings.Split(csv, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("token %q is not an integer", tok)
		}
		in.AddInput(v)
	}
	return in, nil
}
