package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// detailPrefix marks the line on which a child process hands its full
// runResult (raw samples included) to the parent.
const detailPrefix = "detail "

// record is bench/out/results.json: where and how the numbers were taken,
// and every run with its raw per-pass samples.
type record struct {
	Cores      int          `json:"cores"`
	GoMaxProcs int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	GitHead    string       `json:"git_head"`
	Seed       uint64       `json:"seed"`
	RunSeconds float64      `json:"run_seconds"`
	Passes     int          `json:"passes,omitempty"`
	Runs       []*runResult `json:"runs"`
}

// runAll runs every workload of the spec in a child process of its own —
// so peak memory, allocation and cache state are that workload's alone —
// `runs` times untraced on consecutive seeds and once traced, and writes
// the result record.
func runAll(spec *benchSpec, o *options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := &record{
		Cores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitHead: gitHead(), Seed: o.seed, RunSeconds: o.seconds, Passes: o.passes,
	}
	child := func(workload string, seed uint64, trace int) error {
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-passes", strconv.Itoa(o.passes),
			"-trace", strconv.Itoa(trace), "-out", o.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if detail, ok := strings.CutPrefix(line, detailPrefix); ok {
				var r runResult
				if err := json.Unmarshal([]byte(detail), &r); err != nil {
					return fmt.Errorf("%s: child detail: %w", workload, err)
				}
				rec.Runs = append(rec.Runs, &r)
			} else if !strings.HasPrefix(line, "{") {
				fmt.Println(line)
			}
		}
		return sc.Err()
	}
	for i := 0; i < runs; i++ {
		for _, w := range spec.workloadNames() {
			if err := child(w, o.seed+uint64(i), 0); err != nil {
				return err
			}
		}
	}
	for _, w := range spec.workloadNames() {
		if err := child(w, o.seed, 1); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	failed := 0
	for _, r := range rec.Runs {
		failed += r.Failed
	}
	fmt.Printf("wrote %s: %d runs, %d failed ops\n", path, len(rec.Runs), failed)
	return nil
}

// gitHead names the commit measured; a checkout that is not a git
// repository (the acceptance driver's) records "unknown".
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
