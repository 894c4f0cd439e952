package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Parent is an index into the same span list (-1 for a
// root); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them once at exit. The load
// generator is one goroutine, so the open spans form a stack. A nil
// recorder records nothing: untraced passes pay one nil check per call.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextOp starts a new op; later spans carry its number.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent,
		StartNs: time.Since(r.t0).Nanoseconds()})
}

func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].EndNs = time.Since(r.t0).Nanoseconds()
}

// spanTimes groups span times in seconds by span name.
type spanTimes map[string][]float64

func (t spanTimes) sum(name string) float64 {
	s := 0.0
	for _, v := range t[name] {
		s += v
	}
	return s
}

// selfTimes returns each span's self time — its duration minus the part
// its child spans cover — grouped by name; durations returns the plain
// durations the same way.
func (r *recorder) selfTimes() (self, durations spanTimes) {
	self, durations = spanTimes{}, spanTimes{}
	if r == nil {
		return
	}
	own := make([]int64, len(r.spans))
	for i, s := range r.spans {
		own[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			own[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	for i, s := range r.spans {
		self[s.Name] = append(self[s.Name], float64(own[i])/1e9)
		durations[s.Name] = append(durations[s.Name], float64(s.EndNs-s.StartNs)/1e9)
	}
	return
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
