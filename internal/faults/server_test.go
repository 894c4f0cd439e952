package faults

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/simtime"
)

func TestParseServerRoundTrip(t *testing.T) {
	p, err := ParseServer("crash=1@300ms,drain=0@1s,slow=2@100ms-2sx3,stall=3@50ms-80ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 || p.Seed != 7 {
		t.Fatalf("ParseServer = %+v", p)
	}
	// Events are sorted by start time.
	wantKinds := []ServerKind{Stall, Slowdown, Crash, Drain}
	for i, k := range wantKinds {
		if p.Events[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v (events %+v)", i, p.Events[i].Kind, k, p.Events)
		}
	}
	for _, spec := range []string{
		"crash=1@300ms,drain=0@1s,slow=2@100ms-2sx3,stall=3@50ms-80ms,seed=7",
		"slow=0@0s-1000sx8",
		"crash=1@1234567ns",
		"stall=0@999ns-1h0m0.5s,slow=1@1us-2usx1.0000001",
	} {
		p, err := ParseServer(spec)
		if err != nil {
			t.Fatalf("ParseServer(%q): %v", spec, err)
		}
		back, err := ParseServer(p.String())
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", p.String(), spec, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("%q: round trip through %q gives %+v, want %+v", spec, p.String(), back, p)
		}
	}
}

func TestValidatePool(t *testing.T) {
	p, err := ParseServer("crash=1@300ms,slow=0@100ms-200msx3")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidatePool(2); err != nil {
		t.Errorf("servers 0 and 1 in a pool of 2: %v", err)
	}
	err = p.ValidatePool(1)
	if err == nil || !strings.Contains(err.Error(), "server event 1 (crash) names server 1, but the pool has 1") {
		t.Errorf("server 1 in a pool of 1: got %v, want the event, the server and the pool size named", err)
	}
	if err := (*ServerPlan)(nil).ValidatePool(0); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}

func TestParseServerRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"",
		"crash",
		"crash=1",
		"crash=x@5ms",
		"crash=-1@5ms",
		"wat=1@5ms",
		"slow=0@100ms-200ms",               // missing factor
		"slow=0@100ms-200msx1",             // factor must be > 1
		"slow=0@200ms-100msx2",             // empty window
		"stall=0@5ms",                      // missing window
		"crash=0@1s,crash=0@2s",            // two terminal events on one server
		"crash=0@1s,drain=0@2s",            // crash + drain on one server
		"slow=0@1s-2sx2,stall=0@1500ms-3s", // overlapping windows
		"slow=0@1s-2sxNaN",
		"slow=0@1s-2sx+Inf",
		"slow=0@0s-100sx1e300", // the stretched window passes the clock's range
	} {
		if _, err := ParseServer(spec); err == nil {
			t.Errorf("ParseServer(%q) accepted", spec)
		}
	}
}

func TestServerPlanQueries(t *testing.T) {
	p, err := ParseServer("crash=1@300ms,slow=0@100ms-200msx3,stall=2@50ms-80ms,drain=3@1s")
	if err != nil {
		t.Fatal(err)
	}
	ms := simtime.Millisecond
	if p.CrashAt(1, 299*ms) || !p.CrashAt(1, 300*ms) || p.CrashAt(0, simtime.Second) {
		t.Fatal("CrashAt wrong")
	}
	if p.DrainAt(3, 999*ms) || !p.DrainAt(3, simtime.Second) {
		t.Fatal("DrainAt wrong")
	}
	if f := p.SlowFactor(0, 150*ms); f != 3 {
		t.Fatalf("SlowFactor inside window = %v, want 3", f)
	}
	if f := p.SlowFactor(0, 250*ms); f != 1 {
		t.Fatalf("SlowFactor outside window = %v, want 1", f)
	}
	if until, ok := p.StallUntil(2, 60*ms); !ok || until != 80*ms {
		t.Fatalf("StallUntil = %v, %v", until, ok)
	}
	if _, ok := p.StallUntil(2, 90*ms); ok {
		t.Fatal("StallUntil past window")
	}
}

func TestSlowExtra(t *testing.T) {
	p := &ServerPlan{Events: []ServerEvent{
		{Kind: Slowdown, Server: 0, Start: 100, End: 200, Factor: 3},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		from, to, want simtime.PS
	}{
		{0, 100, 0},     // entirely before
		{200, 300, 0},   // entirely after
		{100, 200, 200}, // full window: 100ps x (3-1)
		{150, 250, 100}, // half overlap: 50ps x 2
		{0, 1000, 200},  // burst spans the window
		{120, 130, 20},  // burst inside the window
	} {
		if got := p.SlowExtra(0, tc.from, tc.to); got != tc.want {
			t.Errorf("SlowExtra(0, %d, %d) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
	if got := p.SlowExtra(1, 100, 200); got != 0 {
		t.Errorf("SlowExtra on unaffected server = %d, want 0", got)
	}
	if got := (*ServerPlan)(nil).SlowExtra(0, 100, 200); got != 0 {
		t.Errorf("nil plan SlowExtra = %d", got)
	}
}

func TestOutageOverlapRejected(t *testing.T) {
	ms := simtime.Millisecond
	p := &Plan{Outages: []Window{
		{Start: 10 * ms, End: 30 * ms},
		{Start: 20 * ms, End: 40 * ms},
	}}
	err := p.Validate()
	if err == nil {
		t.Fatal("overlapping outage windows accepted")
	}
	if !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("error does not name the overlap: %v", err)
	}
	// The error must identify the offending window.
	if !strings.Contains(err.Error(), "20.000ms") {
		t.Fatalf("error does not report the offending window: %v", err)
	}
	if _, perr := Parse("outage=10ms-30ms,outage=20ms-40ms"); perr == nil {
		t.Fatal("Parse accepted overlapping outages")
	}
	// Unsorted but disjoint literal plans stay valid.
	ok := &Plan{Outages: []Window{
		{Start: 50 * ms, End: 60 * ms},
		{Start: 10 * ms, End: 30 * ms},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("disjoint unsorted windows rejected: %v", err)
	}
}
