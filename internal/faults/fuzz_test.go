package faults

import (
	"reflect"
	"testing"
)

// fuzzSeeds are the spec examples of both parsers' documentation and the
// instants a rounding or picosecond rendering would not write back.
var fuzzSeeds = append([]string{
	"crash=1@300ms,drain=0@1s,slow=2@100ms-2sx3,stall=3@50ms-80ms,seed=7",
	"outage=0s-250ms,seed=3",
	"slow=0@0s-1000sx8",
	"crash=1@1234567ns",
	"slow=0@0s-100sx1e300",
}, roundTripSpecs...)

// FuzzParse: Parse never panics, and a plan it accepts is valid and is
// what Parse reads back from its String.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid plan: %v", spec, err)
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q, which Parse rejects: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("Parse(%q) = %+v, but its String %q parses to %+v", spec, p, p.String(), back)
		}
	})
}

// FuzzParseServer is FuzzParse for server-fault plans, plus: no slowdown
// it accepts wraps the clock, so each one's SlowExtra over its own window
// stretches it, and the stretched window still ends after End.
func FuzzParseServer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseServer(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseServer(%q) accepted an invalid plan: %v", spec, err)
		}
		back, err := ParseServer(p.String())
		if err != nil {
			t.Fatalf("ParseServer(%q).String() = %q, which ParseServer rejects: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("ParseServer(%q) = %+v, but its String %q parses to %+v", spec, p, p.String(), back)
		}
		for _, e := range p.Events {
			if e.Kind != Slowdown {
				continue
			}
			if extra := p.SlowExtra(e.Server, e.Start, e.End); extra < 0 || e.End+extra < e.End {
				t.Fatalf("ParseServer(%q): slowdown %+v stretches its window by %v", spec, e, extra)
			}
		}
	})
}
