package cli

import (
	"strings"
	"testing"
)

// TestStdinIO pins the -stdin parser: every token of the list reaches the
// program in order, the empty list is no input, and a token that is not an
// integer is reported by name instead of being dropped (which would run
// the program on a different input than the one given).
func TestStdinIO(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []int64
	}{
		{"", nil},
		{"  ", nil},
		{"200", []int64{200}},
		{"200,200", []int64{200, 200}},
		{" 7 , -3,+4 ", []int64{7, -3, 4}},
	} {
		in, err := StdinIO(tc.spec)
		if err != nil {
			t.Errorf("StdinIO(%q): %v", tc.spec, err)
			continue
		}
		var got []int64
		for v, ok := in.NextInt(); ok; v, ok = in.NextInt() {
			got = append(got, v)
		}
		if len(got) != len(tc.want) {
			t.Errorf("StdinIO(%q) fed %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("StdinIO(%q) fed %v, want %v", tc.spec, got, tc.want)
				break
			}
		}
	}
	for spec, bad := range map[string]string{
		"200,2o0":  "2o0",
		"1,,2":     `""`,
		"3.5":      "3.5",
		"1,2,":     `""`,
		"12 34,56": "12 34",
	} {
		in, err := StdinIO(spec)
		if err == nil {
			t.Errorf("StdinIO(%q) accepted a bad token and fed %+v", spec, in)
			continue
		}
		if !strings.Contains(err.Error(), bad) {
			t.Errorf("StdinIO(%q) error %q does not name the offending token %s", spec, err, bad)
		}
	}
}
