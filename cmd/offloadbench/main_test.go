package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runIn runs the CLI with dir as the working directory and returns stdout.
func runIn(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out bytes.Buffer
	err = run(args, &out)
	return out.String(), err
}

func TestExpPrintsTheCatalogueArtifact(t *testing.T) {
	for name, want := range map[string]string{
		"table2": experiments.Table2().String(),
		"table5": experiments.Table5().String(),
	} {
		got, err := runIn(t, t.TempDir(), "-exp", name)
		if err != nil {
			t.Fatalf("-exp %s: %v", name, err)
		}
		if got != want+"\n" {
			t.Errorf("-exp %s printed\n%s\nwant\n%s", name, got, want)
		}
	}
}

func TestUnknownExpListsTheCatalogue(t *testing.T) {
	_, err := runIn(t, t.TempDir(), "-exp", "nope")
	if err == nil {
		t.Fatal("-exp nope succeeded")
	}
	for _, e := range experiments.Catalogue {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error %q does not list %s", err, e.Name)
		}
	}
}

// TestOutIsTheOnlyWriter: an ad-hoc run must not touch the working
// directory (it used to overwrite the committed BENCH_fleet.json), and
// -out writes exactly the sweep's bench record.
func TestOutIsTheOnlyWriter(t *testing.T) {
	dir := t.TempDir()
	if _, err := runIn(t, dir, "-exp", "fleet", "-clients", "8", "-servers", "2"); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("run without -out left %d file(s) behind, first %s", len(left), left[0].Name())
	}

	path := filepath.Join(dir, "p")
	if _, err := runIn(t, dir, "-exp", "fleet", "-clients", "8", "-servers", "2", "-out", path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := experiments.FleetSweep([]int{8}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.BenchJSON(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-out wrote\n%s\nwant BenchJSON(FleetSweep)\n%s", got, want)
	}
}

// TestFlagValuesAreValidated: a flag value no experiment can run with is
// refused by name before anything runs (-migrate-seeds 0 used to print a
// table of NaNs and exit 0, -clients -5 silently ran 64 clients).
func TestFlagValuesAreValidated(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" = accepted
	}{
		{[]string{"-exp", "table2"}, ""},
		{[]string{"-exp", "table2", "-clients", "0"}, ""},
		{[]string{"-exp", "migrate", "-migrate-seeds", "0"}, "-migrate-seeds"},
		{[]string{"-exp", "migrate", "-migrate-seeds", "-3"}, "-migrate-seeds"},
		{[]string{"-exp", "fleet", "-clients", "-5"}, "-clients"},
		{[]string{"-exp", "fleet", "-servers", "0"}, "-servers"},
		{[]string{"-exp", "fleet", "-exemplars", "-1"}, "-exemplars"},
		{[]string{"-exp", "table1", "-depth", "0"}, "-depth"},
		{[]string{"-exp", "tiers", "-edge-servers", "-1"}, "-edge-servers"},
		{[]string{"-exp", "tiers", "-cloud-servers", "-1"}, "-cloud-servers"},
		{[]string{"-exp", "tiers", "-edge-servers", "0", "-cloud-servers", "0"}, "both be 0"},
	} {
		out, err := runIn(t, t.TempDir(), tc.args...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one naming %q", tc.args, err, tc.want)
		case tc.want != "" && out != "":
			t.Errorf("%v: printed %q before refusing", tc.args, out)
		}
	}
}
