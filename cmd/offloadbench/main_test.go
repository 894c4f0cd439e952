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
	// Shard count 0 is the sequential reference; the record is
	// bit-identical at any shard count, so it stands for the CLI's default.
	sweep, err := experiments.FleetSweep([]int{8}, 2, 1, 0)
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
