package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCatalogueInvariants pins what the CLI, -exp all and BenchmarkPaper
// rely on: every entry is addressable by a unique name and runnable, and
// the Paper subset is the paper's evaluation in presentation order.
func TestCatalogueInvariants(t *testing.T) {
	seen := map[string]bool{}
	var paper []string
	for _, e := range Catalogue {
		if e.Name == "" || e.Name == "all" || seen[e.Name] {
			t.Errorf("catalogue name %q is empty, reserved or duplicated", e.Name)
		}
		seen[e.Name] = true
		if e.Desc == "" || e.Run == nil {
			t.Errorf("%s: missing description or Run", e.Name)
		}
		if e.Paper {
			paper = append(paper, e.Name)
		}
	}
	want := []string{"table1", "table2", "table3", "table4", "table5",
		"fig6a", "fig6b", "fig7", "fig8", "ablation", "crossarch"}
	if !reflect.DeepEqual(paper, want) {
		t.Errorf("Paper entries = %v, want %v", paper, want)
	}

	all, err := Select("all")
	if err != nil || len(all) != len(want) {
		t.Errorf("Select(all) = %d entries, err %v; want the %d Paper entries", len(all), err, len(want))
	}
	if one, err := Select("tiers"); err != nil || len(one) != 1 || one[0].Name != "tiers" {
		t.Errorf("Select(tiers) = %v, %v", one, err)
	}
	if _, err := Select("nope"); err == nil || !strings.Contains(err.Error(), "fig6a") {
		t.Errorf("Select(nope) error %v does not list the catalogue names", err)
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("the flag defaults do not validate: %v", err)
	}
}

type flooredRecord struct {
	Value int   `json:"value"`
	floor error // what CheckFloor reports
}

func (r flooredRecord) CheckFloor() error { return r.floor }

// TestWriteBenchEnforcesFloor: the floor gate on the CLI path. A record
// whose floor fails must be refused with that error and leave no file
// behind; the same record with the floor holding is written.
func TestWriteBenchEnforcesFloor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_stub.json")
	broken := errors.New("stub floor broken")
	if err := WriteBench(path, flooredRecord{Value: 1, floor: broken}); !errors.Is(err, broken) {
		t.Fatalf("WriteBench with a failing floor returned %v, want the floor error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused record still left a file behind (stat: %v)", err)
	}
	if err := WriteBench(path, flooredRecord{Value: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"value\": 1\n}\n"; string(got) != want {
		t.Errorf("written record = %q, want %q", got, want)
	}
}
