package experiments

import (
	"testing"

	"repro/internal/fleet"
)

// TestFleetAcceptanceCell pins the headline claim at the 64-client /
// 4-server cell: contention-aware dispatch beats random on the tail, and
// the load-blind policies overrun admission (nonzero sheds).
func TestFleetAcceptanceCell(t *testing.T) {
	res, err := FleetSweep([]int{64}, 4, 1, 0, fleet.Random, fleet.EstAware)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	rnd, est := res[0], res[1]
	if est.P99Ms >= rnd.P99Ms {
		t.Errorf("est-aware p99 %.1f ms >= random %.1f ms", est.P99Ms, rnd.P99Ms)
	}
	if rnd.Sheds == 0 {
		t.Error("random dispatch at 64/4 shed nothing; overload never materialized")
	}
	if est.GeomeanMs > rnd.GeomeanMs {
		t.Errorf("est-aware geomean %.1f ms > random %.1f ms", est.GeomeanMs, rnd.GeomeanMs)
	}
	table := FleetTable(res)
	if table.String() == "" || len(table.Rows) != 2 {
		t.Error("fleet table did not render both rows")
	}
}
