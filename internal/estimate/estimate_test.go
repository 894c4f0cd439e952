package estimate

import (
	"math"
	"testing"

	"repro/internal/simtime"
)

// Table 3 of the paper: R = 5, BW = 80 Mbps. Candidates (exec time s,
// mem MB, invocations) -> (Tideal, Tc, Tg) in seconds.
func table3Params() Params { return Params{R: 5, BandwidthBps: 80_000_000} }

func TestTable3Rows(t *testing.T) {
	p := table3Params()
	rows := []struct {
		name        string
		execSec     float64
		memMB       int64
		invocations int
		tideal, tc  float64
		tg          float64
	}{
		{"runGame", 27.0, 20, 1, 21.6, 4.0, 17.6},
		{"getAITurn", 26.0, 12, 3, 20.8, 7.2, 13.6},
		{"for_i", 26.0, 12, 3, 20.8, 7.2, 13.6},
		{"for_j", 25.0, 12, 36, 20.0, 86.4, -66.4},
		{"getPlayerTurn", 1.5, 10, 3, 1.2, 6.0, -4.8},
	}
	for _, row := range rows {
		est := p.Evaluate(simtime.FromSeconds(row.execSec), row.memMB*1_000_000, row.invocations)
		if got := est.Tideal.Seconds(); math.Abs(got-row.tideal) > 0.05 {
			t.Errorf("%s: Tideal = %.2f, want %.2f", row.name, got, row.tideal)
		}
		if got := est.Tc.Seconds(); math.Abs(got-row.tc) > 0.05 {
			t.Errorf("%s: Tc = %.2f, want %.2f", row.name, got, row.tc)
		}
		if got := est.Tg.Seconds(); math.Abs(got-row.tg) > 0.1 {
			t.Errorf("%s: Tg = %.2f, want %.2f", row.name, got, row.tg)
		}
	}
}

func TestTable3Selection(t *testing.T) {
	// Of the Table 3 candidates, exactly runGame, getAITurn and for_i are
	// profitable; for_j loses to its 36 invocations and getPlayerTurn to
	// its tiny execution time.
	p := table3Params()
	if p.Evaluate(simtime.FromSeconds(26.0), 12_000_000, 3).Tg <= 0 {
		t.Error("getAITurn should be profitable")
	}
	if p.Evaluate(simtime.FromSeconds(25.0), 12_000_000, 36).Tg > 0 {
		t.Error("for_j should NOT be profitable (repeated communication)")
	}
	if p.Evaluate(simtime.FromSeconds(1.5), 10_000_000, 3).Tg > 0 {
		t.Error("getPlayerTurn should NOT be profitable")
	}
}

func TestGainMonotonicity(t *testing.T) {
	p := table3Params()
	gain := func(sec float64, mem int64, inv int) simtime.PS {
		return p.Evaluate(simtime.FromSeconds(sec), mem, inv).Tg
	}
	base := gain(10, 1_000_000, 1)
	if gain(20, 1_000_000, 1) <= base {
		t.Error("gain should grow with task time")
	}
	if gain(10, 50_000_000, 1) >= base {
		t.Error("gain should shrink with memory size")
	}
	if gain(10, 1_000_000, 10) >= base {
		t.Error("gain should shrink with invocation count")
	}
}

func TestFasterNetworkHelps(t *testing.T) {
	slow := Params{R: 5.8, BandwidthBps: 144_000_000}
	fast := Params{R: 5.8, BandwidthBps: 844_000_000}
	tm := simtime.FromSeconds(15.3)
	mem := int64(150_000_000) // gzip-like
	if slow.Evaluate(tm, mem, 1).Tg > 0 {
		t.Error("gzip-like task should be rejected on slow network (Fig. 6 star)")
	}
	if fast.Evaluate(tm, mem, 1).Tg <= 0 {
		t.Error("gzip-like task should be accepted on fast network")
	}
}

func TestDegenerateParams(t *testing.T) {
	p := Params{R: 0, BandwidthBps: 0}
	if p.Evaluate(simtime.FromSeconds(1), 1000, 1).Tg != 0 {
		t.Error("degenerate params should yield zero gain")
	}
}

func TestRemoteTimeMatchesEquationOne(t *testing.T) {
	p := Params{R: 5, BandwidthBps: 80_000_000, RTT: 4 * simtime.Millisecond}
	tm := simtime.FromSeconds(2)
	mem := int64(4 << 20)
	// With an empty queue the queued gate must agree with Equation 1.
	if (p.Evaluate(tm, mem, 1).Tg > 0) != p.ProfitableQueued(tm, mem, 0) {
		t.Error("ProfitableQueued(queue=0) disagrees with Equation 1")
	}
	base := p.RemoteTime(tm, mem, 0)
	if want := p.CommTime(mem, 1) + simtime.PS(float64(tm)/p.R); base != want {
		t.Errorf("RemoteTime = %v, want %v", base, want)
	}
	// Queueing delay is charged linearly and eventually flips the verdict.
	if p.RemoteTime(tm, mem, simtime.Second) != base+simtime.Second {
		t.Error("queue delay not charged")
	}
	if !p.ProfitableQueued(tm, mem, 0) {
		t.Fatal("baseline task should offload when idle")
	}
	if p.ProfitableQueued(tm, mem, 10*simtime.Second) {
		t.Error("a 10s queue should flip a 2s task back to local")
	}
}
