package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/offrt"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// TestSamplerChessGolden pins the guest sampling profile of one offloaded
// chess move on both machines: sample counts, attributed totals and every
// folded stack weight, at a period fine enough (10 µs, ~28k server ticks)
// that a tick taken one segment early or late moves a weight. The sampler
// ticks wherever the clock advances — segment charges, extern charges, page
// fault and remote I/O waits — so this is the whole-program check that the
// fast engine advances the clock at the same instants, in the same order
// relative to calls and returns, across a change to how it charges.
// Regenerate (`make golden`) only for an intended change to those instants.
func TestSamplerChessGolden(t *testing.T) {
	fw := core.NewFramework(core.FastNetwork)
	fw.CostScale = workloads.ChessCostScale
	fw.Cache = nil
	fw.SampleEvery = 10 * simtime.Microsecond
	cres, err := fw.Prepare(workloads.BuildChess(workloads.DefaultChessConfig()), workloads.ChessInput(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	off, err := fw.RunOffloaded(cres, workloads.ChessInput(8, 1), offrt.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.Offloads == 0 {
		t.Fatal("chess did not offload; the server profile would be vacuous")
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "mobile samples=%d total=%d clock=%d\n", off.MobileProf.Samples(), off.MobileProf.Total(), int64(off.Time))
	fmt.Fprintf(&buf, "server samples=%d total=%d clock=%d\n", off.ServerProf.Samples(), off.ServerProf.Total(), int64(off.ServerTime))
	if err := off.MobileProf.WriteFolded(&buf, "mobile"); err != nil {
		t.Fatal(err)
	}
	if err := off.ServerProf.WriteFolded(&buf, "server"); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "sampler_chess.golden", buf.Bytes())
}
