package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/goldentest"
	"repro/internal/offrt"
	"repro/internal/workloads"
)

// TestSamplerChessGolden pins the guest stack profile of one offloaded chess
// move on both machines: attributed totals and every folded stack weight.
// Each weight is the time between two call, return or extern boundaries, so
// this is the whole-program check that the clock reads the same at every one
// of them — segment charges, extern charges, page fault and remote I/O waits
// included — across a change to how the fast engine charges. Regenerate
// (`make golden`) only for an intended change to those clocks.
func TestSamplerChessGolden(t *testing.T) {
	fw := core.NewFramework(core.FastNetwork)
	fw.CostScale = workloads.ChessCostScale
	fw.Cache = nil
	fw.ProfileStacks = true
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
	fmt.Fprintf(&buf, "mobile total=%d clock=%d\n", off.MobileProf.Total(), int64(off.Time))
	fmt.Fprintf(&buf, "server total=%d clock=%d\n", off.ServerProf.Total(), int64(off.ServerTime))
	if err := off.MobileProf.WriteFolded(&buf, "mobile"); err != nil {
		t.Fatal(err)
	}
	if err := off.ServerProf.WriteFolded(&buf, "server"); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "sampler_chess.golden", buf.Bytes())
}
