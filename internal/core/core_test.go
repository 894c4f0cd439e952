package core

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/interp"
	"repro/internal/netsim"
	"repro/internal/offrt"
	"repro/internal/simtime"
	"repro/internal/workloads"
)

// chessSetup profiles and compiles the chess example once per network.
func chessSetup(t *testing.T, n Network) (*Framework, *LocalResult, *OffloadResult) {
	t.Helper()
	fw := NewFramework(n)
	fw.CostScale = workloads.ChessCostScale
	mod := workloads.BuildChess(workloads.DefaultChessConfig())

	prof, err := fw.Profile(mod, workloads.ChessInput(5, 2))
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// getAITurn must be the selected target, like the paper's example.
	found := false
	for _, tg := range cres.Targets {
		if tg.Name == "getAITurn" {
			found = true
		}
	}
	if !found {
		t.Fatalf("getAITurn not among targets: %+v", cres.Targets)
	}

	local, err := fw.RunLocal(mod, workloads.ChessInput(8, 2))
	if err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	off, err := fw.RunOffloaded(cres, workloads.ChessInput(8, 2), offrt.Policy{ForceOffload: true})
	if err != nil {
		t.Fatalf("RunOffloaded: %v", err)
	}
	return fw, local, off
}

func TestChessEndToEndFastNetwork(t *testing.T) {
	_, local, off := chessSetup(t, FastNetwork)

	// Semantics: the offloaded run must print exactly what the local run
	// printed — same scores, produced on the server, shipped back through
	// remote I/O, same final state.
	if local.Output != off.Output {
		t.Errorf("output mismatch:\nlocal:\n%s\noffloaded:\n%s", head(local.Output), head(off.Output))
	}
	if !off.Offloaded() {
		t.Fatal("no task was offloaded despite ForceOffload")
	}
	// Performance: the AI turns dominate, so the speedup should approach
	// the platform ratio of ~5.8 minus overheads.
	sp := off.Speedup(local)
	if sp < 2.0 {
		t.Errorf("speedup = %.2f, want > 2 (chess offload should pay off)", sp)
	}
	if off.Time >= local.Time {
		t.Error("offloaded run slower than local on fast network")
	}
	// Overhead accounting is populated.
	if off.Comp[interp.CompCompute] <= 0 || off.Comp[interp.CompComm] <= 0 {
		t.Error("missing compute/comm components")
	}
	if off.Comp[interp.CompFptr] <= 0 {
		t.Error("chess uses the evals fptr table; fptr overhead should be nonzero")
	}
	if off.Comp[interp.CompRemoteIO] <= 0 {
		t.Error("chess prints from the offloaded task; remote I/O overhead should be nonzero")
	}
	if off.LinkStats.TotalBytes() <= 0 {
		t.Error("no traffic accounted")
	}
	// Battery: offloading should save energy (Figure 6(b)).
	if off.NormalizedEnergy(local) >= 1.0 {
		t.Errorf("normalized energy = %.2f, want < 1", off.NormalizedEnergy(local))
	}
}

func TestChessDynamicGateOffloadsOnFast(t *testing.T) {
	fw := NewFramework(FastNetwork)
	fw.CostScale = workloads.ChessCostScale
	mod := workloads.BuildChess(workloads.DefaultChessConfig())
	prof, err := fw.Profile(mod, workloads.ChessInput(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		t.Fatal(err)
	}
	off, err := fw.RunOffloaded(cres, workloads.ChessInput(8, 2), offrt.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if !off.Offloaded() {
		t.Error("dynamic estimator should offload chess AI on the fast network")
	}
}

func TestChessLocalFallbackGateDisabled(t *testing.T) {
	fw := NewFramework(FastNetwork)
	fw.CostScale = workloads.ChessCostScale
	mod := workloads.BuildChess(workloads.DefaultChessConfig())
	prof, _ := fw.Profile(mod, workloads.ChessInput(5, 2))
	cres, err := fw.Compile(mod, prof)
	if err != nil {
		t.Fatal(err)
	}
	local, err := fw.RunLocal(mod, workloads.ChessInput(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Over a 1 kbps link Equation 1 charges every invocation more
	// communication than the server could save, so the dynamic gate declines
	// them all: the offloading-enabled binary runs fully locally and must
	// behave identically to the original binary.
	fw.Link = &netsim.Link{Name: "1kbps", BandwidthBps: 1000, Latency: simtime.Millisecond}
	off, err := fw.RunOffloaded(cres, workloads.ChessInput(7, 2), offrt.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if off.Offloaded() || off.Stats.Declines == 0 {
		t.Errorf("gate should decline every invocation: %d offloads, %d declines", off.Stats.Offloads, off.Stats.Declines)
	}
	if off.Output != local.Output {
		t.Errorf("local-path output differs:\n%s\nvs\n%s", head(off.Output), head(local.Output))
	}
}

func TestChessIdealTimeBelowOffloadTime(t *testing.T) {
	_, local, off := chessSetup(t, FastNetwork)
	if off.IdealTime() > off.Time {
		t.Error("ideal (pure compute) time exceeds actual offloaded time")
	}
	if off.IdealTime() >= local.Time {
		t.Error("ideal offloading should beat local execution")
	}
}

func TestChessSlowNetworkStillWorks(t *testing.T) {
	_, local, off := chessSetup(t, SlowNetwork)
	if local.Output != off.Output {
		t.Error("slow-network offload changed program output")
	}
	// 458.sjeng-like behaviour: chess offloads profitably even on 802.11n.
	if off.Time >= local.Time {
		t.Error("chess offload should still win on the slow network")
	}
}

func TestEnergyTimelineConsistent(t *testing.T) {
	_, _, off := chessSetup(t, FastNetwork)
	segs := off.Recorder.Segments()
	if len(segs) < 4 {
		t.Fatalf("expected a rich power timeline, got %d segments", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start < segs[i-1].End {
			t.Fatalf("overlapping segments %d/%d", i-1, i)
		}
	}
	if off.Recorder.TimeIn(energy.Wait) <= 0 {
		t.Error("mobile should spend time waiting while the server computes")
	}
	if off.Recorder.TimeIn(energy.Compute) <= 0 {
		t.Error("mobile should spend time computing locally")
	}
}

func head(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}

// TestRunPageAllocationBudget holds the page-frame pool to its purpose:
// every run gives its pages back once its results are taken, so after one
// warm-up a second local and offloaded run of the same program — the
// profiling run, the compile and the first runs filled the pool — take every
// page frame they need from the pool and allocate none. 470.lbm, 458.sjeng
// and 164.gzip hold the most pages at once.
func TestRunPageAllocationBudget(t *testing.T) {
	for _, name := range []string{"175.vpr", "470.lbm", "458.sjeng", "164.gzip"} {
		t.Run(name, func(t *testing.T) {
			w := workloads.ByName(name)
			fw := NewFramework(FastNetwork).WithScale(workloads.Scale, w.CostScale)
			mod := w.Build()
			cres, err := fw.Prepare(mod, w.ProfileIO())
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				t.Helper()
				if _, err := fw.RunLocal(mod, w.EvalIO()); err != nil {
					t.Fatal(err)
				}
				off, err := fw.RunOffloaded(cres, w.EvalIO(), offrt.Policy{})
				if err != nil {
					t.Fatal(err)
				}
				if !off.Offloaded() {
					t.Fatal("nothing was offloaded")
				}
			}
			run()
			made := freshFrames()
			run()
			if n := freshFrames() - made; n != 0 {
				t.Errorf("a warm local and offloaded run allocated %d fresh page frames, want 0", n)
			}
		})
	}
}
