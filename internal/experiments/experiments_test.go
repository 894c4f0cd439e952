package experiments

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/ir/analysis"
	"repro/internal/report"
	"repro/internal/workloads"
)

// These tests are the reproduction's scientific assertions: they check that
// the regenerated tables and figures have the *shape* the paper reports —
// who wins, by roughly what factor, and where the crossovers fall.

// TestMain starts the two campaigns most of the suite reads, Sweep and
// Ablation, side by side before the first test, instead of one after the
// other inside whichever test asks first. Each is started only when a test
// that reads it is selected, so a -run of other tests pays for neither, and
// that test waits for it (both are sync.Once).
func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Short() {
		if selected("TestTable4MatchesPaperShape") {
			go Sweep()
		}
		if selected("TestOutputBatchingAblation") {
			go Ablation()
		}
	}
	os.Exit(m.Run())
}

// selected reports whether -run and -skip let the named top-level test run.
func selected(name string) bool {
	matches := func(flagName string) bool {
		pat := strings.Split(flag.Lookup(flagName).Value.String(), "/")[0]
		re, err := regexp.Compile(pat)
		return err == nil && re.MatchString(name)
	}
	skip := flag.Lookup("test.skip").Value.String() != "" && matches("test.skip")
	return matches("test.run") && !skip
}

func sweep(t *testing.T) []*ProgramResult {
	t.Helper()
	if testing.Short() {
		t.Skip("full 17-program sweep")
	}
	rs, err := Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 17 {
		t.Fatalf("sweep covered %d programs, want 17", len(rs))
	}
	return rs
}

func TestTable1GapBand(t *testing.T) {
	tab := Table1(8) // depths 7-8 keep the test fast; the bench runs 7-11
	for _, row := range tab.Rows {
		gap := row[3]
		if gap < "5.3" || gap > "5.9" {
			t.Errorf("difficulty %s gap %s outside Table 1 band [5.36, 5.89]", row[0], gap)
		}
	}
}

func TestTable2Claim(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 20 {
		t.Fatalf("Table 2 has %d rows, want 20", len(tab.Rows))
	}
	// "around one third" of the apps are >50% native LoC and more spend
	// >20% of execution time in native code.
	notes := strings.Join(tab.Notes, " ")
	if !strings.Contains(notes, "6/20") || !strings.Contains(notes, "9/20") {
		t.Errorf("expected 6/20 and 9/20 in notes: %v", tab.Notes)
	}
}

func TestTable3SelectsGetAITurn(t *testing.T) {
	tab, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	var selected []string
	var innerRejected, playerFiltered, forINested bool
	for _, row := range tab.Rows {
		name, verdict := row[0], row[7]
		if verdict == "SELECTED" {
			selected = append(selected, name)
		}
		// The paper's for_j analogue: the innermost hot loop loses to its
		// thousands of invocations (repeated communication, Equation 1).
		if strings.Contains(name, "minimax_leaf") && verdict == "rejected" {
			innerRejected = true
		}
		if strings.Contains(name, "for_i") && strings.Contains(verdict, "nested") {
			forINested = true
		}
		if name == "getPlayerTurn" && strings.Contains(verdict, "machine-specific") {
			playerFiltered = true
		}
	}
	if len(selected) != 1 || selected[0] != "getAITurn" {
		t.Errorf("selected = %v, want exactly [getAITurn]", selected)
	}
	if !innerRejected {
		t.Error("the inner leaf loop should be rejected (invocation count makes communication dominate)")
	}
	if !forINested {
		t.Error("for_i should be profitable but yield to getAITurn, as in the paper")
	}
	if !playerFiltered {
		t.Error("getPlayerTurn should be filtered (interactive scanf)")
	}
}

func TestTable4MatchesPaperShape(t *testing.T) {
	t.Parallel()
	rs := sweep(t)
	for _, r := range rs {
		name := r.W.Name
		// Execution times calibrated within 15% of the paper.
		got := r.Local.Time.Seconds()
		want := r.W.Paper.ExecTimeSec
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s: local time %.1fs vs paper %.1fs (off by >15%%)", name, got, want)
		}
		// Offload invocations match Table 4 exactly (ammp has a second
		// two-invocation target on top of tpac's one). The gate declines
		// none of them on the fast link, so these are the times the targets
		// run on the evaluation input: a forced offload makes the same count.
		inv, traffic := invocationsAndTraffic(r.Fast)
		wantInv := r.W.Paper.Invocations
		if name == "188.ammp" {
			wantInv = 3
		}
		if inv != wantInv {
			t.Errorf("%s: %d offload invocations, want %d", name, inv, wantInv)
		}
		if d := r.Fast.Stats.Declines; d != 0 {
			t.Errorf("%s: the gate declined %d invocations on the fast link", name, d)
		}
		// Per-invocation traffic within 2x of Table 4 (hmmer and vpr sit
		// at the protocol floor; the paper's own numbers include effects
		// we cannot observe).
		if r.W.Paper.TrafficMB > 1 {
			if traffic < r.W.Paper.TrafficMB/2 || traffic > r.W.Paper.TrafficMB*2 {
				t.Errorf("%s: traffic %.1f MB vs paper %.1f MB (off by >2x)", name, traffic, r.W.Paper.TrafficMB)
			}
		}
		// Coverage within 15 points of Table 4.
		cov := 100 * r.Coverage()
		if d := cov - r.W.Paper.CoveragePct; d > 15 || d < -15 {
			t.Errorf("%s: coverage %.1f%% vs paper %.1f%%", name, cov, r.W.Paper.CoveragePct)
		}
	}
}

// TestSweepBinariesSatisfySSA: the mobile and server binaries of all 17
// programs keep the def-dominates-use discipline the interpreter relies on
// (the compiler's own test checks chess only).
func TestSweepBinariesSatisfySSA(t *testing.T) {
	for _, r := range sweep(t) {
		for _, m := range []*ir.Module{r.Compile.Mobile, r.Compile.Server} {
			if err := analysis.VerifyModuleSSA(m); err != nil {
				t.Errorf("%s: %s: %v", r.W.Name, m.Name, err)
			}
		}
	}
}

func TestFig6aShape(t *testing.T) {
	rs := sweep(t)
	_, rows, err := Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	var fasts []float64
	for _, row := range rows {
		// Every program speeds up on the fast network.
		if row.Fast >= 1 {
			t.Errorf("%s: fast normalized time %.2f >= 1 (no speedup)", row.Name, row.Fast)
		}
		if !row.FastOffloaded {
			t.Errorf("%s: not offloaded on the fast network", row.Name)
		}
		// The only slow-network decline is gzip (the starred bar).
		if row.SlowOffloaded == rs[0].W.Paper.StarredSlow && row.Name == "164.gzip" {
			t.Error("164.gzip should be declined on the slow network")
		}
		if row.Name != "164.gzip" && !row.SlowOffloaded {
			t.Errorf("%s: wrongly declined on the slow network", row.Name)
		}
		// Offloaded time never beats the ideal.
		if row.SlowOffloaded && row.Slow < row.Ideal*0.99 {
			t.Errorf("%s: slow run %.3f beats ideal %.3f", row.Name, row.Slow, row.Ideal)
		}
		fasts = append(fasts, row.Fast)
	}
	// Geomean reduction in the paper's regime: they report 84.4% on fast;
	// we demand at least 70% (overheads in this simulator are coarser).
	if g := report.Geomean(fasts); g > 0.30 {
		t.Errorf("geomean fast normalized time %.3f, want <= 0.30 (paper 0.156)", g)
	}
}

func TestFig6bShape(t *testing.T) {
	sweep(t)
	_, rows, err := Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	var fasts, slows []float64
	for _, row := range rows {
		if row.Name == "164.gzip" {
			// gzip runs locally on slow Wi-Fi: no battery win there.
			if row.Slow < 0.95 {
				t.Errorf("gzip slow energy %.2f, want ~1 (not offloaded)", row.Slow)
			}
		} else if row.Fast >= 1 {
			t.Errorf("%s: fast energy %.2f >= local", row.Name, row.Fast)
		}
		fasts = append(fasts, row.Fast)
		slows = append(slows, row.Slow)
	}
	gf, gs := report.Geomean(fasts), report.Geomean(slows)
	if gf > 0.35 || gs > 0.45 {
		t.Errorf("geomean energy %.2f slow / %.2f fast, want savings near the paper's 77%%/82%%", gs, gf)
	}
	if gf >= gs {
		t.Errorf("fast network should save more battery overall: %.3f vs %.3f", gf, gs)
	}
}

func TestFig7Shape(t *testing.T) {
	sweep(t)
	_, rows, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig7Row{}
	for _, r := range rows {
		byKey[r.Name+"/"+r.Network] = r
	}
	frac := func(name, net string, pick func(Fig7Row) float64) float64 {
		r := byKey[name+"/"+net]
		if r.Total == 0 {
			return 0
		}
		return pick(r) / float64(r.Total)
	}
	comm := func(r Fig7Row) float64 { return float64(r.Comm) }
	rio := func(r Fig7Row) float64 { return float64(r.RemoteIO) }
	fptr := func(r Fig7Row) float64 { return float64(r.Fptr) }

	// Communication-heavy programs are network sensitive (Section 5.1).
	for _, name := range []string{"401.bzip2", "429.mcf", "458.sjeng", "470.lbm"} {
		if frac(name, "s", comm) < 2*frac(name, "f", comm) {
			t.Errorf("%s: slow-network comm share should far exceed fast", name)
		}
		if frac(name, "s", comm) < 0.05 {
			t.Errorf("%s: comm share %.3f on slow network, want >= 5%%", name, frac(name, "s", comm))
		}
	}
	// Remote-input programs show remote I/O overhead (Section 5.1).
	for _, name := range []string{"300.twolf", "445.gobmk", "464.h264ref"} {
		if frac(name, "f", rio) < 0.02 {
			t.Errorf("%s: remote I/O share %.3f, want visible (>2%%)", name, frac(name, "f", rio))
		}
	}
	// Function pointer translation visible exactly where the paper says.
	for _, name := range []string{"445.gobmk", "458.sjeng", "464.h264ref"} {
		if frac(name, "f", fptr) < 0.03 {
			t.Errorf("%s: fptr share %.3f, want visible (>3%%)", name, frac(name, "f", fptr))
		}
	}
	for _, name := range []string{"179.art", "183.equake", "429.mcf", "470.lbm"} {
		if frac(name, "f", fptr) > 0.02 {
			t.Errorf("%s: fptr share %.3f, should be negligible", name, frac(name, "f", fptr))
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rs := sweep(t)
	text, traces, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 || !strings.Contains(text, "458.sjeng") {
		t.Fatalf("Fig8 incomplete: %d traces", len(traces))
	}
	byName := map[string]*ProgramResult{}
	for _, r := range rs {
		byName[r.W.Name] = r
	}
	gobmk := byName["445.gobmk"]
	// The paper's headline anomaly: gobmk consumes MORE battery on the
	// fast network because remote I/O service draws 2000 mW there vs
	// 1700 mW on 802.11n.
	fastMJ := gobmk.Fast.Recorder.EnergyMJ(energy.FastModel())
	slowMJ := gobmk.Slow.Recorder.EnergyMJ(energy.SlowModel())
	if fastMJ <= slowMJ {
		t.Errorf("gobmk: fast %.0f mJ should exceed slow %.0f mJ (Fig. 8(b)/(c))", fastMJ, slowMJ)
	}
	// gobmk's radio never idles: remote I/O service dominates its timeline.
	ioShare := float64(gobmk.Fast.Recorder.TimeIn(energy.IOServe)) / float64(gobmk.Fast.Recorder.Duration())
	if ioShare < 0.5 {
		t.Errorf("gobmk: IOServe share %.2f, want continuous (>50%%)", ioShare)
	}
	// sjeng pulses: it has distinct wait periods between bursts.
	sjeng := byName["458.sjeng"]
	if sjeng.Fast.Recorder.TimeIn(energy.Wait) < sjeng.Fast.Recorder.Duration()/2 {
		t.Error("sjeng should mostly wait between communication bursts")
	}
}

func TestTable5RendersAllSystems(t *testing.T) {
	tab := Table5()
	if len(tab.Rows) != 14 {
		t.Fatalf("Table 5 rows = %d, want 14", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "Native Offloader" || last[3] != "No" || last[4] != "C" {
		t.Errorf("Native Offloader row wrong: %v", last)
	}
}

func TestAblationEffects(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs several offloaded executions")
	}
	_, rs, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationResult{}
	for _, r := range rs {
		byName[r.Name] = r
	}
	if a := byName["prefetch -> pure copy-on-demand"]; a.Ablated <= a.Baseline {
		t.Errorf("copy-on-demand-only should be slower: %.2f vs %.2f", a.Ablated, a.Baseline)
	}
	if a := byName["server->mobile compression off"]; a.Ablated <= a.Baseline {
		t.Errorf("uncompressed write-back should move more bytes: %.2f vs %.2f", a.Ablated, a.Baseline)
	}
	if a := byName["dynamic gate off (gzip, congested 802.11n)"]; a.Ablated <= a.Baseline {
		t.Errorf("forcing gzip onto the slow network should be slower than the gate's local fallback")
	}
	if a := byName["remote I/O optimization off (gobmk)"]; a.Ablated != 0 && a.Ablated < a.Baseline*1.5 {
		t.Errorf("without remote I/O the partition should be far worse: %.1fs vs %.1fs", a.Ablated, a.Baseline)
	}
}

func TestCrossArchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six offloaded executions")
	}
	_, rows, err := CrossArch()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if !r.OutputsOK {
			t.Errorf("%s: outputs diverged across server architectures", r.Name)
		}
		if r.BE32Sec <= r.X8664Sec {
			t.Errorf("%s: big-endian server should pay translation overhead (%.1f vs %.1f)",
				r.Name, r.BE32Sec, r.X8664Sec)
		}
		if r.BE32Sec > r.X8664Sec*1.5 {
			t.Errorf("%s: translation overhead %.0f%% implausibly high",
				r.Name, 100*(r.BE32Sec/r.X8664Sec-1))
		}
		if r.BE32Sec >= r.LocalSec {
			t.Errorf("%s: offloading to the BE server should still win vs local", r.Name)
		}
	}
}

func TestOutputBatchingAblation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs several offloaded executions")
	}
	_, rs, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rs {
		if a.Name == "output batching off (sphinx3)" {
			if a.Ablated <= a.Baseline {
				t.Errorf("per-call output should send more messages: %v vs %v", a.Ablated, a.Baseline)
			}
			return
		}
	}
	t.Error("batching ablation row missing")
}

func TestSimulationIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	// Everything in the simulator is virtual-clock driven; two runs of
	// the same program must agree to the picosecond and to the byte.
	w := workloads.ByName("433.milc")
	a, err := RunProgram(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunProgram(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Local.Time != b.Local.Time {
		t.Errorf("local times differ: %v vs %v", a.Local.Time, b.Local.Time)
	}
	if a.Fast.Time != b.Fast.Time || a.Slow.Time != b.Slow.Time {
		t.Errorf("offloaded times differ: %v/%v vs %v/%v", a.Fast.Time, a.Slow.Time, b.Fast.Time, b.Slow.Time)
	}
	if a.Fast.LinkStats.TotalBytes() != b.Fast.LinkStats.TotalBytes() {
		t.Errorf("traffic differs: %d vs %d", a.Fast.LinkStats.TotalBytes(), b.Fast.LinkStats.TotalBytes())
	}
	if a.Fast.EnergyMJ != b.Fast.EnergyMJ {
		t.Errorf("energy differs: %f vs %f", a.Fast.EnergyMJ, b.Fast.EnergyMJ)
	}
	if a.Local.Output != b.Local.Output {
		t.Error("outputs differ between identical runs")
	}
}
