package fleet

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tiers"
)

// critSmokeConfig is the make critsmoke cell: the tiered benchmark
// workload at a load that demotes across tiers, with the tail sampler
// retaining 8 exemplars per category.
func critSmokeConfig() Config {
	cfg := tieredBenchConfig(96, tiers.ThreeWay)
	cfg.Exemplars = 8
	return cfg
}

// TestCritSmoke is the tracing acceptance gate: on a tiered cell with the
// tail sampler on, the slowest-K jobs are exactly the ones retained, every
// retained exemplar's critical-path segments sum bit-exactly to its
// end-to-end latency, every exemplar assembles into a complete span tree
// inside the ring. TestEngineMatchesReference holds this cell at another
// seed, exemplar set included, to the single-heap oracle.
func TestCritSmoke(t *testing.T) {
	cfg := critSmokeConfig()
	// Large enough that every job's live KJob summary survives: the
	// slowest-K check below needs the full latency population.
	tr := obs.NewTracer(1 << 17)
	cfg.Tracer = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.Exemplars
	if res.TraceDropped != 0 {
		t.Fatalf("test ring dropped %d events — grow it", res.TraceDropped)
	}
	if len(res.Exemplars) < k {
		t.Fatalf("only %d exemplars retained, want at least K=%d", len(res.Exemplars), k)
	}

	// Sum identity: each exemplar's segments partition its latency exactly.
	for _, ex := range res.Exemplars {
		var sum int64
		for _, s := range ex.Segments {
			sum += s.PS
		}
		if sum != ex.LatencyPS {
			t.Errorf("job %d (%s): segments sum to %d ps, latency is %d ps",
				ex.Job, ex.Outcome, sum, ex.LatencyPS)
		}
	}

	// Slowest-K: reconstruct the full population from the live KJob
	// summaries and check the "slow" category holds exactly the K jobs the
	// retention order (latency desc, id asc) puts on top.
	latOf := make(map[int64]int64)
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KJob {
			latOf[ev.Job] = int64(ev.Dur)
		}
	}
	if len(latOf) != res.Requests {
		t.Fatalf("%d KJob summaries for %d requests: the per-job stream is not total", len(latOf), res.Requests)
	}
	ids := make([]int64, 0, len(latOf))
	for id := range latOf {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if latOf[ids[a]] != latOf[ids[b]] {
			return latOf[ids[a]] > latOf[ids[b]]
		}
		return ids[a] < ids[b]
	})
	wantSlow := make(map[int64]bool, k)
	for _, id := range ids[:k] {
		wantSlow[id] = true
	}
	gotSlow := make(map[int64]bool)
	cats := make(map[string]int)
	for _, ex := range res.Exemplars {
		for _, c := range ex.Categories {
			cats[c]++
			if c == "slow" {
				gotSlow[ex.Job] = true
			}
		}
	}
	if len(gotSlow) != k {
		t.Fatalf("slow category holds %d jobs, want K=%d", len(gotSlow), k)
	}
	for id := range wantSlow {
		if !gotSlow[id] {
			t.Errorf("job %d is among the %d slowest (latency %d ps) but was not retained as slow",
				id, k, latOf[id])
		}
	}
	if cats["baseline"] != k {
		t.Errorf("baseline reservoir holds %d jobs, want K=%d", cats["baseline"], k)
	}
	if cats["migrated"] == 0 {
		t.Error("no migrated exemplar retained on a cell that fires cross-tier moves — the category is vacuous")
	}

	// Every exemplar assembles into a complete span tree whose root spans
	// exactly the recorded latency.
	trees := make(map[int64]*obs.JobTrace)
	for _, jt := range obs.AssembleSpans(tr.Events()) {
		trees[jt.Job] = jt
	}
	for _, ex := range res.Exemplars {
		jt := trees[ex.Job]
		if jt == nil || !jt.Complete {
			t.Errorf("job %d: no complete span tree assembled", ex.Job)
			continue
		}
		for _, r := range jt.Roots {
			if r.Dur > 0 && int64(r.Dur) != ex.LatencyPS {
				t.Errorf("job %d: root spans %d ps, exemplar records %d ps", ex.Job, int64(r.Dur), ex.LatencyPS)
			}
		}
	}

}

// TestSamplerOffLeavesResultUntouched: with Exemplars 0 the Result JSON
// must not even mention the sampler fields — committed bench artifacts
// stay byte-identical.
func TestSamplerOffLeavesResultUntouched(t *testing.T) {
	res, err := Run(DefaultConfig(8, 2, EstAware))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"exemplars", "trace_dropped"} {
		if bytes.Contains(b, []byte(key)) {
			t.Errorf("sampler-off result JSON leaks %q", key)
		}
	}
}

// TestExemplarValidation: a negative exemplar count must be rejected.
func TestExemplarValidation(t *testing.T) {
	cfg := DefaultConfig(8, 2, EstAware)
	cfg.Exemplars = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative exemplar count accepted")
	}
}

// TestEmitsBehindNilTracer: obs.Tracer.Emit is not inlined, so a call that
// passes an obs.Event literal builds and copies the whole 80-byte event
// before Emit's own nil test throws it away — once per decline on a flat
// fleet. Every such call in a shipped file must sit in the body of an if
// whose condition tests the call's receiver against nil (alone or as one
// term of an &&), so a run without a tracer builds no event at all.
func TestEmitsBehindNilTracer(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	isEventLit := func(e ast.Expr) bool {
		lit, ok := e.(*ast.CompositeLit)
		if !ok {
			return false
		}
		sel, ok := lit.Type.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "obs" && sel.Sel.Name == "Event"
	}
	// testsNotNil reports whether cond is recv != nil, or an && with that
	// as one of its terms.
	var testsNotNil func(cond ast.Expr, recv string) bool
	testsNotNil = func(cond ast.Expr, recv string) bool {
		switch c := cond.(type) {
		case *ast.ParenExpr:
			return testsNotNil(c.X, recv)
		case *ast.BinaryExpr:
			switch c.Op {
			case token.LAND:
				return testsNotNil(c.X, recv) || testsNotNil(c.Y, recv)
			case token.NEQ:
				if id, ok := c.Y.(*ast.Ident); ok && id.Name == "nil" {
					return types.ExprString(c.X) == recv
				}
			}
		}
		return false
	}
	fset := token.NewFileSet()
	guarded := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var stack []ast.Node // the enclosing nodes, outermost first
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 || !isEventLit(call.Args[0]) {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || fun.Sel.Name != "Emit" {
				return true
			}
			recv := types.ExprString(fun.X)
			for i := len(stack) - 2; i > 0; i-- {
				if st, ok := stack[i-1].(*ast.IfStmt); ok && stack[i] == st.Body && testsNotNil(st.Cond, recv) {
					guarded++
					return true
				}
			}
			t.Errorf("%s: %s.Emit(obs.Event{...}) is not inside an if %s != nil", fset.Position(call.Pos()), recv, recv)
			return true
		})
	}
	// place.go 8, recover.go 5, trace.go 1.
	if guarded != 14 {
		t.Errorf("found %d guarded Emit(obs.Event{...}) calls, want 14: the guard no longer sees them all", guarded)
	}
}
