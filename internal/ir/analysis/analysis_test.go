package analysis

import (
	"testing"

	"repro/internal/ir"
)

// buildNested builds a function with the chess example's loop structure:
//
//	func getAITurn(depth i32) i32 {
//	  acc := 0
//	  for i := 0; i < depth; i++ {      // for_i
//	    for j := 0; j < 64; j++ {       // for_j
//	      acc += j
//	    }
//	  }
//	  return acc
//	}
func buildNested(m *ir.Module) *ir.Func {
	b := ir.NewBuilder(m)
	f := b.NewFunc("getAITurn", ir.I32, ir.P("depth", ir.I32))
	acc := b.Alloca(ir.I32)
	b.Store(acc, ir.Int(0))
	b.For("for_i", ir.Int(0), f.Params[0], ir.Int(1), func(i ir.Value) {
		b.For("for_j", ir.Int(0), ir.Int(64), ir.Int(1), func(j ir.Value) {
			b.Store(acc, b.Add(b.Load(acc), j))
		})
	})
	b.Ret(b.Load(acc))
	b.Finish()
	return f
}

func TestCFGBasics(t *testing.T) {
	m := ir.NewModule("t")
	f := buildNested(m)
	g, err := BuildCFG(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.Blocks[0] != f.Entry() {
		t.Error("entry not first in RPO")
	}
	if g.RPO(f.Entry()) != 0 {
		t.Error("entry RPO != 0")
	}
	// Every reachable non-entry block has at least one predecessor.
	for _, b := range g.Blocks[1:] {
		if len(g.Preds(b)) == 0 {
			t.Errorf("block %s has no predecessors", b.Nam)
		}
	}
}

func TestDominators(t *testing.T) {
	m := ir.NewModule("t")
	f := buildNested(m)
	g, _ := BuildCFG(f)
	dom := Dominators(g)

	entry := f.Entry()
	for _, b := range g.Blocks {
		if !dom.Dominates(entry, b) {
			t.Errorf("entry should dominate %s", b.Nam)
		}
	}
	var condI, bodyI, condJ *ir.Block
	for _, b := range f.Blocks {
		switch b.Nam {
		case "for_i.cond":
			condI = b
		case "for_i.body":
			bodyI = b
		case "for_j.cond":
			condJ = b
		}
	}
	if !dom.Dominates(condI, condJ) {
		t.Error("outer loop header should dominate inner loop header")
	}
	if dom.Dominates(condJ, condI) {
		t.Error("inner loop header must not dominate outer header")
	}
	if dom.idom[bodyI] != condI {
		t.Errorf("idom(for_i.body) = %v, want for_i.cond", dom.idom[bodyI].Nam)
	}
}

func TestNaturalLoopsNested(t *testing.T) {
	m := ir.NewModule("t")
	f := buildNested(m)
	g, _ := BuildCFG(f)
	forest := FindLoops(g, Dominators(g))

	if len(forest.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(forest.Loops))
	}
	outer, inner := forest.Loops[0], forest.Loops[1]
	if outer.Name() != "for_i" || inner.Name() != "for_j" {
		t.Fatalf("loop names = %q, %q; want for_i, for_j", outer.Name(), inner.Name())
	}
	if inner.Parent != outer {
		t.Error("for_j should nest inside for_i")
	}
	if outer.Depth() != 1 || inner.Depth() != 2 {
		t.Errorf("depths = %d, %d; want 1, 2", outer.Depth(), inner.Depth())
	}
	for b := range inner.Blocks {
		if !outer.Contains(b) {
			t.Errorf("outer loop missing inner block %s", b.Nam)
		}
	}
	exits := outer.ExitEdges(g)
	if len(exits) != 1 {
		t.Fatalf("outer loop has %d exit edges, want 1", len(exits))
	}
	if exits[0][1].Nam != "for_i.exit" {
		t.Errorf("outer exit goes to %s, want for_i.exit", exits[0][1].Nam)
	}
}

func TestLoopNameStripsCond(t *testing.T) {
	l := &Loop{Header: &ir.Block{Nam: "main_for.cond"}}
	// Only a trailing ".cond" is stripped.
	if got := l.Name(); got != "main_for" {
		t.Errorf("Name() = %q, want main_for", got)
	}
}

func TestCallGraphDirectAndIndirect(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder(m)

	evalSig := ir.Signature(ir.I32, ir.I32)
	pawn := b.NewFunc("evalPawn", ir.I32, ir.P("x", ir.I32))
	b.Ret(b.Add(b.F.Params[0], ir.Int(1)))
	king := b.NewFunc("evalKing", ir.I32, ir.P("x", ir.I32))
	b.Ret(b.Add(b.F.Params[0], ir.Int(100)))
	other := b.NewFunc("otherSig", ir.I64, ir.P("x", ir.I64))
	b.Ret(b.F.Params[0])

	evals := b.GlobalVar("evals", ir.Array(ir.Ptr(evalSig), 2), pawn, king)

	caller := b.NewFunc("think", ir.I32, ir.P("k", ir.I32))
	slot := b.Index(evals, b.F.Params[0])
	fp := b.Load(slot)
	b.Ret(b.CallPtr(fp, evalSig, ir.Int(7)))

	mainf := b.NewFunc("main", ir.I32)
	b.Call(caller, ir.Int(0))
	b.Ret(b.Call(other, ir.Int64(0)))
	b.Finish()

	cg := BuildCallGraph(m)
	if len(cg.AddressTaken) != 2 {
		t.Fatalf("AddressTaken = %d funcs, want 2", len(cg.AddressTaken))
	}
	callees := cg.Callees[caller]
	names := map[string]bool{}
	for _, c := range callees {
		names[c.Nam] = true
	}
	if !names["evalPawn"] || !names["evalKing"] {
		t.Errorf("indirect call should conservatively reach both evals, got %v", names)
	}
	if names["otherSig"] {
		t.Error("indirect call resolved to function with mismatched signature")
	}

	reach := cg.Reachable(mainf)
	for _, want := range []string{"main", "think", "evalPawn", "evalKing", "otherSig"} {
		if !reach[m.Func(want)] {
			t.Errorf("%s should be reachable from main", want)
		}
	}
}

func TestCFGRejectsBodylessFunc(t *testing.T) {
	m := ir.NewModule("t")
	ext := m.Extern(ir.ExternPrintf)
	if _, err := BuildCFG(ext); err == nil {
		t.Error("BuildCFG should fail on extern")
	}
}

func TestWhileLoopDetected(t *testing.T) {
	m := ir.NewModule("t")
	b := ir.NewBuilder(m)
	f := b.NewFunc("try_place", ir.I32, ir.P("n", ir.I32))
	n := b.Alloca(ir.I32)
	b.Store(n, f.Params[0])
	b.While("try_place_while", func() ir.Value {
		return b.Cmp(ir.GT, b.Load(n), ir.Int(0))
	}, func() {
		b.Store(n, b.Sub(b.Load(n), ir.Int(1)))
	})
	b.Ret(b.Load(n))
	b.Finish()

	g, _ := BuildCFG(f)
	forest := FindLoops(g, Dominators(g))
	if len(forest.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(forest.Loops))
	}
	if got := forest.Loops[0].Name(); got != "try_place_while" {
		t.Errorf("loop name = %q, want try_place_while", got)
	}
}

func TestVerifySSAAcceptsWellFormed(t *testing.T) {
	m := ir.NewModule("t")
	buildNested(m)
	if err := VerifyModuleSSA(m); err != nil {
		t.Errorf("well-formed module rejected: %v", err)
	}
}

func TestVerifySSARejectsNonDominatingUse(t *testing.T) {
	m := ir.NewModule("bad")
	b := ir.NewBuilder(m)
	f := b.NewFunc("f", ir.I32, ir.P("c", ir.I32))
	thenB := b.Block("then")
	elseB := b.Block("else")
	join := b.Block("join")
	b.CondBr(b.Cmp(ir.GT, f.Params[0], ir.Int(0)), thenB, elseB)

	b.SetBlock(thenB)
	v := b.Add(f.Params[0], ir.Int(1)) // defined only on the then path
	b.Br(join)
	b.SetBlock(elseB)
	b.Br(join)
	b.SetBlock(join)
	b.Ret(v) // used where the definition does not dominate
	b.Finish()

	if err := VerifyModuleSSA(m); err == nil {
		t.Error("non-dominating use accepted")
	}
}

func TestVerifySSARejectsUseBeforeDef(t *testing.T) {
	m := ir.NewModule("bad2")
	b := ir.NewBuilder(m)
	b.NewFunc("f", ir.I32)
	blk := b.B
	add := &ir.Bin{Op: ir.Add, X: ir.Int(1), Y: ir.Int(2)}
	use := &ir.Bin{Op: ir.Mul, X: add, Y: ir.Int(3)}
	blk.Append(use) // use precedes def
	blk.Append(add)
	blk.Append(&ir.Ret{Val: use})
	m.Func("f").Renumber()

	if err := VerifyModuleSSA(m); err == nil {
		t.Error("use-before-def accepted")
	}
}

func TestCompiledModulesPassSSA(t *testing.T) {
	// The partitioner's rewrites (diamonds, outlining, dispatch loops)
	// must keep def-dominates-use intact; the nested chess build is the
	// richest in-package structure we can check here.
	m := ir.NewModule("chess")
	buildNested(m)
	for i := 0; i < 2; i++ {
		if err := VerifyModuleSSA(m); err != nil {
			t.Fatal(err)
		}
	}
}
