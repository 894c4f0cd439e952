package analysis

import (
	"fmt"

	"repro/internal/ir"
)

// DomTree is the dominator tree of a CFG.
type DomTree struct {
	cfg  *CFG
	idom map[*ir.Block]*ir.Block
}

// Dominators computes the dominator tree with the Cooper–Harvey–Kennedy
// iterative algorithm ("A Simple, Fast Dominance Algorithm"), which runs in
// near-linear time on the reducible CFGs our builder produces.
func Dominators(g *CFG) *DomTree {
	entry := g.Blocks[0]
	idom := make(map[*ir.Block]*ir.Block, len(g.Blocks))
	idom[entry] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for g.rpo[a] > g.rpo[b] {
				a = idom[a]
			}
			for g.rpo[b] > g.rpo[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks[1:] {
			var newIdom *ir.Block
			for _, p := range g.preds[b] {
				if !g.Reachable(p) {
					continue
				}
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return &DomTree{cfg: g, idom: idom}
}

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next := d.idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// VerifySSA checks that every instruction's register operands are defined
// in blocks that dominate the use (or earlier in the same block) — the
// def-dominates-use discipline the interpreter's slot-based registers rely
// on. It complements ir.Verify's structural checks.
func VerifySSA(f *ir.Func) error {
	g, err := BuildCFG(f)
	if err != nil {
		return err
	}
	dom := Dominators(g)

	defBlock := make(map[ir.Instr]*ir.Block)
	defIndex := make(map[ir.Instr]int)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			defBlock[in] = b
			defIndex[in] = i
		}
	}
	for _, b := range f.Blocks {
		if !g.Reachable(b) {
			continue
		}
		for i, in := range b.Instrs {
			for _, op := range in.Operands() {
				def, ok := op.(ir.Instr)
				if !ok {
					continue // params, globals, constants
				}
				db, defined := defBlock[def]
				if !defined {
					return fmt.Errorf("analysis: %s.%s: use of value defined outside the function", f.Nam, b.Nam)
				}
				if db == b {
					if defIndex[def] >= i {
						return fmt.Errorf("analysis: %s.%s: %s used before its definition", f.Nam, b.Nam, def.Ident())
					}
					continue
				}
				if !dom.Dominates(db, b) {
					return fmt.Errorf("analysis: %s.%s: %s does not dominate its use", f.Nam, b.Nam, def.Ident())
				}
			}
		}
	}
	return nil
}

// VerifyModuleSSA runs VerifySSA over every defined function.
func VerifyModuleSSA(m *ir.Module) error {
	for _, f := range m.Funcs {
		if f.IsExtern() {
			continue
		}
		if err := VerifySSA(f); err != nil {
			return err
		}
	}
	return nil
}
