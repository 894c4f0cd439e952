package analysis

import (
	"sort"

	"repro/internal/ir"
)

// CallGraph records, for each defined function, the functions it may call.
// Indirect calls are resolved conservatively to every address-taken function
// with a matching signature — the same conservatism that forces the paper's
// function-pointer mapping (Section 3.4): the compiler cannot know which
// callee a function pointer names, so it must keep all of them available.
type CallGraph struct {
	Module *ir.Module
	// Callees maps a function to its possible direct and indirect callees.
	Callees map[*ir.Func][]*ir.Func
	// AddressTaken lists functions whose address escapes into data or
	// registers (and which therefore need entries in the m2s/s2m maps).
	AddressTaken []*ir.Func
}

// BuildCallGraph analyzes every defined function in m.
func BuildCallGraph(m *ir.Module) *CallGraph {
	cg := &CallGraph{Module: m, Callees: make(map[*ir.Func][]*ir.Func)}

	taken := make(map[*ir.Func]bool)
	// Function addresses escape through FuncAddr instructions and global
	// initializers (function pointer tables like the chess example's
	// evals[7]).
	for _, g := range m.Globals {
		for _, v := range g.Init {
			if f, ok := v.(*ir.Func); ok {
				taken[f] = true
			}
		}
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if fa, ok := in.(*ir.FuncAddr); ok {
					taken[fa.Callee] = true
				}
			}
		}
	}
	for _, f := range m.Funcs {
		if taken[f] {
			cg.AddressTaken = append(cg.AddressTaken, f)
		}
	}

	for _, f := range m.Funcs {
		if f.IsExtern() {
			continue
		}
		seen := make(map[*ir.Func]bool)
		add := func(callee *ir.Func) {
			if !seen[callee] {
				seen[callee] = true
				cg.Callees[f] = append(cg.Callees[f], callee)
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in := in.(type) {
				case *ir.Call:
					add(in.Callee)
				case *ir.CallInd:
					for _, t := range cg.AddressTaken {
						if t.Sig.Equal(in.Sig) {
							add(t)
						}
					}
				}
			}
		}
		sort.Slice(cg.Callees[f], func(i, j int) bool {
			return cg.Callees[f][i].Nam < cg.Callees[f][j].Nam
		})
	}
	return cg
}

// Reachable returns the set of functions reachable from the given roots,
// including the roots themselves and conservative indirect callees.
func (cg *CallGraph) Reachable(roots ...*ir.Func) map[*ir.Func]bool {
	out := make(map[*ir.Func]bool)
	var visit func(f *ir.Func)
	visit = func(f *ir.Func) {
		if f == nil || out[f] {
			return
		}
		out[f] = true
		for _, c := range cg.Callees[f] {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return out
}
