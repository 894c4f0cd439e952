// Package transform provides the standard cleanup passes the Native
// Offloader pipeline runs before partitioning: constant folding, dead code
// elimination, and branch simplification. They keep the generated
// offloading wrappers tight (the partitioner's gate diamonds and the
// outliner's stubs can leave behind trivially-foldable code) and give the
// profiler less noise to measure.
package transform

import (
	"math"

	"repro/internal/ir"
)

// Result summarizes what a pipeline run changed.
type Result struct {
	Folded        int // instructions replaced by constants
	Removed       int // dead instructions deleted
	BranchesFixed int // conditional branches with constant conditions
	BlocksRemoved int // unreachable blocks dropped
}

// Run applies all passes to every defined function until a fixed point.
func Run(m *ir.Module) Result {
	var total Result
	for _, f := range m.Funcs {
		if f.IsExtern() {
			continue
		}
		for {
			r := foldConstants(f)
			r.BranchesFixed = simplifyBranches(f)
			r.BlocksRemoved = removeUnreachable(f)
			r.Removed = eliminateDead(f)
			total.Folded += r.Folded
			total.Removed += r.Removed
			total.BranchesFixed += r.BranchesFixed
			total.BlocksRemoved += r.BlocksRemoved
			if r.Folded+r.Removed+r.BranchesFixed+r.BlocksRemoved == 0 {
				break
			}
		}
		f.Renumber()
	}
	return total
}

// foldConstants replaces Bin/Cmp/Convert instructions whose operands are
// constants with constant values.
func foldConstants(f *ir.Func) Result {
	var r Result
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			var folded ir.Value
			switch in := in.(type) {
			case *ir.Bin:
				folded = foldBin(in)
			case *ir.Cmp:
				folded = foldCmp(in)
			case *ir.Convert:
				folded = foldConvert(in)
			}
			if folded == nil {
				continue
			}
			replaceUses(f, in.(ir.Instr), folded)
			r.Folded++
		}
	}
	return r
}

func intConst(v ir.Value) (*ir.ConstInt, bool) {
	c, ok := v.(*ir.ConstInt)
	return c, ok
}

func floatConst(v ir.Value) (*ir.ConstFloat, bool) {
	c, ok := v.(*ir.ConstFloat)
	return c, ok
}

func foldBin(in *ir.Bin) ir.Value {
	if x, ok := intConst(in.X); ok {
		if y, ok := intConst(in.Y); ok {
			var v int64
			switch in.Op {
			case ir.Add:
				v = x.V + y.V
			case ir.Sub:
				v = x.V - y.V
			case ir.Mul:
				v = x.V * y.V
			case ir.Div:
				if y.V == 0 {
					return nil // preserve the runtime trap
				}
				v = x.V / y.V
			case ir.Rem:
				if y.V == 0 {
					return nil
				}
				v = x.V % y.V
			case ir.And:
				v = x.V & y.V
			case ir.Or:
				v = x.V | y.V
			case ir.Xor:
				v = x.V ^ y.V
			case ir.Shl:
				v = x.V << (uint64(y.V) & 63)
			case ir.Shr:
				v = x.V >> (uint64(y.V) & 63)
			}
			return &ir.ConstInt{Typ: x.Typ, V: v}
		}
	}
	if x, ok := floatConst(in.X); ok {
		if y, ok := floatConst(in.Y); ok {
			var v float64
			switch in.Op {
			case ir.Add:
				v = x.V + y.V
			case ir.Sub:
				v = x.V - y.V
			case ir.Mul:
				v = x.V * y.V
			case ir.Div:
				v = x.V / y.V
			default:
				return nil
			}
			return &ir.ConstFloat{Typ: x.Typ, V: v}
		}
	}
	return nil
}

func foldCmp(in *ir.Cmp) ir.Value {
	var lt, eq, known bool
	if x, ok := intConst(in.X); ok {
		if y, ok := intConst(in.Y); ok {
			lt, eq, known = x.V < y.V, x.V == y.V, true
		}
	}
	if x, ok := floatConst(in.X); ok {
		if y, ok := floatConst(in.Y); ok {
			lt, eq, known = x.V < y.V, x.V == y.V, true
		}
	}
	if !known {
		return nil
	}
	var res bool
	switch in.Pred {
	case ir.EQ:
		res = eq
	case ir.NE:
		res = !eq
	case ir.LT:
		res = lt
	case ir.LE:
		res = lt || eq
	case ir.GT:
		res = !lt && !eq
	case ir.GE:
		res = !lt
	}
	return ir.Bool(res)
}

func foldConvert(in *ir.Convert) ir.Value {
	switch in.Kind {
	case ir.ConvTrunc, ir.ConvZExt, ir.ConvSExt:
		c, ok := intConst(in.Val)
		if !ok {
			return nil
		}
		to, ok := in.To.(*ir.IntType)
		if !ok {
			return nil
		}
		v := c.V
		switch in.Kind {
		case ir.ConvTrunc:
			shift := uint(64 - min(to.Bits, 64))
			v = int64(uint64(v)<<shift) >> shift
		case ir.ConvZExt:
			shift := uint(64 - min(c.Typ.Bits, 64))
			v = int64(uint64(v) << shift >> shift)
		}
		return &ir.ConstInt{Typ: to, V: v}
	case ir.ConvIntToFP:
		c, ok := intConst(in.Val)
		if !ok {
			return nil
		}
		to, ok := in.To.(*ir.FloatType)
		if !ok {
			return nil
		}
		return &ir.ConstFloat{Typ: to, V: float64(c.V)}
	case ir.ConvFPToInt:
		c, ok := floatConst(in.Val)
		if !ok || math.IsNaN(c.V) || math.IsInf(c.V, 0) {
			return nil
		}
		to, ok := in.To.(*ir.IntType)
		if !ok {
			return nil
		}
		return &ir.ConstInt{Typ: to, V: int64(c.V)}
	}
	return nil
}

// simplifyBranches turns condbr-on-constant into br.
func simplifyBranches(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		term, ok := b.Terminator().(*ir.CondBr)
		if !ok {
			continue
		}
		c, ok := intConst(term.Cond)
		if !ok {
			continue
		}
		dst := term.Else
		if c.V != 0 {
			dst = term.Then
		}
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
		b.Append(&ir.Br{Dst: dst})
		n++
	}
	return n
}

// removeUnreachable drops blocks not reachable from the entry.
func removeUnreachable(f *ir.Func) int {
	reach := make(map[*ir.Block]bool)
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		if t := b.Terminator(); t != nil {
			for _, s := range ir.Successors(t) {
				visit(s)
			}
		}
	}
	visit(f.Entry())
	var kept []*ir.Block
	removed := 0
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	f.Blocks = kept
	return removed
}

// eliminateDead removes value-producing instructions with no uses and no
// side effects. Loads are kept: under copy-on-demand paging they are
// observable (they move pages), so deleting them would change the measured
// system.
func eliminateDead(f *ir.Func) int {
	used := make(map[ir.Value]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Operands() {
				used[op] = true
			}
		}
	}
	removed := 0
	for _, b := range f.Blocks {
		var kept []ir.Instr
		for _, in := range b.Instrs {
			if isPure(in) && !used[in] {
				removed++
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return removed
}

func isPure(in ir.Instr) bool {
	switch in.(type) {
	case *ir.Bin, *ir.Cmp, *ir.Convert, *ir.FieldAddr, *ir.IndexAddr, *ir.FuncAddr:
		return true
	}
	return false
}

// replaceUses substitutes new for old across the whole function.
func replaceUses(f *ir.Func, old ir.Instr, new ir.Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in != old {
				in.ReplaceOperand(old, new)
			}
		}
	}
}
