package interp

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
)

// funcStride is the distance between two functions' addresses.
const funcStride = 16

// linkage is the address assignment one linker produced for one module:
// per-machine function addresses and loaded global addresses. Compile builds
// it once and it is read-only afterwards, so a Program hands the same linkage
// to every instance.
type linkage struct {
	// funcAddr assigns this linker's address to each function. Two
	// machines' linkers deliberately disagree. Its inverse is funcs, the
	// functions in address order: funcs[i] sits at funcBase + funcStride*i.
	funcAddr map[*ir.Func]uint32
	funcBase uint32
	funcs    []*ir.Func

	globalAddr map[*ir.Global]uint32
}

// index returns the position in funcs of the function at addr.
func (lay *linkage) index(addr uint32) (uint32, bool) {
	off := addr - lay.funcBase
	if off%funcStride != 0 || off/funcStride >= uint32(len(lay.funcs)) {
		return 0, false
	}
	return off / funcStride, true
}

// newLinkage links and places mod: function addresses from funcBase
// (name-sorted when shuffleFuncs, modelling a different linker), UVA-homed
// globals at their compiler-assigned addresses, machine-local globals laid
// out from mem.LocalBase (shuffled placement leaves a different gap and
// order). It assigns addresses only; writeGlobalInits writes the values.
func newLinkage(mod *ir.Module, std *arch.Spec, funcBase uint32, shuffleFuncs, shuffleGlobals bool) *linkage {
	lay := &linkage{
		funcAddr:   make(map[*ir.Func]uint32, len(mod.Funcs)),
		funcBase:   funcBase,
		funcs:      slices.Clone(mod.Funcs),
		globalAddr: make(map[*ir.Global]uint32, len(mod.Globals)),
	}
	funcs := lay.funcs
	if shuffleFuncs {
		sort.Slice(funcs, func(i, j int) bool { return funcs[i].Nam < funcs[j].Nam })
	}
	for i, f := range funcs {
		lay.funcAddr[f] = funcBase + funcStride*uint32(i)
	}

	locals := make([]*ir.Global, 0, len(mod.Globals))
	for _, g := range mod.Globals {
		if g.Home == ir.HomeMachine {
			locals = append(locals, g)
		} else {
			lay.globalAddr[g] = g.UVAAddr
		}
	}
	if shuffleGlobals {
		sort.Slice(locals, func(i, j int) bool { return locals[i].Nam < locals[j].Nam })
	}
	gaddr := mem.LocalBase
	if shuffleGlobals {
		// A different linker leaves a different gap before the data
		// segment, so even the first global lands elsewhere.
		gaddr += 0x40
	}
	for _, g := range locals {
		l := ir.LayoutOf(g.Elem, std)
		a := alignUp32(gaddr, uint32(max(l.Align, 1)))
		lay.globalAddr[g] = a
		gaddr = a + uint32(l.Size)
	}
	return lay
}

// writeGlobalInits writes global initial values into mm at the addresses
// lay assigned. UVA-homed globals are written only when initUVA (the mobile
// machine loads them; the server receives those pages via copy-on-demand).
func writeGlobalInits(mm *mem.Memory, mod *ir.Module, std *arch.Spec, lay *linkage, initUVA bool) error {
	for _, g := range mod.Globals {
		if g.Home == ir.HomeUVA && !initUVA {
			continue
		}
		if err := writeGlobalInit(mm, std, lay, g); err != nil {
			return err
		}
	}
	return nil
}

func writeGlobalInit(mm *mem.Memory, std *arch.Spec, lay *linkage, g *ir.Global) error {
	base := lay.globalAddr[g]
	if len(g.InitBytes) > 0 {
		return mm.WriteBytes(base, g.InitBytes)
	}
	if len(g.Init) == 0 {
		return nil // zero-initialized; pages fault in as zeroes
	}
	elem := g.Elem
	stride := 0
	if at, ok := g.Elem.(*ir.ArrayType); ok {
		elem = at.Elem
		stride = ir.Stride(elem, std)
	}
	for i, v := range g.Init {
		addr := base + uint32(i*stride)
		if err := writeScalarRaw(mm, std, addr, elem, lay.constBits(v)); err != nil {
			return err
		}
	}
	return nil
}

// writeScalarRaw is the loader-time scalar store: standard layout, no
// access-layout charges (loading is not simulated execution).
func writeScalarRaw(mm *mem.Memory, std *arch.Spec, addr uint32, elem ir.Type, bits uint64) error {
	size := std.Size(ir.ClassOf(elem))
	if size == 0 {
		return fmt.Errorf("interp: global init of unsupported type %s", elem)
	}
	return mm.WriteBytes(addr, scalarBytes(elem, bits, size, std.Endian))
}

// constBits evaluates a loader-time constant to its register representation.
func (lay *linkage) constBits(v ir.Value) uint64 {
	switch v := v.(type) {
	case *ir.ConstInt:
		return uint64(v.V)
	case *ir.ConstFloat:
		return floatBits(v.Typ, v.V)
	case *ir.ConstNull:
		return 0
	case *ir.ConstUVA:
		return uint64(v.Addr)
	case *ir.Func:
		return uint64(lay.funcAddr[v])
	case *ir.Global:
		return uint64(lay.globalAddr[v])
	}
	panic(fmt.Sprintf("interp: non-constant global initializer %T", v))
}
