package interp

import "repro/internal/ir"

// Accessors only the package's own tests call.

// GlobalAddr returns the loaded address of g on this machine.
func (m *Machine) GlobalAddr(g *ir.Global) uint32 { return m.lay.globalAddr[g] }

// ModuleDigest is the compilation cache's content key for mod.
func ModuleDigest(mod *ir.Module) uint64 {
	d, _ := NewCompilationCache().moduleDigest(mod)
	return d
}
