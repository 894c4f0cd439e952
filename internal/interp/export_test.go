package interp

import "repro/internal/ir"

// Accessors only the package's own tests call.

// GlobalAddr returns the loaded address of g on this machine.
func (m *Machine) GlobalAddr(g *ir.Global) uint32 { return m.lay.globalAddr[g] }
