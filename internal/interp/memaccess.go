package interp

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
)

// chargeLayout charges the translation code the compiler inserted around
// one access (Section 3.2): the byte swap when the executing machine's byte
// order differs from the standard (mobile) order in which memory always
// holds bytes, and the address-size conversion of a pointer stored at the
// unified (mobile) width. The reference engine charges it per access; the
// fast engine folds it into its segments at compile time.
func (m *Machine) chargeLayout(lay ir.MemLayout) {
	if lay.Swap {
		m.charge(arch.OpEndianSwap, 1, CompCompute)
	}
	if lay.Widen {
		m.charge(arch.OpPtrConvert, 1, CompCompute)
	}
}

// loadScalar reads one scalar at addr following the access layout resolved
// by ir.Lower. It charges nothing (chargeLayout).
func (m *Machine) loadScalar(addr uint32, elem ir.Type, lay ir.MemLayout) (uint64, error) {
	if lay.Size == 0 {
		return 0, fmt.Errorf("interp(%s): unlowered memory access (run ir.Lower)", m.Name)
	}
	b, err := m.Mem.ReadBytes(addr, lay.Size)
	if err != nil {
		return 0, err
	}
	raw := assemble(b, m.Std.Endian)
	switch t := elem.(type) {
	case *ir.IntType:
		return signExtend(raw, min(t.Bits, lay.Size*8)), nil
	case *ir.PointerType:
		return raw, nil // addresses zero-extend
	case *ir.FloatType:
		if t.Bits == 32 {
			return math.Float64bits(float64(math.Float32frombits(uint32(raw)))), nil
		}
		return raw, nil
	}
	return 0, fmt.Errorf("interp(%s): load of unsupported type %s", m.Name, elem)
}

// storeScalar writes one scalar at addr following the access layout. It
// charges nothing (chargeLayout).
func (m *Machine) storeScalar(addr uint32, elem ir.Type, lay ir.MemLayout, bits uint64) error {
	if lay.Size == 0 {
		return fmt.Errorf("interp(%s): unlowered memory access (run ir.Lower)", m.Name)
	}
	return m.Mem.WriteBytes(addr, scalarBytes(elem, bits, lay.Size, m.Std.Endian))
}

// writeScalar is the standard-layout store without access-layout metadata
// (scanf destinations).
func (m *Machine) writeScalar(addr uint32, elem ir.Type, bits uint64) error {
	lay := ir.MemLayout{Size: m.Std.Size(ir.ClassOf(elem)), Class: ir.ClassOf(elem)}
	return m.storeScalar(addr, elem, lay, bits)
}

// scalarBytes is the memory form of a register value: size bytes in order,
// an f32 narrowed from the f64 its register holds first. Every scalar store
// encodes through it except the fast engine's little-endian stores
// (writeMem).
func scalarBytes(elem ir.Type, bits uint64, size int, order arch.Endianness) []byte {
	if ft, ok := elem.(*ir.FloatType); ok && ft.Bits == 32 {
		bits = f32Bits(bits)
	}
	return disassemble(bits, size, order)
}

func assemble(b []byte, order arch.Endianness) uint64 {
	var v uint64
	if order == arch.Little {
		for i := len(b) - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	} else {
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
	}
	return v
}

func disassemble(v uint64, size int, order arch.Endianness) []byte {
	b := make([]byte, size)
	if order == arch.Little {
		for i := 0; i < size; i++ {
			b[i] = byte(v >> (8 * i))
		}
	} else {
		for i := 0; i < size; i++ {
			b[size-1-i] = byte(v >> (8 * i))
		}
	}
	return b
}

// readCString reads a NUL-terminated string from memory (printf formats and
// %s arguments), scanning one resident page at a time rather than paying a
// one-byte ReadBytes allocation per character.
func (m *Machine) readCString(addr uint32) (string, error) {
	var out []byte
	for {
		pg, err := m.Mem.Page(mem.PageNum(addr))
		if err != nil {
			return "", err
		}
		off := int(addr & (mem.PageSize - 1))
		chunk := pg[off:]
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			return string(append(out, chunk[:i]...)), nil
		}
		out = append(out, chunk...)
		addr += uint32(len(chunk))
		if len(out) > 1<<16 {
			return "", fmt.Errorf("interp(%s): unterminated string at 0x%x", m.Name, addr)
		}
	}
}
