package interp

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/simtime"
)

// tlbWays sizes the direct-mapped page caches; indexing by the low
// page-number bits spreads adjacent pages across distinct entries. The plain
// (local and offloaded) runs of one paper sweep miss 6.66 M times with 4
// entries, 2.64 M with 16, 1.25 M with 64 and 0.83 M with 256; nearly all of
// what is left at 64 is another page in the slot (streaming through an
// array), a few hundred are a stale generation. The two caches are 3 KiB of
// Machine that NewInstance zeroes.
const tlbWays = 64

// tlbEntry is one slot of the page cache: a page's resident data array and
// the tlbKey it was filled under.
type tlbEntry struct {
	data *[mem.PageSize]byte
	pn   uint32
	key  uint64
}

// tlbKey is what a page cache entry must carry to be valid: the memory's
// invalidation generation, shifted up to make room for its dirty tracking
// mode in bit 0. A write entry needs the mode — it keeps its page marked
// dirty — and a read entry takes it too, so one key serves both caches; the
// mode flips twice an offload, and a read entry it invalidates is refilled
// from the same resident page.
func tlbKey(mm *mem.Memory) uint64 {
	k := mm.Gen() << 1
	if mm.TrackDirty {
		k |= 1
	}
	return k
}

// callFast is CallFunc on the pre-decoded engine.
func (m *Machine) callFast(f *ir.Func, args []uint64) (uint64, error) {
	if f.IsExtern() {
		return m.callExtern(f, args)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp(%s): call %s with %d args, want %d", m.Name, f.Nam, len(args), len(f.Params))
	}
	cf := m.cc.cfuncs[f]
	regs := m.acquireFrame(cf)
	for i, p := range f.Params {
		regs[p.Slot] = args[i]
	}
	v, err := m.runCompiled(cf, regs)
	m.releaseFrame(cf, regs)
	return v, err
}

// callCompiled invokes a compiled callee from inside the fast loop,
// evaluating pre-decoded arguments directly into the callee's frame.
func (m *Machine) callCompiled(cf *cfunc, args []carg, caller []uint64) (uint64, error) {
	regs := m.acquireFrame(cf)
	for i := range args {
		regs[cf.fn.Params[i].Slot] = rv(caller, args[i].slot, args[i].imm)
	}
	v, err := m.runCompiled(cf, regs)
	m.releaseFrame(cf, regs)
	return v, err
}

// runCompiled is one activation of cf: the function-entry and function-exit
// join points around the hot loop. The exit hooks run on every way out —
// return, trap, exit() unwinding through this frame — as the reference
// engine's deferred ones do, and at the same clock: a Ret charges nothing
// and a failing instruction's segment is charged before it executes. A plain
// run pays one nil compare per hook at entry and one at exit, and nothing
// anywhere else.
func (m *Machine) runCompiled(cf *cfunc, regs []uint64) (uint64, error) {
	spSave := m.sp
	defer func() { m.sp = spSave }()
	if l := m.Listener; l != nil {
		l.EnterFunc(m, cf.fn)
	}
	if ps := m.sampler; ps != nil {
		ps.push(cf.fn.Nam, m.Clock)
	}
	v, err := m.execCompiled(cf, regs)
	if ps := m.sampler; ps != nil {
		ps.pop(m.Clock)
	}
	if l := m.Listener; l != nil {
		l.ExitFunc(m, cf.fn)
	}
	return v, err
}

// settle applies the compute cycles the fast engine has charged since the
// last settle (Machine.cycles) to the clock and the compute bucket, as the
// per-instruction charges of the reference engine would have by now:
// cycles*CostScale*CyclePS distributes over the sum of the segments' cycles
// (mod 2^64), so settling many segments at once lands on the same clock as
// settling each. It does not look at the sampler: with one attached every
// segment end reaches the stepper, which settles and ticks there
// (settleTick), and no other site has anything pending.
func (m *Machine) settle() {
	d := simtime.PS(m.cycles*m.CostScale) * simtime.PS(m.Spec.CyclePS)
	m.cycles = 0
	m.Clock += d
	m.Comp[CompCompute] += d
}

// settleTick is settle at a segment end: an attached sampler takes the tick
// the advanced clock has reached there, where per-segment charging would.
func (m *Machine) settleTick() {
	m.settle()
	if s := m.sampler; s != nil && m.Clock >= s.next {
		s.take(m.Clock)
	}
}

// storeLE is the little-endian scalar store of writeMem. size is 1, 2, 4 or
// 8 (a lowered scalar); the common ones are tested first.
func storeLE(b []byte, size int, v uint64) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 1:
		b[0] = byte(v)
	default:
		binary.LittleEndian.PutUint16(b, uint16(v))
	}
}

// rv reads operand (slot, imm): a register when slot >= 0, else the
// inlined constant.
func rv(regs []uint64, slot int32, imm uint64) uint64 {
	if slot >= 0 {
		return regs[slot]
	}
	return imm
}

func cmpBits(pred int32, lt, eq bool) uint64 {
	var r bool
	switch ir.CmpPred(pred) {
	case ir.EQ:
		r = eq
	case ir.NE:
		r = !eq
	case ir.LT:
		r = lt
	case ir.LE:
		r = lt || eq
	case ir.GT:
		r = !lt && !eq
	case ir.GE:
		r = !lt
	}
	if r {
		return 1
	}
	return 0
}

// The halves of the opcodes the hot loop and the stepper share. Each is
// small enough to inline, so the hot loop stays call-free.

// loadedInt is the register form of what a cLoad read: raw holds the
// access's bytes in its low end, and whatever follows them above. A signed
// integer's sign bit (aux) is extended by flipping it and subtracting it.
func loadedInt(in *cinstr, raw uint64) uint64 {
	sign := uint64(uint32(in.aux))
	return (raw&in.imm2 ^ sign) - sign
}

// loadedF32 is the register form (f64) of the f32 in raw's low four bytes.
func loadedF32(raw uint64) uint64 {
	return math.Float64bits(float64(math.Float32frombits(uint32(raw))))
}

// f32Bits is the memory form of an f32 register value (held as f64).
func f32Bits(v uint64) uint64 {
	return uint64(math.Float32bits(float32(math.Float64frombits(v))))
}

// remPow2 is x % ±(mask+1) for a power-of-two divisor: the low bits, and
// for a negative dividend with a non-zero remainder the high bits set as
// well, which subtracts mask+1 — Go's % takes the dividend's sign.
func remPow2(x, mask uint64) uint64 {
	r := x & mask
	if int64(x) < 0 && r != 0 {
		r |= ^mask
	}
	return r
}

// readMem is the aligned scalar read of the stepper: it fills the read page
// cache entry on a miss — a Touch observer hears of the page then (Page
// reports it) and not on a hit; it calls Memory.Invalidate to be told again
// — and reads through it. Accesses that straddle a page fall back to the
// allocating slow path with identical semantics.
func (m *Machine) readMem(addr uint32, size int) (uint64, error) {
	mm := m.Mem
	off := addr & (mem.PageSize - 1)
	if int(off)+size <= mem.PageSize {
		pn := addr >> mem.PageShift
		e := &m.rtlb[pn&(tlbWays-1)]
		if key := tlbKey(mm); e.data == nil || e.pn != pn || e.key != key {
			data, err := mm.Page(pn)
			if err != nil {
				return 0, err
			}
			e.data, e.pn, e.key = data, pn, tlbKey(mm)
		}
		b := e.data[off:]
		switch size {
		case 1:
			return uint64(b[0]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(b)), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(b)), nil
		default:
			return binary.LittleEndian.Uint64(b), nil
		}
	}
	return mm.ReadUint(addr, size)
}

// writeMem is the store counterpart of readMem. The write page cache entry
// keeps the page pre-marked dirty, so the hot loop's stores touch only the
// array.
func (m *Machine) writeMem(addr uint32, size int, v uint64) error {
	mm := m.Mem
	off := addr & (mem.PageSize - 1)
	if int(off)+size <= mem.PageSize {
		pn := addr >> mem.PageShift
		e := &m.wtlb[pn&(tlbWays-1)]
		if key := tlbKey(mm); e.data == nil || e.pn != pn || e.key != key {
			data, err := mm.DirtyPage(pn)
			if err != nil {
				return err
			}
			e.data, e.pn, e.key = data, pn, tlbKey(mm)
		}
		storeLE(e.data[off:], size, v)
		return nil
	}
	return mm.WriteUint(addr, size, v)
}

// execCompiled runs one activation of cf on the fast engine. It is the
// stepper around the hot loop: hotLoop runs until it reaches an instruction
// it cannot finish without a call, execCompiled executes that one
// instruction and resumes the hot loop behind it, until it executes the
// activation's return or a trap. The stepper owns the half of every opcode
// that calls: page-cache misses and page-straddling accesses, slow loads and
// stores, calls and returns, traps, alloca, division by zero, the Listener's
// block hook, and — with a sampler attached — every segment end.
//
// A segment's charge (cinstr.steps/cycles) is added by the opcode that ends
// it — the ones compileInto flushes on: memory accesses, calls, alloca,
// integer divides, traps and terminators — so a pure register instruction
// does no charge work at all. The hot loop adds each segment's steps to
// Steps and its cycles to Machine.cycles as it completes it; the stepper
// adds the charge of the instruction it executes and settles the cycles into
// Clock and the compute bucket before anything that can read them: every
// call, Listener hook, page-cache miss (on its way to the mem.Fault handler
// or a Touch observer) and trap is here, so outside the hot loop nothing is
// ever pending. With a sampler attached (looked at
// once per activation: attach it between top-level calls) the hot loop
// leaves every segment end to the stepper, which ticks there, so the
// sampler sees exactly the instants of per-segment charging.
func (m *Machine) execCompiled(cf *cfunc, regs []uint64) (uint64, error) {
	code := cf.code
	sampled := m.sampler != nil
	var pc int32
	for {
		pc = m.hotLoop(code, regs, pc, sampled)
		in := &code[pc-1]
		if in.op == cEnterBlock {
			m.settle()
			if l := m.Listener; l != nil {
				l.EnterBlock(m, cf.fn, cf.fn.Blocks[in.aux])
			}
			continue
		}
		// Every other opcode the hot loop leaves here ends a segment.
		m.Steps += int64(in.steps)
		m.cycles += in.cycles
		m.settleTick()
		switch in.op {
		case cDiv, cRem:
			x, y := int64(rv(regs, in.a, in.imm)), int64(rv(regs, in.b, in.imm2))
			switch {
			case y == 0:
				return 0, cf.traps[in.aux]
			case in.op == cDiv:
				regs[in.c] = uint64(x / y)
			default:
				regs[in.c] = uint64(x % y)
			}
		case cRemPow2:
			regs[in.c] = remPow2(rv(regs, in.a, in.imm), in.imm2)

		case cAlloca:
			size := uint32(in.imm)
			if m.sp < m.spFloor+size {
				return 0, cf.traps[in.aux]
			}
			m.sp -= size
			regs[in.c] = uint64(m.sp)

		case cLoad:
			raw, err := m.readMem(uint32(rv(regs, in.a, in.imm)), int(in.b))
			if err != nil {
				return 0, err
			}
			regs[in.c] = loadedInt(in, raw)
		case cLoadF32:
			raw, err := m.readMem(uint32(rv(regs, in.a, in.imm)), int(in.b))
			if err != nil {
				return 0, err
			}
			regs[in.c] = loadedF32(raw)
		case cLoadSlow:
			ld := cf.refs[in.aux].(*ir.Load)
			bits, err := m.loadScalarNoCharge(uint32(rv(regs, in.a, in.imm)), ld.Elem, ld.Lay)
			if err != nil {
				return 0, err
			}
			regs[in.c] = bits

		case cStoreInt, cStoreF32, cStoreIntBr:
			// The branch behind a cStoreIntBr is the hot loop's next
			// instruction.
			v := rv(regs, in.b, in.imm2)
			if in.op == cStoreF32 {
				v = f32Bits(v)
			}
			if err := m.writeMem(uint32(rv(regs, in.a, in.imm)), int(in.aux), v); err != nil {
				return 0, err
			}
		case cStoreSlow:
			st := cf.refs[in.aux].(*ir.Store)
			if err := m.storeScalarNoCharge(uint32(rv(regs, in.a, in.imm)), st.Val.Type(), st.Lay, rv(regs, in.b, in.imm2)); err != nil {
				return 0, err
			}

		case cCall:
			call := &cf.calls[in.aux]
			var v uint64
			var err error
			if call.ctarget != nil {
				v, err = m.callCompiled(call.ctarget, call.args, regs)
			} else {
				v, err = m.callExtern(call.callee, externArgs(call.args, regs))
			}
			if err != nil {
				return 0, err
			}
			if in.c >= 0 {
				regs[in.c] = v
			}

		case cCallInd:
			if in.b != 0 {
				// Function pointer translation (Section 3.4); its cost is
				// the Fig. 7 "fptr" component.
				d := simtime.PS(m.Spec.Cost.Cycles(arch.OpFptrMap)*m.CostScale) * simtime.PS(m.Spec.CyclePS)
				m.Clock += d
				m.Comp[CompFptr] += d
				if s := m.sampler; s != nil && m.Clock >= s.next {
					s.take(m.Clock)
				}
			}
			addr := uint32(rv(regs, in.a, in.imm))
			callee, rerr := m.ResolveFptr(addr, in.b != 0)
			if rerr != nil {
				return 0, rerr
			}
			args := cf.calls[in.aux].args
			var v uint64
			var err error
			if callee.IsExtern() {
				v, err = m.callExtern(callee, externArgs(args, regs))
			} else {
				if len(args) != len(callee.Params) {
					return 0, fmt.Errorf("interp(%s): call %s with %d args, want %d",
						m.Name, callee.Nam, len(args), len(callee.Params))
				}
				target := m.cc.cfuncs[callee]
				if target == nil {
					return 0, foreignFunc(m.Name, callee)
				}
				v, err = m.callCompiled(target, args, regs)
			}
			if err != nil {
				return 0, err
			}
			if in.c >= 0 {
				regs[in.c] = v
			}

		case cBr:
			pc = in.a
		case cCondBr:
			pc = in.target(rv(regs, in.a, in.imm))
		case cRet:
			if in.aux != 0 {
				return rv(regs, in.a, in.imm), nil
			}
			return 0, nil
		case cTrap:
			return 0, cf.traps[in.aux]

		default:
			return 0, fmt.Errorf("interp(%s): invalid compiled opcode %d in %s", m.Name, in.op, cf.fn.Nam)
		}
	}
}

// hotLoop executes code from pc up to the first instruction it leaves to
// the stepper and returns the pc behind that instruction. The segments it
// completes on the way add their steps to Steps and their cycles to
// Machine.cycles, for the stepper to settle. It owns the half of every
// opcode that needs no call: arithmetic, compares, branches, conversions,
// address arithmetic, and loads and stores that hit the page caches at a
// page offset of at most PageSize-8.
//
// Nothing in it may call a function — TestHotLoopIsCallFree holds it to
// that — because Go's calling convention keeps no register across a call:
// one call anywhere in the loop makes the compiler keep pc, code, regs and
// the rest on the stack and reload them around every dispatch. Helpers it
// uses must inline. For the same reason it keeps few values live across the
// dispatch: the charges go straight to the machine, and the page caches'
// validity is one key (tlbKey) read once here — only the stepper can change
// it. Each arm serves one opcode and tests it only through the switch:
// merging each family of arms (loads, stores, fused compares) into one that
// tests in.op again ran the plain sweep programs 3–4 % slower.
//
// A fused opcode (cCmpSBr, cCmpUBr, cStoreIntBr) does its own work and then
// that of the branch compileInto left behind it at code[pc], the branch's
// segment charge included: one dispatch for two instructions. Where the
// branch, or the store before it, must go to the stepper, the branch is
// dispatched on its own.
func (m *Machine) hotLoop(code []cinstr, regs []uint64, pc int32, sampled bool) int32 {
	key := tlbKey(m.Mem)
	for {
		in := &code[pc]
		pc++
		switch in.op {
		case cAdd:
			regs[in.c] = rv(regs, in.a, in.imm) + rv(regs, in.b, in.imm2)
		case cSub:
			regs[in.c] = rv(regs, in.a, in.imm) - rv(regs, in.b, in.imm2)
		case cMul:
			regs[in.c] = rv(regs, in.a, in.imm) * rv(regs, in.b, in.imm2)
		case cDiv:
			y := int64(rv(regs, in.b, in.imm2))
			if sampled || y == 0 {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			regs[in.c] = uint64(int64(rv(regs, in.a, in.imm)) / y)
		case cRem:
			y := int64(rv(regs, in.b, in.imm2))
			if sampled || y == 0 {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			regs[in.c] = uint64(int64(rv(regs, in.a, in.imm)) % y)
		case cRemPow2:
			if sampled {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			regs[in.c] = remPow2(rv(regs, in.a, in.imm), in.imm2)
		case cAnd:
			regs[in.c] = rv(regs, in.a, in.imm) & rv(regs, in.b, in.imm2)
		case cOr:
			regs[in.c] = rv(regs, in.a, in.imm) | rv(regs, in.b, in.imm2)
		case cXor:
			regs[in.c] = rv(regs, in.a, in.imm) ^ rv(regs, in.b, in.imm2)
		case cShl:
			regs[in.c] = rv(regs, in.a, in.imm) << (rv(regs, in.b, in.imm2) & 63)
		case cShr:
			regs[in.c] = uint64(int64(rv(regs, in.a, in.imm)) >> (rv(regs, in.b, in.imm2) & 63))

		case cFAdd:
			regs[in.c] = math.Float64bits(math.Float64frombits(rv(regs, in.a, in.imm)) + math.Float64frombits(rv(regs, in.b, in.imm2)))
		case cFSub:
			regs[in.c] = math.Float64bits(math.Float64frombits(rv(regs, in.a, in.imm)) - math.Float64frombits(rv(regs, in.b, in.imm2)))
		case cFMul:
			regs[in.c] = math.Float64bits(math.Float64frombits(rv(regs, in.a, in.imm)) * math.Float64frombits(rv(regs, in.b, in.imm2)))
		case cFDiv:
			regs[in.c] = math.Float64bits(math.Float64frombits(rv(regs, in.a, in.imm)) / math.Float64frombits(rv(regs, in.b, in.imm2)))

		case cCmpS:
			x, y := rv(regs, in.a, in.imm), rv(regs, in.b, in.imm2)
			regs[in.c] = cmpBits(in.aux, int64(x) < int64(y), x == y)
		case cCmpU:
			x, y := rv(regs, in.a, in.imm), rv(regs, in.b, in.imm2)
			regs[in.c] = cmpBits(in.aux, x < y, x == y)
		case cCmpF:
			fx := math.Float64frombits(rv(regs, in.a, in.imm))
			fy := math.Float64frombits(rv(regs, in.b, in.imm2))
			regs[in.c] = cmpBits(in.aux, fx < fy, fx == fy)

		case cCmpSBr:
			x, y := rv(regs, in.a, in.imm), rv(regs, in.b, in.imm2)
			cond := cmpBits(in.aux, int64(x) < int64(y), x == y)
			regs[in.c] = cond
			if !sampled {
				br := &code[pc]
				m.Steps += int64(br.steps)
				m.cycles += br.cycles
				pc = br.target(cond)
			}
		case cCmpUBr:
			x, y := rv(regs, in.a, in.imm), rv(regs, in.b, in.imm2)
			cond := cmpBits(in.aux, x < y, x == y)
			regs[in.c] = cond
			if !sampled {
				br := &code[pc]
				m.Steps += int64(br.steps)
				m.cycles += br.cycles
				pc = br.target(cond)
			}

		case cIndexAddr:
			base := rv(regs, in.a, in.imm)
			idx := int64(rv(regs, in.b, in.imm2))
			regs[in.c] = uint64(int64(base) + idx*int64(in.aux))

		case cMov:
			regs[in.c] = rv(regs, in.a, in.imm)
		case cTrunc:
			regs[in.c] = signExtend(rv(regs, in.a, in.imm), int(in.aux))
		case cZExt:
			regs[in.c] = rv(regs, in.a, in.imm) & in.imm2
		case cIntToFP:
			regs[in.c] = math.Float64bits(float64(int64(rv(regs, in.a, in.imm))))
		case cFPToInt:
			f := math.Float64frombits(rv(regs, in.a, in.imm))
			regs[in.c] = signExtend(uint64(int64(f)), int(in.aux))
		case cFPTrunc:
			regs[in.c] = math.Float64bits(float64(float32(math.Float64frombits(rv(regs, in.a, in.imm)))))

		case cLoad:
			p, off := cached(&m.rtlb, uint32(rv(regs, in.a, in.imm)), key)
			if sampled || p == nil {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			regs[in.c] = loadedInt(in, binary.LittleEndian.Uint64(p[off:]))
		case cLoadF32:
			p, off := cached(&m.rtlb, uint32(rv(regs, in.a, in.imm)), key)
			if sampled || p == nil {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			regs[in.c] = loadedF32(binary.LittleEndian.Uint64(p[off:]))

		case cStoreInt:
			p, off := cached(&m.wtlb, uint32(rv(regs, in.a, in.imm)), key)
			if sampled || p == nil {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			storeHit(p[off:], in.aux, rv(regs, in.b, in.imm2))
		case cStoreF32:
			p, off := cached(&m.wtlb, uint32(rv(regs, in.a, in.imm)), key)
			if sampled || p == nil {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			storeHit(p[off:], in.aux, f32Bits(rv(regs, in.b, in.imm2)))
		case cStoreIntBr:
			p, off := cached(&m.wtlb, uint32(rv(regs, in.a, in.imm)), key)
			if sampled || p == nil {
				return pc
			}
			storeHit(p[off:], in.aux, rv(regs, in.b, in.imm2))
			br := &code[pc]
			m.Steps += int64(in.steps) + int64(br.steps)
			m.cycles += in.cycles + br.cycles
			pc = br.a

		case cBr:
			if sampled {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			pc = in.a
		case cCondBr:
			if sampled {
				return pc
			}
			m.Steps += int64(in.steps)
			m.cycles += in.cycles
			pc = in.target(rv(regs, in.a, in.imm))

		default:
			return pc
		}
	}
}

// target is a cCondBr's successor pc when its condition is cond.
func (in *cinstr) target(cond uint64) int32 {
	if cond != 0 {
		return in.b
	}
	return in.c
}

// cached returns the array tlb caches for the page of addr and addr's offset
// in it, when the entry is valid under key and eight bytes from addr stay
// inside the page; nil otherwise. A flushed entry matches page 0 under key
// 0 but has no data.
func cached(tlb *[tlbWays]tlbEntry, addr uint32, key uint64) (*[mem.PageSize]byte, uint32) {
	pn, off := addr>>mem.PageShift, addr&(mem.PageSize-1)
	e := &tlb[pn&(tlbWays-1)]
	if off > mem.PageSize-8 || e.pn != pn || e.key != key {
		return nil, 0
	}
	return e.data, off
}

// storeHit is the hot loop's one store shape for every width: it rewrites
// the eight bytes at b, the low size of them from v and the rest as they
// were.
func storeHit(b []byte, size int32, v uint64) {
	mask := ^uint64(0) >> ((64 - 8*uint(size)) & 63)
	binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)&^mask|v&mask)
}

// externArgs evaluates a call site's pre-decoded arguments for an extern,
// which takes them as a slice.
func externArgs(args []carg, regs []uint64) []uint64 {
	ea := make([]uint64, len(args))
	for i := range args {
		ea[i] = rv(regs, args[i].slot, args[i].imm)
	}
	return ea
}
