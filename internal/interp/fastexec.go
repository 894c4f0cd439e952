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
// array), a few hundred are a stale generation. The two caches are 4 KiB of
// Machine that NewInstance zeroes.
const tlbWays = 64

// tlbEntry is one slot of the page cache: a page's resident data array,
// revalidated against the memory's invalidation generation on every access.
// Write entries additionally pin the TrackDirty mode under which the page
// was marked dirty.
type tlbEntry struct {
	data  *[mem.PageSize]byte
	pn    uint32
	gen   uint64
	track bool
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

// settle applies the charge the fast loop has accumulated since the last
// settle — steps IR instructions, cycles of compute — to the machine, as the
// per-instruction charges of the reference engine would have by now:
// cycles*CostScale*CyclePS distributes over the sum of the segments' cycles
// (mod 2^64), so settling many segments at once lands on the same clock as
// settling each. It does not look at the sampler: with one attached the loop
// settles — and ticks — at every segment end (settleTick), and no other site
// has anything pending.
func (m *Machine) settle(steps, cycles int64) {
	m.Steps += steps
	d := simtime.PS(cycles*m.CostScale) * simtime.PS(m.Spec.CyclePS)
	m.Clock += d
	m.Comp[CompCompute] += d
}

// settleTick is settle at a segment end: an attached sampler takes the tick
// the advanced clock has reached there, where per-segment charging would.
func (m *Machine) settleTick(steps, cycles int64) {
	m.settle(steps, cycles)
	if s := m.sampler; s != nil && m.Clock >= s.next {
		s.take(m.Clock)
	}
}

// rhit and whit report whether the cached entry serves an access to page pn
// without the machine's help: readMem and writeMem stay the only miss path
// and the only place an entry is filled. A flushed entry matches page 0 at
// generation 0 but has no data.
func (e *tlbEntry) rhit(pn uint32, mm *mem.Memory) bool {
	return e.pn == pn && e.gen == mm.Gen() && e.data != nil
}

func (e *tlbEntry) whit(pn uint32, mm *mem.Memory) bool {
	return e.pn == pn && e.gen == mm.Gen() && e.track == mm.TrackDirty && e.data != nil
}

// storeLE is the little-endian scalar store of both the in-loop hit path and
// writeMem. size is 1, 2, 4 or 8 (a lowered scalar); the common ones are
// tested first.
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

// readMem is the aligned scalar read fast path: a TLB hit indexes the
// resident page array without allocating. A Touch observer hears of the page
// when the entry is filled (Page reports it) and not on a hit; it calls
// Memory.Invalidate to be told again. Accesses that straddle a page fall back
// to the allocating slow path with identical semantics.
func (m *Machine) readMem(addr uint32, size int) (uint64, error) {
	mm := m.Mem
	off := addr & (mem.PageSize - 1)
	if int(off)+size <= mem.PageSize {
		pn := addr >> mem.PageShift
		e := &m.rtlb[pn&(tlbWays-1)]
		if e.data == nil || e.pn != pn || e.gen != mm.Gen() {
			data, err := mm.Page(pn)
			if err != nil {
				return 0, err
			}
			e.data, e.pn, e.gen = data, pn, mm.Gen()
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

// writeMem is the store counterpart of readMem. The write TLB entry keeps
// the page pre-marked dirty, so steady-state stores touch only the array.
func (m *Machine) writeMem(addr uint32, size int, v uint64) error {
	mm := m.Mem
	off := addr & (mem.PageSize - 1)
	if int(off)+size <= mem.PageSize {
		pn := addr >> mem.PageShift
		e := &m.wtlb[pn&(tlbWays-1)]
		if e.data == nil || e.pn != pn || e.gen != mm.Gen() || e.track != mm.TrackDirty {
			data, err := mm.DirtyPage(pn)
			if err != nil {
				return err
			}
			e.data, e.pn, e.gen, e.track = data, pn, mm.Gen(), mm.TrackDirty
		}
		storeLE(e.data[off:], size, v)
		return nil
	}
	return mm.WriteUint(addr, size, v)
}

// execCompiled is the fast engine's hot loop: a switch over the small
// pre-decoded opcode enum. A segment's charge (cinstr.steps/cycles) is added
// by the opcode that ends it — the ones compileInto flushes on: memory
// accesses, calls, alloca, integer divides, traps and terminators — so a pure
// register instruction does no charge work at all. Charges accumulate in two
// locals and are settled into the Machine only ahead of something that can
// read its Clock, Steps or Comp: a call (compiled, extern or indirect), a
// Listener hook, every way out of the loop, and a memory access that leaves
// the loop — a TLB miss or page-straddling access can reach the mem.Fault
// handler or a Touch observer, a slow-path access always goes through Memory.
//
// A fused opcode (cCmpSBr, cCmpUBr, cStoreIntBr) does its own work and then
// that of the branch compileInto left behind it at code[pc], the branch's
// segment charge included: one dispatch for two instructions, each charged
// and — with a sampler — ticked where it would have been.
//
// With a sampler attached every segment end settles and takes the sampler's
// tick — ticks belong where the clock advances — so the sampler sees exactly
// the instants of per-segment charging. It is looked at once per activation:
// attach it between top-level calls.
func (m *Machine) execCompiled(cf *cfunc, regs []uint64) (uint64, error) {
	code := cf.code
	mm := m.Mem
	sampled := m.sampler != nil
	var pendSteps, pendCycles int64
	pc := int32(0)
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
			pendSteps += int64(in.steps)
			pendCycles += in.cycles
			if sampled {
				m.settleTick(pendSteps, pendCycles)
				pendSteps, pendCycles = 0, 0
			}
			y := int64(rv(regs, in.b, in.imm2))
			if y == 0 {
				m.settle(pendSteps, pendCycles)
				return 0, cf.traps[in.aux]
			}
			regs[in.c] = uint64(int64(rv(regs, in.a, in.imm)) / y)
		case cRem:
			pendSteps += int64(in.steps)
			pendCycles += in.cycles
			if sampled {
				m.settleTick(pendSteps, pendCycles)
				pendSteps, pendCycles = 0, 0
			}
			y := int64(rv(regs, in.b, in.imm2))
			if y == 0 {
				m.settle(pendSteps, pendCycles)
				return 0, cf.traps[in.aux]
			}
			regs[in.c] = uint64(int64(rv(regs, in.a, in.imm)) % y)
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

		case cCmpSBr, cCmpUBr:
			x, y := rv(regs, in.a, in.imm), rv(regs, in.b, in.imm2)
			lt := x < y
			if in.op == cCmpSBr {
				lt = int64(x) < int64(y)
			}
			cond := cmpBits(in.aux, lt, x == y)
			regs[in.c] = cond
			br := &code[pc]
			pendSteps += int64(br.steps)
			pendCycles += br.cycles
			if sampled {
				m.settleTick(pendSteps, pendCycles)
				pendSteps, pendCycles = 0, 0
			}
			if cond != 0 {
				pc = br.b
			} else {
				pc = br.c
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

		case cAlloca:
			pendSteps += int64(in.steps)
			pendCycles += in.cycles
			if sampled {
				m.settleTick(pendSteps, pendCycles)
				pendSteps, pendCycles = 0, 0
			}
			size := uint32(in.imm)
			if m.sp < m.spFloor+size {
				m.settle(pendSteps, pendCycles)
				return 0, cf.traps[in.aux]
			}
			m.sp -= size
			regs[in.c] = uint64(m.sp)

		case cLoad, cLoadF32:
			pendSteps += int64(in.steps)
			pendCycles += in.cycles
			addr := uint32(rv(regs, in.a, in.imm))
			pn, off := addr>>mem.PageShift, addr&(mem.PageSize-1)
			var raw uint64
			if e := &m.rtlb[pn&(tlbWays-1)]; !sampled && off <= mem.PageSize-8 && e.rhit(pn, mm) {
				// Eight bytes from here stay inside the page whatever the
				// access size: read them all and keep the low ones.
				raw = binary.LittleEndian.Uint64(e.data[off:]) & in.imm2
			} else {
				m.settleTick(pendSteps, pendCycles)
				pendSteps, pendCycles = 0, 0
				var err error
				if raw, err = m.readMem(addr, int(in.b)); err != nil {
					return 0, err
				}
			}
			if in.op == cLoadF32 {
				raw = math.Float64bits(float64(math.Float32frombits(uint32(raw))))
			} else {
				raw = uint64(int64(raw<<(in.aux&63)) >> (in.aux & 63))
			}
			regs[in.c] = raw
		case cLoadSlow:
			m.settleTick(pendSteps+int64(in.steps), pendCycles+in.cycles)
			pendSteps, pendCycles = 0, 0
			ld := cf.refs[in.aux].(*ir.Load)
			bits, err := m.loadScalarNoCharge(uint32(rv(regs, in.a, in.imm)), ld.Elem, ld.Lay)
			if err != nil {
				return 0, err
			}
			regs[in.c] = bits

		case cStoreInt, cStoreF32, cStoreIntBr:
			pendSteps += int64(in.steps)
			pendCycles += in.cycles
			v := rv(regs, in.b, in.imm2)
			if in.op == cStoreF32 {
				v = uint64(math.Float32bits(float32(math.Float64frombits(v))))
			}
			addr := uint32(rv(regs, in.a, in.imm))
			pn, off := addr>>mem.PageShift, addr&(mem.PageSize-1)
			if e := &m.wtlb[pn&(tlbWays-1)]; !sampled && int(off)+int(in.aux) <= mem.PageSize && e.whit(pn, mm) {
				storeLE(e.data[off:], int(in.aux), v)
			} else {
				m.settleTick(pendSteps, pendCycles)
				pendSteps, pendCycles = 0, 0
				if err := m.writeMem(addr, int(in.aux), v); err != nil {
					return 0, err
				}
			}
			if in.op == cStoreIntBr {
				br := &code[pc]
				pendSteps += int64(br.steps)
				pendCycles += br.cycles
				if sampled {
					m.settleTick(pendSteps, pendCycles)
					pendSteps, pendCycles = 0, 0
				}
				pc = br.a
			}
		case cStoreSlow:
			m.settleTick(pendSteps+int64(in.steps), pendCycles+in.cycles)
			pendSteps, pendCycles = 0, 0
			st := cf.refs[in.aux].(*ir.Store)
			if err := m.storeScalarNoCharge(uint32(rv(regs, in.a, in.imm)), st.Val.Type(), st.Lay, rv(regs, in.b, in.imm2)); err != nil {
				return 0, err
			}

		case cCall:
			m.settleTick(pendSteps+int64(in.steps), pendCycles+in.cycles)
			pendSteps, pendCycles = 0, 0
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
			m.settleTick(pendSteps+int64(in.steps), pendCycles+in.cycles)
			pendSteps, pendCycles = 0, 0
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
			pendSteps += int64(in.steps)
			pendCycles += in.cycles
			if sampled {
				m.settleTick(pendSteps, pendCycles)
				pendSteps, pendCycles = 0, 0
			}
			pc = in.a
		case cCondBr:
			pendSteps += int64(in.steps)
			pendCycles += in.cycles
			if sampled {
				m.settleTick(pendSteps, pendCycles)
				pendSteps, pendCycles = 0, 0
			}
			if rv(regs, in.a, in.imm) != 0 {
				pc = in.b
			} else {
				pc = in.c
			}
		case cRet:
			m.settleTick(pendSteps+int64(in.steps), pendCycles+in.cycles)
			if in.aux != 0 {
				return rv(regs, in.a, in.imm), nil
			}
			return 0, nil
		case cTrap:
			m.settleTick(pendSteps+int64(in.steps), pendCycles+in.cycles)
			return 0, cf.traps[in.aux]

		case cEnterBlock:
			m.settle(pendSteps, pendCycles)
			pendSteps, pendCycles = 0, 0
			if l := m.Listener; l != nil {
				l.EnterBlock(m, cf.fn, cf.fn.Blocks[in.aux])
			}

		default:
			m.settle(pendSteps, pendCycles)
			return 0, fmt.Errorf("interp(%s): invalid compiled opcode %d in %s", m.Name, in.op, cf.fn.Nam)
		}
	}
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
