package interp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/ir"
)

// ExitError is returned when the program calls exit(code).
type ExitError struct{ Code int32 }

func (e *ExitError) Error() string { return fmt.Sprintf("program exited with code %d", e.Code) }

// frame is one function activation. Register values are 64-bit containers:
// integers are sign-extended two's complement, floats are IEEE-754 bits
// (f32 values promoted to f64 in registers, as C promotes), and pointers
// are zero-extended UVA addresses.
type frame struct {
	fn   *ir.Func
	regs []uint64
}

// ErrSuspended is what RunMain and Resume return when the machine stopped
// at accept (the server's listen loop waiting for a request) instead of
// finishing: its frames stay in place, and Resume continues it.
var ErrSuspended = errors.New("interp: machine suspended at accept")

// errAccept is callExtern's answer to accept on a machine with a runtime:
// the fast engine's loop suspends there (externFrom). A host that calls the
// extern itself gets it as an error.
var errAccept = errors.New("interp: accept cannot suspend here")

// RunMain executes the module's main() and returns its exit code, or
// ErrSuspended when main stopped at accept.
func (m *Machine) RunMain() (int32, error) {
	mainf := m.Mod.Func("main")
	if mainf == nil {
		return 0, fmt.Errorf("interp(%s): module %s has no main", m.Name, m.Mod.Name)
	}
	return exitStatus(m.CallFunc(mainf))
}

// Resume continues a machine suspended at accept, with v as accept's result
// (the request's task id; 0 shuts the listen loop down), and runs it as
// RunMain does: to main's exit code, an error, or ErrSuspended at the next
// accept. It reports accept's exit to the Listener first, at the clock the
// caller has set, as a blocking accept's return would have.
func (m *Machine) Resume(v uint64) (int32, error) {
	accept := m.suspended
	if accept == nil {
		return 0, fmt.Errorf("interp(%s): resume of a machine that is not suspended at accept", m.Name)
	}
	m.suspended = nil
	if l := m.Listener; l != nil {
		l.ExitFunc(m, accept)
	}
	top := m.frames[len(m.frames)-1]
	if c := top.cf.code[top.pc-1].c; c >= 0 {
		m.regs[top.base+c] = v
	}
	return exitStatus(m.run(0))
}

// exitStatus is main's result as an exit code: its return value, or the
// code it passed to exit().
func exitStatus(ret uint64, err error) (int32, error) {
	var xe *ExitError
	if errors.As(err, &xe) {
		return xe.Code, nil
	}
	if err != nil {
		return 0, err
	}
	return int32(ret), nil
}

// CallFunc invokes f, a function of this machine's module, with the given
// argument bits.
func (m *Machine) CallFunc(f *ir.Func, args ...uint64) (uint64, error) {
	if _, ok := m.lay.funcAddr[f]; !ok {
		return 0, foreignFunc(m.Name, f)
	}
	return m.call(f, args)
}

// maxCallDepth bounds the guest activations live at once, the length of
// Machine.frames. The guest stack is checked only where a frame allocates
// (Alloca), so a guest recursion without locals would otherwise grow the
// machine until the host runs out of memory. The fast engine keeps its
// frames as data, a 24-byte record plus 8 bytes per register of the
// callee's window, so a runaway recursion stops within a few MB: the
// recursion row of TestErrorPaths peaks at 13 MB RSS for the whole test
// process (41 MB under the race detector). The reference engine recurses
// on the Go stack, about 0.8 KB a call and 1.6 KB under the race detector,
// and peaks near 120 MB (400–460 MB). The bound is far above the deepest
// stack the paper's experiments build: 15 activations, chess minimax at
// difficulty 11.
const maxCallDepth = 1 << 16

// stackOverflow is the trap for a call that finds the guest stack full.
func stackOverflow(machine string, f *ir.Func) error {
	return fmt.Errorf("interp(%s): stack overflow in %s", machine, f.Nam)
}

// foreignFunc is the error for a function that is not part of the program a
// machine runs (another module's, or a clone's): its code was never compiled
// against this machine's addresses.
func foreignFunc(machine string, f *ir.Func) error {
	return fmt.Errorf("interp(%s): function %s is not part of this machine's program", machine, f.Nam)
}

// call dispatches on the machine's engine alone.
func (m *Machine) call(f *ir.Func, args []uint64) (uint64, error) {
	if m.Engine == EngineFast {
		return m.callFast(f, args)
	}
	return m.callRef(f, args)
}

// callRef is the reference tree-walking engine: it executes the ir.Func
// structure directly, charging and counting per instruction. The fast
// engine is differentially tested against it (engine_test.go).
func (m *Machine) callRef(f *ir.Func, args []uint64) (uint64, error) {
	if f.IsExtern() {
		return m.callExtern(f, args)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp(%s): call %s with %d args, want %d", m.Name, f.Nam, len(args), len(f.Params))
	}
	if len(m.frames) >= maxCallDepth {
		return 0, stackOverflow(m.Name, f)
	}
	m.frames = append(m.frames, cframe{sp: m.sp})
	fr := &frame{fn: f, regs: make([]uint64, f.NumSlots)}
	for i, p := range f.Params {
		fr.regs[p.Slot] = args[i]
	}
	defer func() {
		m.sp = m.frames[len(m.frames)-1].sp
		m.frames = m.frames[:len(m.frames)-1]
	}()

	if m.Listener != nil {
		m.Listener.EnterFunc(m, f)
		defer m.Listener.ExitFunc(m, f)
	}

	blk := f.Entry()
	for {
		if m.Listener != nil {
			m.Listener.EnterBlock(m, f, blk)
		}
		next, ret, done, err := m.execBlock(fr, blk)
		if err != nil {
			return 0, err
		}
		if done {
			return ret, nil
		}
		blk = next
	}
}

// execBlock runs one basic block; it returns the successor, or the return
// value with done=true.
func (m *Machine) execBlock(fr *frame, blk *ir.Block) (next *ir.Block, ret uint64, done bool, err error) {
	for _, in := range blk.Instrs {
		m.Steps++
		switch in := in.(type) {
		case *ir.Alloca:
			m.charge(arch.OpAlloca, 1, CompCompute)
			size := alignUp32(uint32(in.SizeBytes), 16)
			if m.sp < m.spFloor+size {
				return nil, 0, false, stackOverflow(m.Name, fr.fn)
			}
			m.sp -= size
			fr.set(in, uint64(m.sp))

		case *ir.Load:
			m.charge(arch.OpLoad, 1, CompCompute)
			m.chargeLayout(in.Lay)
			addr := uint32(m.operand(fr, in.Ptr))
			bits, lerr := m.loadScalar(addr, in.Elem, in.Lay)
			if lerr != nil {
				return nil, 0, false, lerr
			}
			fr.set(in, bits)

		case *ir.Store:
			m.charge(arch.OpStore, 1, CompCompute)
			m.chargeLayout(in.Lay)
			addr := uint32(m.operand(fr, in.Ptr))
			if serr := m.storeScalar(addr, in.Val.Type(), in.Lay, m.operand(fr, in.Val)); serr != nil {
				return nil, 0, false, serr
			}

		case *ir.Bin:
			v, berr := m.evalBin(fr, in)
			if berr != nil {
				return nil, 0, false, berr
			}
			fr.set(in, v)

		case *ir.Cmp:
			fr.set(in, m.evalCmp(fr, in))

		case *ir.FieldAddr:
			m.charge(arch.OpIntALU, 1, CompCompute)
			fr.set(in, m.operand(fr, in.Ptr)+uint64(in.Offset))

		case *ir.IndexAddr:
			m.charge(arch.OpIntALU, 1, CompCompute)
			base := m.operand(fr, in.Ptr)
			idx := int64(m.operand(fr, in.Index))
			fr.set(in, uint64(int64(base)+idx*int64(in.Stride)))

		case *ir.Convert:
			m.charge(arch.OpConvert, 1, CompCompute)
			fr.set(in, convert(in.Kind, in.Val.Type(), in.To, m.operand(fr, in.Val)))

		case *ir.FuncAddr:
			m.charge(arch.OpIntALU, 1, CompCompute)
			fr.set(in, uint64(m.lay.funcAddr[in.Callee]))

		case *ir.Call:
			m.charge(arch.OpCall, 1, CompCompute)
			args := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				args[i] = m.operand(fr, a)
			}
			v, cerr := m.call(in.Callee, args)
			if cerr != nil {
				return nil, 0, false, cerr
			}
			fr.set(in, v)

		case *ir.CallInd:
			m.charge(arch.OpCallInd, 1, CompCompute)
			if in.Mapped {
				// Function pointer translation (Section 3.4); its cost is
				// the Fig. 7 "fptr" component.
				m.charge(arch.OpFptrMap, 1, CompFptr)
			}
			addr := uint32(m.operand(fr, in.Fn))
			callee, rerr := m.ResolveFptr(addr, in.Mapped)
			if rerr != nil {
				return nil, 0, false, rerr
			}
			args := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				args[i] = m.operand(fr, a)
			}
			v, cerr := m.CallFunc(callee, args...)
			if cerr != nil {
				return nil, 0, false, cerr
			}
			fr.set(in, v)

		case *ir.Br:
			m.charge(arch.OpBranch, 1, CompCompute)
			return in.Dst, 0, false, nil

		case *ir.CondBr:
			m.charge(arch.OpBranch, 1, CompCompute)
			if m.operand(fr, in.Cond) != 0 {
				return in.Then, 0, false, nil
			}
			return in.Else, 0, false, nil

		case *ir.Ret:
			if in.Val != nil {
				return nil, m.operand(fr, in.Val), true, nil
			}
			return nil, 0, true, nil

		default:
			return nil, 0, false, fmt.Errorf("interp(%s): unhandled instruction %T", m.Name, in)
		}
	}
	return nil, 0, false, fmt.Errorf("interp(%s): block %s.%s fell through without terminator", m.Name, fr.fn.Nam, blk.Nam)
}

func (fr *frame) set(in ir.Instr, v uint64) {
	if slot := in.(interface{ Slot() int }).Slot(); slot >= 0 {
		fr.regs[slot] = v
	}
}

// operand evaluates a value in the context of fr.
func (m *Machine) operand(fr *frame, v ir.Value) uint64 {
	switch v := v.(type) {
	case *ir.ConstInt:
		return uint64(v.V)
	case *ir.ConstFloat:
		return floatBits(v.Typ, v.V)
	case *ir.ConstNull:
		return 0
	case *ir.ConstUVA:
		return uint64(v.Addr)
	case *ir.Param:
		return fr.regs[v.Slot]
	case *ir.Global:
		return uint64(m.lay.globalAddr[v])
	case *ir.Func:
		return uint64(m.lay.funcAddr[v])
	case ir.Instr:
		return fr.regs[v.(interface{ Slot() int }).Slot()]
	}
	panic(fmt.Sprintf("interp: unhandled operand %T", v))
}

func (m *Machine) evalBin(fr *frame, in *ir.Bin) (uint64, error) {
	x := m.operand(fr, in.X)
	y := m.operand(fr, in.Y)
	if ir.IsFloat(in.X.Type()) {
		fx, fy := math.Float64frombits(x), math.Float64frombits(y)
		var r float64
		switch in.Op {
		case ir.Add:
			m.charge(arch.OpFloatALU, 1, CompCompute)
			r = fx + fy
		case ir.Sub:
			m.charge(arch.OpFloatALU, 1, CompCompute)
			r = fx - fy
		case ir.Mul:
			m.charge(arch.OpFloatMul, 1, CompCompute)
			r = fx * fy
		case ir.Div:
			m.charge(arch.OpFloatDiv, 1, CompCompute)
			r = fx / fy
		default:
			return 0, fmt.Errorf("interp: float op %s unsupported", in.Op)
		}
		return math.Float64bits(r), nil
	}
	ix, iy := int64(x), int64(y)
	switch in.Op {
	case ir.Add:
		m.charge(arch.OpIntALU, 1, CompCompute)
		return uint64(ix + iy), nil
	case ir.Sub:
		m.charge(arch.OpIntALU, 1, CompCompute)
		return uint64(ix - iy), nil
	case ir.Mul:
		m.charge(arch.OpIntMul, 1, CompCompute)
		return uint64(ix * iy), nil
	case ir.Div:
		m.charge(arch.OpIntDiv, 1, CompCompute)
		if iy == 0 {
			return 0, fmt.Errorf("interp(%s): integer division by zero in %s", m.Name, fr.fn.Nam)
		}
		return uint64(ix / iy), nil
	case ir.Rem:
		m.charge(arch.OpIntDiv, 1, CompCompute)
		if iy == 0 {
			return 0, fmt.Errorf("interp(%s): integer remainder by zero in %s", m.Name, fr.fn.Nam)
		}
		return uint64(ix % iy), nil
	case ir.And:
		m.charge(arch.OpIntALU, 1, CompCompute)
		return x & y, nil
	case ir.Or:
		m.charge(arch.OpIntALU, 1, CompCompute)
		return x | y, nil
	case ir.Xor:
		m.charge(arch.OpIntALU, 1, CompCompute)
		return x ^ y, nil
	case ir.Shl:
		m.charge(arch.OpIntALU, 1, CompCompute)
		return x << (y & 63), nil
	case ir.Shr:
		m.charge(arch.OpIntALU, 1, CompCompute)
		return uint64(ix >> (y & 63)), nil
	}
	return 0, fmt.Errorf("interp: unknown bin op %v", in.Op)
}

func (m *Machine) evalCmp(fr *frame, in *ir.Cmp) uint64 {
	x := m.operand(fr, in.X)
	y := m.operand(fr, in.Y)
	var lt, eq bool
	if ir.IsFloat(in.X.Type()) {
		m.charge(arch.OpFloatALU, 1, CompCompute)
		fx, fy := math.Float64frombits(x), math.Float64frombits(y)
		lt, eq = fx < fy, fx == fy
	} else if ir.IsPointer(in.X.Type()) {
		m.charge(arch.OpIntALU, 1, CompCompute)
		lt, eq = x < y, x == y
	} else {
		m.charge(arch.OpIntALU, 1, CompCompute)
		lt, eq = int64(x) < int64(y), x == y
	}
	var r bool
	switch in.Pred {
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

func convert(kind ir.ConvKind, from, to ir.Type, v uint64) uint64 {
	switch kind {
	case ir.ConvTrunc:
		bits := to.(*ir.IntType).Bits
		return signExtend(v, bits)
	case ir.ConvZExt:
		bits := from.(*ir.IntType).Bits
		if bits >= 64 {
			return v
		}
		return v & (1<<uint(bits) - 1)
	case ir.ConvSExt:
		return v // registers already hold sign-extended values
	case ir.ConvIntToFP:
		f := float64(int64(v))
		return floatBits(to.(*ir.FloatType), f)
	case ir.ConvFPToInt:
		f := math.Float64frombits(v)
		return signExtend(uint64(int64(f)), to.(*ir.IntType).Bits)
	case ir.ConvFPExt:
		return v // f32 already promoted in registers
	case ir.ConvFPTrunc:
		return math.Float64bits(float64(float32(math.Float64frombits(v))))
	case ir.ConvBitcast:
		return v
	}
	panic(fmt.Sprintf("interp: unknown conversion %v", kind))
}

func signExtend(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	shift := uint(64 - bits)
	return uint64(int64(v<<shift) >> shift)
}

// floatBits returns the register representation of a float constant: f32
// values are promoted to f64 bits.
func floatBits(t *ir.FloatType, v float64) uint64 {
	return math.Float64bits(v)
}
