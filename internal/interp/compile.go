package interp

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/ir"
)

// Engine selects how a Machine executes function bodies.
type Engine int

const (
	// EngineFast interprets the flat instruction arrays Compile pre-decoded
	// (the default). A Listener observes it through the hooks of an
	// instrumented program (CompileConfig.Instrument).
	EngineFast Engine = iota
	// EngineRef is the original tree-walking interpreter: the semantic
	// reference the fast engine is differentially tested against (and the
	// benchmark's steps/sec probe), not a mode programs are meant to ship
	// on. It calls a Listener at every join point of any program.
	EngineRef
)

func (e Engine) String() string {
	if e == EngineRef {
		return "ref"
	}
	return "fast"
}

// cop is the pre-decoded opcode. The fast engine's hot loop is a switch
// over this enum; no interface dispatch, no per-operand type switch.
type cop uint8

const (
	cInvalid cop = iota

	// cTrap returns the precomputed error traps[aux].
	cTrap

	cAlloca // imm = aligned size; c = dst; aux = stack-overflow trap

	// Loads: address in (a,imm); b = byte size; c = dst; imm2 = the mask of
	// the value's bits: the low b bytes, fewer for an integer type narrower
	// than its access.
	cLoad     // integers, pointers, f64: aux = the value's sign bit, or 0 to zero-extend
	cLoadF32  // promote f32 bits to f64 register form
	cLoadSlow // refs[aux] = *ir.Load; unlowered, big-endian or exotic accesses

	// Stores: address in (a,imm); value in (b,imm2); aux = byte size.
	cStoreInt
	cStoreF32
	cStoreSlow // refs[aux] = *ir.Store (every other store: aux = byte size)
	// cStoreIntBr is a cStoreInt fused with the cBr behind it (see fuse).
	cStoreIntBr

	// Binary ops: x in (a,imm), y in (b,imm2), dst in c.
	cAdd
	cSub
	cMul
	cDiv     // aux = divide-by-zero trap
	cRem     // aux = remainder-by-zero trap
	cRemPow2 // x % ±2^k for a constant divisor other than MinInt64: imm2 = 2^k - 1
	cAnd
	cOr
	cXor
	cShl
	cShr
	cFAdd
	cFSub
	cFMul
	cFDiv

	// Compares: aux = ir.CmpPred.
	cCmpS // signed integers
	cCmpU // pointers (unsigned)
	cCmpF // floats
	// cCmpSBr and cCmpUBr are the integer compares fused with the cCondBr
	// behind them, which tests their result (see fuse).
	cCmpSBr
	cCmpUBr

	cIndexAddr // base in (a,imm), index in (b,imm2), stride in aux

	// Conversions: x in (a,imm), dst in c.
	cMov   // sext/fpext/bitcast/no-op widenings, and FuncAddr constants
	cTrunc // aux = bits, sign-extends the result
	cZExt  // imm2 = value mask
	cIntToFP
	cFPToInt // aux = bits
	cFPTrunc

	cCall    // calls[aux] = callee/ctarget/args; c = dst (-1 discards)
	cCallInd // fn addr in (a,imm); b = 1 when Mapped; calls[aux] = args; c = dst
	cBr      // a = target pc
	cCondBr  // cond in (a,imm); b = then pc, c = else pc
	cRet     // aux = 1: value in (a,imm)

	// cEnterBlock reports the entry of block fn.Blocks[aux] to the machine's
	// Listener. Only an instrumented program contains it, one at each
	// block's start pc: the previous block's terminator carried the charge of
	// its last segment here, and the hook settles it first, so it observes
	// the clock the reference engine shows its Listener between blocks.
	cEnterBlock
)

// carg is one pre-decoded call argument: a caller register slot, or an
// inlined constant when slot < 0.
type carg struct {
	slot int32
	imm  uint64
}

// cinstr is one fixed-size (48-byte) pre-decoded instruction. Operand
// convention: X in (a,imm), Y in (b,imm2) — slot < 0 selects the inlined
// constant — destination slot in c, static extras (bits, predicate, stride,
// size, trap or side-table index, branch target) in aux/a/b/c as each opcode
// documents. What only a call or a slow-path access needs lives in the
// function's side tables (cfunc.calls, cfunc.refs), not in every instruction.
//
// steps and cycles are the charge of the straight-line segment this
// instruction ends, zero on every other instruction: the IR instructions the
// segment counts for (Steps) and their summed cycle cost (Swap/Widen layout
// charges included). A segment ends at every instruction whose execution can
// observe the clock or fail (memory access, call, alloca, integer divide,
// trap) and at every terminator, and the engine adds the charge before it
// executes the instruction, so the clock any such instruction sees is
// bit-identical to the reference engine's charge-per-instruction
// interleaving. Only those opcodes look at steps and cycles.
type cinstr struct {
	op      cop
	steps   int32
	a, b, c int32
	aux     int32
	imm     uint64
	imm2    uint64
	cycles  int64
}

// ccall is the call-site data of one cCall or cCallInd: the pre-decoded
// arguments and, for a direct call, the callee with its compiled body
// (ctarget is nil for an extern).
type ccall struct {
	args    []carg
	callee  *ir.Func
	ctarget *cfunc
}

// cfunc is one function compiled against one linkage (operands inline
// linker-assigned global and function addresses). idx names the frame pool
// a Machine recycles this function's register frames through — frames are
// per-machine state, so shared compiled code carries only the index. traps,
// calls and refs are the side tables instructions index through aux.
type cfunc struct {
	fn    *ir.Func
	idx   int32
	code  []cinstr
	traps []error
	calls []ccall
	refs  []ir.Instr
}

// compiler is the compile-time environment: everything pre-decoding a
// function body needs, independent of any executing Machine. compileModule
// fills cfuncs with every function body of the module before the Program is
// published; from then on the map is only read, so any number of concurrent
// instances share it.
type compiler struct {
	name       string
	spec       *arch.Spec
	std        *arch.Spec
	lay        *linkage
	instrument bool // weave the Listener's block hook into every stream
	cfuncs     map[*ir.Func]*cfunc
}

// compileModule pre-decodes every function body of mod. All cfuncs exist
// before the first body is flattened, so direct calls (mutually recursive
// ones included) link straight to their callee's cfunc.
func compileModule(cfg CompileConfig, lay *linkage, mod *ir.Module) *compiler {
	c := &compiler{
		name: cfg.Name, spec: cfg.Spec, std: cfg.Std, lay: lay, instrument: cfg.Instrument,
		cfuncs: make(map[*ir.Func]*cfunc, len(mod.Funcs)),
	}
	for _, f := range mod.Funcs {
		if !f.IsExtern() {
			c.cfuncs[f] = &cfunc{fn: f, idx: int32(len(c.cfuncs))}
		}
	}
	for _, f := range mod.Funcs {
		if cf := c.cfuncs[f]; cf != nil {
			c.compileInto(cf)
		}
	}
	return c
}

// cval resolves an operand to (register slot, inlined constant); slot < 0
// means the constant. Mirrors the reference engine's operand().
func (c *compiler) cval(v ir.Value) (int32, uint64) {
	switch v := v.(type) {
	case *ir.ConstInt:
		return -1, uint64(v.V)
	case *ir.ConstFloat:
		return -1, floatBits(v.Typ, v.V)
	case *ir.ConstNull:
		return -1, 0
	case *ir.ConstUVA:
		return -1, uint64(v.Addr)
	case *ir.Param:
		return int32(v.Slot), 0
	case *ir.Global:
		return -1, uint64(c.lay.globalAddr[v])
	case *ir.Func:
		return -1, uint64(c.lay.funcAddr[v])
	case ir.Instr:
		return int32(v.(interface{ Slot() int }).Slot()), 0
	}
	panic(fmt.Sprintf("interp: unhandled operand %T", v))
}

func (c *compiler) cargs(args []ir.Value) []carg {
	if len(args) == 0 {
		return nil
	}
	out := make([]carg, len(args))
	for i, a := range args {
		out[i].slot, out[i].imm = c.cval(a)
	}
	return out
}

func cdst(in ir.Instr) int32 { return int32(in.(interface{ Slot() int }).Slot()) }

// compileInto flattens cf.fn into cf.code. Each basic block becomes one or
// more charge segments: the pre-decoded forms of the segment's instructions,
// the last of which carries their aggregate Steps/cycles. Branch targets are
// pc indices patched after all blocks are placed; an instrumented compile
// puts a cEnterBlock at each of them, so the entry block and every block
// transfer fire it.
func (c *compiler) compileInto(cf *cfunc) {
	f := cf.fn
	cost := c.spec.Cost
	start := make(map[*ir.Block]int32, len(f.Blocks))
	type fixup struct {
		pc    int
		field int // 0 = a, 1 = b, 2 = c
		dst   *ir.Block
	}
	var fixups []fixup

	var seg []cinstr
	var segCycles int64
	var segSteps int32
	// flush ends the segment at the instruction appended last.
	flush := func() {
		last := &seg[len(seg)-1]
		last.steps, last.cycles = segSteps, segCycles
		segCycles, segSteps = 0, 0
		cf.code = append(cf.code, seg...)
		seg = seg[:0]
	}
	newTrap := func(err error) int32 {
		cf.traps = append(cf.traps, err)
		return int32(len(cf.traps) - 1)
	}
	newRef := func(in ir.Instr) int32 {
		cf.refs = append(cf.refs, in)
		return int32(len(cf.refs) - 1)
	}
	newCall := func(cc ccall) int32 {
		cf.calls = append(cf.calls, cc)
		return int32(len(cf.calls) - 1)
	}
	trap := func(err error) {
		seg = append(seg, cinstr{op: cTrap, aux: newTrap(err)})
		flush()
	}

	for bi, blk := range f.Blocks {
		start[blk] = int32(len(cf.code))
		if c.instrument {
			cf.code = append(cf.code, cinstr{op: cEnterBlock, aux: int32(bi)})
		}
		terminated := false
	instrs:
		for _, in := range blk.Instrs {
			segSteps++
			switch in := in.(type) {
			case *ir.Alloca:
				segCycles += cost.Cycles(arch.OpAlloca)
				seg = append(seg, cinstr{
					op:  cAlloca,
					c:   cdst(in),
					imm: uint64(alignUp32(uint32(in.SizeBytes), 16)),
					aux: newTrap(fmt.Errorf("interp(%s): stack overflow in %s", c.name, f.Nam)),
				})
				flush()

			case *ir.Load:
				segCycles += cost.Cycles(arch.OpLoad)
				if in.Lay.Swap {
					segCycles += cost.Cycles(arch.OpEndianSwap)
				}
				if in.Lay.Widen {
					segCycles += cost.Cycles(arch.OpPtrConvert)
				}
				ci := cinstr{c: cdst(in), b: int32(in.Lay.Size)}
				ci.a, ci.imm = c.cval(in.Ptr)
				if in.Lay.Size == 0 || c.std.Endian != arch.Little {
					ci.op, ci.aux = cLoadSlow, newRef(in)
				} else {
					ci.imm2 = ^uint64(0) >> (64 - 8*uint(in.Lay.Size))
					switch t := in.Elem.(type) {
					case *ir.IntType:
						ci.op = cLoad
						if bits := min(t.Bits, in.Lay.Size*8); bits < 64 {
							ci.imm2 = 1<<uint(bits) - 1
							ci.aux = int32(uint32(1) << uint(bits-1))
						}
					case *ir.PointerType:
						ci.op = cLoad // addresses zero-extend
					case *ir.FloatType:
						if t.Bits == 32 {
							ci.op = cLoadF32
						} else {
							ci.op = cLoad
						}
					default:
						ci.op, ci.aux = cLoadSlow, newRef(in)
					}
				}
				seg = append(seg, ci)
				flush()

			case *ir.Store:
				segCycles += cost.Cycles(arch.OpStore)
				if in.Lay.Swap {
					segCycles += cost.Cycles(arch.OpEndianSwap)
				}
				if in.Lay.Widen {
					segCycles += cost.Cycles(arch.OpPtrConvert)
				}
				ci := cinstr{aux: int32(in.Lay.Size)}
				ci.a, ci.imm = c.cval(in.Ptr)
				ci.b, ci.imm2 = c.cval(in.Val)
				if in.Lay.Size == 0 || c.std.Endian != arch.Little {
					ci.op, ci.aux = cStoreSlow, newRef(in)
				} else if ft, ok := in.Val.Type().(*ir.FloatType); ok && ft.Bits == 32 {
					ci.op = cStoreF32
				} else {
					ci.op = cStoreInt
				}
				seg = append(seg, ci)
				flush()

			case *ir.Bin:
				ci := cinstr{c: cdst(in)}
				ci.a, ci.imm = c.cval(in.X)
				ci.b, ci.imm2 = c.cval(in.Y)
				if ir.IsFloat(in.X.Type()) {
					switch in.Op {
					case ir.Add:
						segCycles += cost.Cycles(arch.OpFloatALU)
						ci.op = cFAdd
					case ir.Sub:
						segCycles += cost.Cycles(arch.OpFloatALU)
						ci.op = cFSub
					case ir.Mul:
						segCycles += cost.Cycles(arch.OpFloatMul)
						ci.op = cFMul
					case ir.Div:
						segCycles += cost.Cycles(arch.OpFloatDiv)
						ci.op = cFDiv
					default:
						trap(fmt.Errorf("interp: float op %s unsupported", in.Op))
						break instrs
					}
					seg = append(seg, ci)
					break
				}
				switch in.Op {
				case ir.Add:
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cAdd
				case ir.Sub:
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cSub
				case ir.Mul:
					segCycles += cost.Cycles(arch.OpIntMul)
					ci.op = cMul
				case ir.Div:
					segCycles += cost.Cycles(arch.OpIntDiv)
					ci.op = cDiv
					ci.aux = newTrap(fmt.Errorf("interp(%s): integer division by zero in %s", c.name, f.Nam))
				case ir.Rem:
					segCycles += cost.Cycles(arch.OpIntDiv)
					if mask, ok := pow2Mask(ci.b, ci.imm2); ok {
						ci.op, ci.imm2 = cRemPow2, mask
					} else {
						ci.op = cRem
						ci.aux = newTrap(fmt.Errorf("interp(%s): integer remainder by zero in %s", c.name, f.Nam))
					}
				case ir.And:
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cAnd
				case ir.Or:
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cOr
				case ir.Xor:
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cXor
				case ir.Shl:
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cShl
				case ir.Shr:
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cShr
				default:
					trap(fmt.Errorf("interp: unknown bin op %v", in.Op))
					break instrs
				}
				seg = append(seg, ci)
				if in.Op == ir.Div || in.Op == ir.Rem {
					// Division can fail; end the segment so its trap sees
					// the same clock as the reference engine. A remainder
					// by a power of two cannot, but it ends its segment
					// too: the segments, and so a sampler's ticks, do not
					// depend on the divisor.
					flush()
				}

			case *ir.Cmp:
				ci := cinstr{c: cdst(in), aux: int32(in.Pred)}
				ci.a, ci.imm = c.cval(in.X)
				ci.b, ci.imm2 = c.cval(in.Y)
				if ir.IsFloat(in.X.Type()) {
					segCycles += cost.Cycles(arch.OpFloatALU)
					ci.op = cCmpF
				} else if ir.IsPointer(in.X.Type()) {
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cCmpU
				} else {
					segCycles += cost.Cycles(arch.OpIntALU)
					ci.op = cCmpS
				}
				seg = append(seg, ci)

			case *ir.FieldAddr:
				segCycles += cost.Cycles(arch.OpIntALU)
				ci := cinstr{op: cAdd, c: cdst(in), b: -1, imm2: uint64(in.Offset)}
				ci.a, ci.imm = c.cval(in.Ptr)
				seg = append(seg, ci)

			case *ir.IndexAddr:
				segCycles += cost.Cycles(arch.OpIntALU)
				ci := cinstr{op: cIndexAddr, c: cdst(in), aux: int32(in.Stride)}
				ci.a, ci.imm = c.cval(in.Ptr)
				ci.b, ci.imm2 = c.cval(in.Index)
				seg = append(seg, ci)

			case *ir.Convert:
				segCycles += cost.Cycles(arch.OpConvert)
				ci := cinstr{c: cdst(in)}
				ci.a, ci.imm = c.cval(in.Val)
				switch in.Kind {
				case ir.ConvTrunc:
					if bits := in.To.(*ir.IntType).Bits; bits >= 64 {
						ci.op = cMov
					} else {
						ci.op = cTrunc
						ci.aux = int32(bits)
					}
				case ir.ConvZExt:
					if bits := in.Val.Type().(*ir.IntType).Bits; bits >= 64 {
						ci.op = cMov
					} else {
						ci.op = cZExt
						ci.imm2 = 1<<uint(bits) - 1
					}
				case ir.ConvSExt, ir.ConvFPExt, ir.ConvBitcast:
					ci.op = cMov // registers already hold the extended form
				case ir.ConvIntToFP:
					ci.op = cIntToFP
				case ir.ConvFPToInt:
					ci.op = cFPToInt
					ci.aux = int32(in.To.(*ir.IntType).Bits)
				case ir.ConvFPTrunc:
					ci.op = cFPTrunc
				default:
					panic(fmt.Sprintf("interp: unknown conversion %v", in.Kind))
				}
				seg = append(seg, ci)

			case *ir.FuncAddr:
				segCycles += cost.Cycles(arch.OpIntALU)
				seg = append(seg, cinstr{op: cMov, c: cdst(in), a: -1, imm: uint64(c.lay.funcAddr[in.Callee])})

			case *ir.Call:
				segCycles += cost.Cycles(arch.OpCall)
				cc := ccall{args: c.cargs(in.Args), callee: in.Callee}
				if !in.Callee.IsExtern() {
					if len(in.Args) != len(in.Callee.Params) {
						trap(fmt.Errorf("interp(%s): call %s with %d args, want %d",
							c.name, in.Callee.Nam, len(in.Args), len(in.Callee.Params)))
						break instrs
					}
					cc.ctarget = c.cfuncs[in.Callee]
				}
				seg = append(seg, cinstr{op: cCall, c: cdst(in), aux: newCall(cc)})
				flush()

			case *ir.CallInd:
				segCycles += cost.Cycles(arch.OpCallInd)
				ci := cinstr{op: cCallInd, c: cdst(in), aux: newCall(ccall{args: c.cargs(in.Args)})}
				ci.a, ci.imm = c.cval(in.Fn)
				if in.Mapped {
					ci.b = 1
				}
				seg = append(seg, ci)
				flush()

			case *ir.Br:
				segCycles += cost.Cycles(arch.OpBranch)
				seg = append(seg, cinstr{op: cBr})
				flush()
				fixups = append(fixups, fixup{pc: len(cf.code) - 1, field: 0, dst: in.Dst})
				terminated = true
				break instrs

			case *ir.CondBr:
				segCycles += cost.Cycles(arch.OpBranch)
				ci := cinstr{op: cCondBr}
				ci.a, ci.imm = c.cval(in.Cond)
				seg = append(seg, ci)
				flush()
				fixups = append(fixups,
					fixup{pc: len(cf.code) - 1, field: 1, dst: in.Then},
					fixup{pc: len(cf.code) - 1, field: 2, dst: in.Else})
				terminated = true
				break instrs

			case *ir.Ret:
				ci := cinstr{op: cRet} // counts as a step, charges no cycles
				if in.Val != nil {
					ci.aux = 1
					ci.a, ci.imm = c.cval(in.Val)
				}
				seg = append(seg, ci)
				flush()
				terminated = true
				break instrs

			default:
				trap(fmt.Errorf("interp(%s): unhandled instruction %T", c.name, in))
				break instrs
			}
		}
		if !terminated {
			trap(fmt.Errorf("interp(%s): block %s.%s fell through without terminator", c.name, f.Nam, blk.Nam))
		}
	}

	for _, fx := range fixups {
		switch fx.field {
		case 0:
			cf.code[fx.pc].a = start[fx.dst]
		case 1:
			cf.code[fx.pc].b = start[fx.dst]
		case 2:
			cf.code[fx.pc].c = start[fx.dst]
		}
	}
	fuse(cf.code)
}

// pow2Mask returns |y|-1 when the operand (slot, imm) is a constant y = ±2^k
// other than math.MinInt64: the divisors cRemPow2 takes.
func pow2Mask(slot int32, imm uint64) (uint64, bool) {
	y := int64(imm)
	if y < 0 {
		y = -y // MinInt64 stays negative
	}
	if slot >= 0 || y <= 0 || y&(y-1) != 0 {
		return 0, false
	}
	return uint64(y - 1), true
}

// fuse is the peephole behind the engine's three fused opcodes, the hottest
// dispatch pairs of the paper sweep: an integer compare followed by the
// conditional branch on its result (every loop condition) and a store
// followed by an unconditional branch (every loop latch that writes its
// induction variable back). Only the first instruction's opcode changes. The
// branch stays where it is, at pc+1, and the fused case reads its charge and
// targets from there, so cinstr does not grow and the stream still holds one
// instruction per IR instruction; nothing jumps to the branch itself, because
// branch targets are block starts and it shares a block with the instruction
// before it.
func fuse(code []cinstr) {
	for pc := 0; pc+1 < len(code); pc++ {
		in, next := &code[pc], &code[pc+1]
		switch {
		case in.op == cCmpS && next.op == cCondBr && next.a == in.c:
			in.op = cCmpSBr
		case in.op == cCmpU && next.op == cCondBr && next.a == in.c:
			in.op = cCmpUBr
		case in.op == cStoreInt && next.op == cBr:
			in.op = cStoreIntBr
		}
	}
}
