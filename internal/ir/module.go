package ir

import (
	"fmt"
	"sort"
)

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	Nam    string
	Parent *Func
	Instrs []Instr

	// Index is the block's position in Parent.Blocks, assigned by Renumber,
	// so per-block tables can be slices rather than maps keyed by *Block.
	Index int
}

// Name returns the block's label.
func (b *Block) Name() string { return b.Nam }

// Terminator returns the block's final instruction, or nil if the block is
// still under construction.
func (b *Block) Terminator() Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !IsTerminator(last) {
		return nil
	}
	return last
}

// Append adds in to the block and claims ownership.
func (b *Block) Append(in Instr) {
	in.base().parent = b
	b.Instrs = append(b.Instrs, in)
}

// Prepend inserts in at the start of the block (used to hoist allocas into
// the entry block).
func (b *Block) Prepend(in Instr) {
	in.base().parent = b
	b.Instrs = append([]Instr{in}, b.Instrs...)
}

// Insert places in at position i of the block (0 <= i <= len(Instrs)).
func (b *Block) Insert(i int, in Instr) {
	in.base().parent = b
	rest := append([]Instr{in}, b.Instrs[i:]...)
	b.Instrs = append(b.Instrs[:i:i], rest...)
}

// Func is an IR function, or an external declaration when Extern is set.
type Func struct {
	Nam    string
	Sig    *FuncType
	Params []*Param
	Blocks []*Block
	Extern ExternKind

	// Variadic marks externs like printf that accept extra arguments.
	Variadic bool

	// NumSlots is the number of runtime value slots (params followed by
	// value-producing instructions), assigned by Renumber.
	NumSlots int

	// TaskID is the offload task identifier assigned by the partitioner to
	// functions selected as offload targets; zero otherwise.
	TaskID int
}

func (f *Func) Type() Type    { return Ptr(f.Sig) }
func (f *Func) Ident() string { return "@" + f.Nam }

// Name returns the function's symbol name.
func (f *Func) Name() string { return f.Nam }

// IsExtern reports whether f is a declaration without a body.
func (f *Func) IsExtern() bool { return f.Extern != ExternNone }

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new empty block with the given label.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Nam: name, Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Renumber assigns value slots to parameters and value-producing
// instructions, and each block its Index. It must be called after structural
// mutation and before interpretation.
func (f *Func) Renumber() {
	n := 0
	for _, p := range f.Params {
		p.Slot = n
		n++
	}
	for i, b := range f.Blocks {
		b.Index = i
		for _, in := range b.Instrs {
			if _, isVoid := in.Type().(*VoidType); isVoid {
				in.base().id = -1
				continue
			}
			in.base().id = n
			n++
		}
	}
	f.NumSlots = n
}

// Module is a whole program: globals, functions, and named struct types.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func
	Structs []*StructType

	// StackBase is the top of the run-time stack region this binary uses,
	// in UVA terms. The partitioner moves the server's stack away from the
	// mobile one (stack reallocation, Section 3.3).
	StackBase uint32

	// Unified records that the memory unification passes have run.
	Unified bool

	// Lowered records that Lower has resolved layouts, so an execution
	// engine may bake layout-dependent fields (sizes, strides, offsets)
	// into a pre-decoded form at machine bind time.
	Lowered bool
}

// DefaultStackBase is where an unmodified binary places its stack.
const DefaultStackBase = 0x7FFF_F000

// NewModule returns an empty module with the default stack placement.
func NewModule(name string) *Module {
	return &Module{Name: name, StackBase: DefaultStackBase}
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Nam == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Nam == name {
			return g
		}
	}
	return nil
}

// AddFunc appends f, enforcing unique names.
func (m *Module) AddFunc(f *Func) *Func {
	if m.Func(f.Nam) != nil {
		panic(fmt.Sprintf("ir: duplicate function %q in module %s", f.Nam, m.Name))
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// AddGlobal appends g, enforcing unique names.
func (m *Module) AddGlobal(g *Global) *Global {
	if m.Global(g.Nam) != nil {
		panic(fmt.Sprintf("ir: duplicate global %q in module %s", g.Nam, m.Name))
	}
	m.Globals = append(m.Globals, g)
	return g
}

// RemoveFunc deletes the named function (used by unused-function removal).
func (m *Module) RemoveFunc(name string) {
	for i, f := range m.Funcs {
		if f.Nam == name {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			return
		}
	}
}

// Extern returns the module's declaration for the given extern kind,
// creating a canonical one if absent. Signatures for intrinsics are loose
// (variadic) because the interpreter implements them natively.
func (m *Module) Extern(kind ExternKind) *Func {
	name := kind.String()
	if f := m.Func(name); f != nil {
		return f
	}
	var sig *FuncType
	switch kind {
	case ExternMalloc, ExternUMalloc:
		sig = Signature(Ptr(I8), I32)
	case ExternFree, ExternUFree:
		sig = Signature(Void, Ptr(I8))
	case ExternPrintf, ExternRemotePrintf, ExternScanf:
		sig = Signature(I32, Ptr(I8))
	case ExternFileOpen, ExternRemoteFileOpen:
		sig = Signature(I32, Ptr(I8))
	case ExternFileRead, ExternRemoteFileRead:
		sig = Signature(I32, I32, Ptr(I8), I32)
	case ExternFileClose, ExternRemoteFileClose:
		sig = Signature(I32, I32)
	case ExternExit:
		sig = Signature(Void, I32)
	case ExternMemcpy:
		sig = Signature(Void, Ptr(I8), Ptr(I8), I32)
	case ExternMemset:
		sig = Signature(Void, Ptr(I8), I32, I32)
	case ExternAsm, ExternSyscall, ExternUnknown:
		sig = Signature(I32)
	case ExternGate:
		sig = Signature(I1, I32)
	case ExternOffload:
		sig = Signature(I64, I32)
	case ExternAccept:
		sig = Signature(I32)
	case ExternArg:
		sig = Signature(I64, I32)
	case ExternSendReturn:
		sig = Signature(Void, I64)
	case ExternFptrToM:
		sig = Signature(Ptr(Signature(Void)), Ptr(Signature(Void)))
	default:
		panic(fmt.Sprintf("ir: no canonical signature for extern %v", kind))
	}
	f := &Func{Nam: name, Sig: sig, Extern: kind, Variadic: true}
	m.Funcs = append(m.Funcs, f)
	return f
}

// NamedStructs collects every named struct type reachable from the module's
// globals and instructions, sorted by name; the printer emits their
// definitions so printed modules are self-contained for the parser.
func (m *Module) NamedStructs() []*StructType {
	seen := make(map[string]*StructType)
	var walk func(t Type)
	walk = func(t Type) {
		switch t := t.(type) {
		case *PointerType:
			walk(t.Elem)
		case *ArrayType:
			walk(t.Elem)
		case *FuncType:
			for _, p := range t.Params {
				walk(p)
			}
			walk(t.Ret)
		case *StructType:
			if t.Name != "" {
				if _, ok := seen[t.Name]; ok {
					return
				}
				seen[t.Name] = t
			}
			for _, f := range t.Fields {
				walk(f.Type)
			}
		}
	}
	for _, g := range m.Globals {
		walk(g.Elem)
	}
	for _, f := range m.Funcs {
		walk(f.Sig)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if _, isVoid := in.Type().(*VoidType); !isVoid {
					walk(in.Type())
				}
				if a, ok := in.(*Alloca); ok {
					walk(a.Elem)
				}
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*StructType, len(names))
	for i, n := range names {
		out[i] = seen[n]
	}
	return out
}
