package ir

import "fmt"

// Value is anything an instruction can use as an operand: constants,
// function parameters, globals, functions, and the results of other
// instructions.
type Value interface {
	Type() Type
	// Ident returns the printed identity of the value ("%3", "@board", "7").
	Ident() string
}

// ConstInt is an integer constant of a specific width.
type ConstInt struct {
	Typ *IntType
	V   int64
}

// ConstFloat is a floating point constant.
type ConstFloat struct {
	Typ *FloatType
	V   float64
}

// ConstNull is the null pointer of a specific pointer type.
type ConstNull struct{ Typ *PointerType }

// ConstUVA is a literal address in the unified virtual address space, the
// parser's uva(0x...) operand: an i8* both binaries resolve to the same
// bytes without translation. No pass creates one — memory unification
// (Section 3.2) gives referenced globals their UVA homes through
// Global.Home and Global.UVAAddr, and their uses stay global references.
type ConstUVA struct {
	Typ  *PointerType
	Addr uint32
}

func (c *ConstInt) Type() Type   { return c.Typ }
func (c *ConstFloat) Type() Type { return c.Typ }
func (c *ConstNull) Type() Type  { return c.Typ }
func (c *ConstUVA) Type() Type   { return c.Typ }

func (c *ConstInt) Ident() string   { return fmt.Sprintf("%s %d", c.Typ, c.V) }
func (c *ConstFloat) Ident() string { return fmt.Sprintf("%s %g", c.Typ, c.V) }
func (c *ConstNull) Ident() string  { return "null" }
func (c *ConstUVA) Ident() string   { return fmt.Sprintf("uva(0x%x)", c.Addr) }

// Int returns an i32 constant, the most common case.
func Int(v int64) *ConstInt { return &ConstInt{Typ: I32, V: v} }

// Int64 returns an i64 constant.
func Int64(v int64) *ConstInt { return &ConstInt{Typ: I64, V: v} }

// Int8 returns an i8 constant.
func Int8(v int64) *ConstInt { return &ConstInt{Typ: I8, V: v} }

// Bool returns an i1 constant.
func Bool(v bool) *ConstInt {
	n := int64(0)
	if v {
		n = 1
	}
	return &ConstInt{Typ: I1, V: n}
}

// Float returns an f64 constant.
func Float(v float64) *ConstFloat { return &ConstFloat{Typ: F64, V: v} }

// Null returns the null pointer of type *elem.
func Null(elem Type) *ConstNull { return &ConstNull{Typ: Ptr(elem)} }

// Param is a function parameter. Its runtime slot is assigned by
// Func.Renumber.
type Param struct {
	Nam   string
	Typ   Type
	Index int
	Slot  int
}

func (p *Param) Type() Type    { return p.Typ }
func (p *Param) Ident() string { return "%" + p.Nam }

// GlobalHome says where a global variable lives at run time.
type GlobalHome int

const (
	// HomeMachine places the global in each machine's private globals
	// segment; the two binaries may (and in this simulation, do) choose
	// different addresses for it.
	HomeMachine GlobalHome = iota
	// HomeUVA places the global at a fixed unified-virtual-address home
	// shared by both machines — the result of the paper's referenced
	// global variable reallocation (Section 3.2).
	HomeUVA
)

// Global is a module-level variable. As a Value it denotes the variable's
// address, so its type is a pointer to Elem.
type Global struct {
	Nam  string
	Elem Type
	// Init is the initial value, element by element. Empty means
	// zero-initialized. For scalar globals it has one entry; for arrays,
	// Len entries; strings use InitBytes instead.
	Init      []Value
	InitBytes []byte

	Home GlobalHome
	// UVAAddr is the assigned unified address when Home == HomeUVA.
	UVAAddr uint32
}

func (g *Global) Type() Type    { return Ptr(g.Elem) }
func (g *Global) Ident() string { return "@" + g.Nam }

// ExternKind classifies functions without IR bodies. The function filter
// (Section 3.1) uses this classification: syscalls, assembly, and unknown
// external calls make the surrounding task machine-specific; well-known I/O
// calls can be made remote-executable by the optimizer (Section 3.4).
type ExternKind int

const (
	ExternNone ExternKind = iota // has an IR body

	// Memory management (replaced by unified variants in Section 3.2).
	ExternMalloc
	ExternFree
	ExternUMalloc // u_malloc: allocate on the UVA heap
	ExternUFree   // u_free

	// I/O (candidates for remote I/O, Section 3.4).
	ExternPrintf
	ExternScanf
	ExternFileOpen
	ExternFileRead
	ExternFileClose
	ExternExit

	// Remote I/O variants (inserted by the optimizer; execute on the
	// mobile device via the runtime's remote I/O manager).
	ExternRemotePrintf
	ExternRemoteFileOpen
	ExternRemoteFileRead
	ExternRemoteFileClose

	// Machine-specific markers the function filter rejects.
	ExternAsm     // inline assembly
	ExternSyscall // raw system call
	ExternUnknown // unknown external library call

	// Misc helpers with defined semantics on both machines.
	ExternMemcpy
	ExternMemset

	// Runtime intrinsics inserted by the partitioner (Section 3.3).
	ExternGate       // isProfitable(taskID) -> i1 (dynamic estimation)
	ExternOffload    // requestOffload + data exchange; returns task result
	ExternAccept     // server: acceptOffload() -> task id (0 = shut down)
	ExternArg        // server: fetch i-th argument of the current request
	ExternSendReturn // server: sendReturn(value)
	ExternFptrToM    // s2mFcnMap/m2sFcnMap: translate a function address
)

// String returns the conventional C-level name for the extern kind.
func (k ExternKind) String() string {
	names := map[ExternKind]string{
		ExternMalloc: "malloc", ExternFree: "free",
		ExternUMalloc: "u_malloc", ExternUFree: "u_free",
		ExternPrintf: "printf", ExternScanf: "scanf",
		ExternFileOpen: "fopen", ExternFileRead: "fread", ExternFileClose: "fclose",
		ExternExit:         "exit",
		ExternRemotePrintf: "r_printf", ExternRemoteFileOpen: "r_fopen",
		ExternRemoteFileRead: "r_fread", ExternRemoteFileClose: "r_fclose",
		ExternAsm: "asm", ExternSyscall: "syscall", ExternUnknown: "extern",
		ExternMemcpy: "memcpy", ExternMemset: "memset",
		ExternGate: "no.gate", ExternOffload: "no.offload",
		ExternAccept: "no.accept", ExternArg: "no.arg",
		ExternSendReturn: "no.sendreturn", ExternFptrToM: "no.fcnmap",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("extern(%d)", int(k))
}

// IsMachineSpecific reports whether calling this extern makes the caller a
// machine-specific task in the sense of the paper's function filter.
func (k ExternKind) IsMachineSpecific() bool {
	switch k {
	case ExternAsm, ExternSyscall, ExternUnknown:
		return true
	}
	return false
}

// IsLocalIO reports whether the extern is an I/O operation that runs against
// the mobile device's local environment.
func (k ExternKind) IsLocalIO() bool {
	switch k {
	case ExternPrintf, ExternScanf, ExternFileOpen, ExternFileRead, ExternFileClose:
		return true
	}
	return false
}

// RemoteVariant returns the remote-I/O extern kind that the server-specific
// optimizer substitutes for k, and whether one exists. scanf has no remote
// variant: the paper keeps interactive input mobile-only because it would
// need round-trip communication per item.
func (k ExternKind) RemoteVariant() (ExternKind, bool) {
	switch k {
	case ExternPrintf:
		return ExternRemotePrintf, true
	case ExternFileOpen:
		return ExternRemoteFileOpen, true
	case ExternFileRead:
		return ExternRemoteFileRead, true
	case ExternFileClose:
		return ExternRemoteFileClose, true
	}
	return ExternNone, false
}

// IsRemoteInput reports whether the extern is a remote I/O operation whose
// data flows mobile->server (requires round-trip communication and, per
// Section 5.1, dominates the remote I/O overhead of twolf/gobmk/h264ref).
func (k ExternKind) IsRemoteInput() bool {
	switch k {
	case ExternRemoteFileOpen, ExternRemoteFileRead, ExternRemoteFileClose:
		return true
	}
	return false
}
