package interp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/mem"
)

// callExtern dispatches a call to a body-less function.
func (m *Machine) callExtern(f *ir.Func, args []uint64) (uint64, error) {
	if f.Extern == ir.ExternAccept && m.Sys != nil {
		// The server waits for its next request: the fast engine suspends
		// (see externFrom), which the recursive reference engine cannot.
		if m.Engine == EngineRef {
			return 0, fmt.Errorf("interp(%s): %s cannot suspend a machine on the reference engine", m.Name, f.Nam)
		}
		return 0, errAccept
	}
	if l := m.Listener; l != nil {
		// Externs are entries and exits too: time spent in remote I/O or the
		// offload externs is the extern's in a profile, not its caller's.
		l.EnterFunc(m, f)
		defer l.ExitFunc(m, f)
	}
	switch f.Extern {
	case ir.ExternMalloc:
		m.charge(arch.OpCall, 1, CompCompute)
		p, err := m.LocalHeap.Alloc(uint32(args[0]))
		return uint64(p), err
	case ir.ExternUMalloc:
		m.charge(arch.OpCall, 1, CompCompute)
		p, err := m.Heap.Alloc(uint32(args[0]))
		return uint64(p), err
	case ir.ExternFree:
		m.charge(arch.OpCall, 1, CompCompute)
		return 0, m.LocalHeap.Free(uint32(args[0]))
	case ir.ExternUFree:
		m.charge(arch.OpCall, 1, CompCompute)
		return 0, m.Heap.Free(uint32(args[0]))

	case ir.ExternPrintf:
		s, err := m.formatPrintf(args)
		if err != nil {
			return 0, err
		}
		m.charge(arch.OpIOByte, int64(len(s)), CompCompute)
		m.IO.Write(s)
		return uint64(len(s)), nil

	case ir.ExternRemotePrintf:
		s, err := m.formatPrintf(args)
		if err != nil {
			return 0, err
		}
		if m.Sys != nil {
			if err := m.Sys.RemoteWrite(m, s); err != nil {
				return 0, err
			}
			return uint64(len(s)), nil
		}
		// Local execution of the offloading-enabled binary: the remote
		// output function just runs locally.
		m.charge(arch.OpIOByte, int64(len(s)), CompCompute)
		m.IO.Write(s)
		return uint64(len(s)), nil

	case ir.ExternScanf:
		return m.runScanf(args)

	case ir.ExternFileOpen, ir.ExternRemoteFileOpen:
		name, err := m.readCString(uint32(args[0]))
		if err != nil {
			return 0, err
		}
		m.charge(arch.OpCall, 1, CompCompute)
		if f.Extern == ir.ExternRemoteFileOpen && m.Sys != nil {
			fd, err := m.Sys.RemoteOpen(m, name)
			return uint64(fd), err
		}
		fd, err := m.IO.Open(name)
		return uint64(fd), err

	case ir.ExternFileRead, ir.ExternRemoteFileRead:
		fd := int32(args[0])
		buf := uint32(args[1])
		n := int(int32(args[2]))
		if f.Extern == ir.ExternRemoteFileRead && m.Sys != nil {
			data, err := m.Sys.RemoteRead(m, fd, n)
			if err != nil {
				return 0, err
			}
			if err := m.Mem.WriteBytes(buf, data); err != nil {
				return 0, err
			}
			return uint64(len(data)), nil
		}
		left, err := m.IO.Left(fd)
		if err != nil {
			return 0, err
		}
		n = max(0, min(n, left))
		// Bulk file input is DMA-like: charge per cache line, not per byte
		// (printf-style I/O keeps the per-byte cost).
		m.charge(arch.OpIOByte, int64(n/256+1), CompCompute)
		// The file's bytes are made in the guest's pages.
		if err := m.Mem.Fill(buf, n, func(dst []byte) error {
			_, err := m.IO.Read(fd, dst)
			return err
		}); err != nil {
			return 0, err
		}
		return uint64(n), nil

	case ir.ExternFileClose, ir.ExternRemoteFileClose:
		m.charge(arch.OpCall, 1, CompCompute)
		fd := int32(args[0])
		if f.Extern == ir.ExternRemoteFileClose && m.Sys != nil {
			return 0, m.Sys.RemoteClose(m, fd)
		}
		return 0, m.IO.Close(fd)

	case ir.ExternExit:
		return 0, &ExitError{Code: int32(args[0])}

	case ir.ExternMemcpy:
		// Bulk copies run at cacheline granularity, like real memcpy.
		dst, src, n := uint32(args[0]), uint32(args[1]), int(int32(args[2]))
		m.charge(arch.OpLoad, int64(n)/64+1, CompCompute)
		m.charge(arch.OpStore, int64(n)/64+1, CompCompute)
		data, err := m.Mem.ReadBytes(src, n)
		if err != nil {
			return 0, err
		}
		return uint64(dst), m.Mem.WriteBytes(dst, data)

	case ir.ExternMemset:
		dst, c, n := uint32(args[0]), byte(args[1]), int(int32(args[2]))
		m.charge(arch.OpStore, int64(n)/64+1, CompCompute)
		return uint64(dst), m.memset(dst, c, n)

	case ir.ExternAsm, ir.ExternSyscall, ir.ExternUnknown:
		// Machine-specific work: legal on the machine it was written for.
		m.charge(arch.OpIntALU, 50, CompCompute)
		return 0, nil

	case ir.ExternGate:
		if m.Sys == nil {
			return 0, nil // no runtime attached: never offload
		}
		if m.Sys.Gate(m, int32(args[0])) {
			return 1, nil
		}
		return 0, nil

	case ir.ExternOffload:
		if m.Sys == nil {
			return 0, fmt.Errorf("interp(%s): no.offload without a runtime", m.Name)
		}
		return m.Sys.Offload(m, int32(args[0]), args[1:])

	case ir.ExternAccept:
		return 0, nil // no runtime: shut down immediately

	case ir.ExternArg:
		if m.Sys == nil {
			return 0, fmt.Errorf("interp(%s): no.arg without a runtime", m.Name)
		}
		return m.Sys.Arg(m, int32(args[0])), nil

	case ir.ExternSendReturn:
		if m.Sys == nil {
			return 0, fmt.Errorf("interp(%s): no.sendreturn without a runtime", m.Name)
		}
		return 0, m.Sys.SendReturn(m, args[0])

	case ir.ExternFptrToM:
		// Explicit function-pointer map call; the usual path is a Mapped
		// CallInd, but the extern exists for hand-written tests.
		m.charge(arch.OpFptrMap, 1, CompFptr)
		return args[0], nil
	}
	return 0, fmt.Errorf("interp(%s): call to unimplemented extern %s", m.Name, f.Nam)
}

// memset fills n bytes at dst with c, one page at a time from a page of c on
// the stack: each page is written — faulted in, touched, dirtied — once and
// in ascending order, as one WriteBytes of the whole range would.
func (m *Machine) memset(dst uint32, c byte, n int) error {
	var fill [mem.PageSize]byte
	if c != 0 {
		for i := range fill {
			fill[i] = c
		}
	}
	for n > 0 {
		k := min(n, mem.PageSize-int(dst&(mem.PageSize-1)))
		if err := m.Mem.WriteBytes(dst, fill[:k]); err != nil {
			return err
		}
		dst += uint32(k)
		n -= k
	}
	return nil
}

// formatPrintf implements the printf subset the workloads use:
// %d %u %c %x %s %f %lf %g %e %% with optional width/precision digits.
func (m *Machine) formatPrintf(args []uint64) (string, error) {
	if len(args) == 0 {
		return "", fmt.Errorf("interp: printf without format")
	}
	format, err := m.readCString(uint32(args[0]))
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	argi := 1
	nextArg := func() (uint64, error) {
		if argi >= len(args) {
			return 0, fmt.Errorf("interp: printf %q: missing argument %d", format, argi)
		}
		v := args[argi]
		argi++
		return v, nil
	}
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			i++
			continue
		}
		// Collect the spec: flags/width/precision plus length modifiers.
		j := i + 1
		spec := "%"
		for j < len(format) && strings.ContainsRune("-+ 0123456789.", rune(format[j])) {
			spec += string(format[j])
			j++
		}
		for j < len(format) && (format[j] == 'l' || format[j] == 'h') {
			j++ // length modifiers are irrelevant at 64-bit register width
		}
		if j >= len(format) {
			sb.WriteString(spec)
			break
		}
		verb := format[j]
		i = j + 1
		switch verb {
		case '%':
			sb.WriteByte('%')
		case 'd', 'i':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, spec+"d", int64(v))
		case 'u':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, spec+"d", v)
		case 'x':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, spec+"x", v)
		case 'c':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			sb.WriteByte(byte(v))
		case 'f', 'g', 'e':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, spec+string(verb), math.Float64frombits(v))
		case 's':
			v, err := nextArg()
			if err != nil {
				return "", err
			}
			s, err := m.readCString(uint32(v))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, spec+"s", s)
		default:
			return "", fmt.Errorf("interp: printf verb %%%c unsupported", verb)
		}
	}
	return sb.String(), nil
}

// runScanf implements scanf for %d, %ld, %lf conversions; arguments are
// pointers to the destinations. It is always a local (mobile) operation:
// the function filter never lets scanf move to the server.
func (m *Machine) runScanf(args []uint64) (uint64, error) {
	format, err := m.readCString(uint32(args[0]))
	if err != nil {
		return 0, err
	}
	m.charge(arch.OpIOByte, int64(len(format))+8, CompCompute)
	argi := 1
	stored := uint64(0)
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		long := false
		j := i + 1
		for j < len(format) && format[j] == 'l' {
			long = true
			j++
		}
		if j >= len(format) {
			break
		}
		if argi >= len(args) {
			return stored, fmt.Errorf("interp: scanf %q: missing destination", format)
		}
		dst := uint32(args[argi])
		argi++
		switch format[j] {
		case 'd':
			v, ok := m.IO.NextInt()
			if !ok {
				return stored, fmt.Errorf("interp: scanf: stdin exhausted for %q", format)
			}
			t := ir.Type(ir.I32)
			if long {
				t = ir.I64
			}
			if err := m.writeScalar(dst, t, uint64(v)); err != nil {
				return stored, err
			}
		case 'f':
			v, ok := m.IO.NextFloat()
			if !ok {
				return stored, fmt.Errorf("interp: scanf: stdin exhausted for %q", format)
			}
			if err := m.writeScalar(dst, ir.F64, math.Float64bits(v)); err != nil {
				return stored, err
			}
		default:
			return stored, fmt.Errorf("interp: scanf verb %%%c unsupported", format[j])
		}
		stored++
		i = j
	}
	return stored, nil
}
