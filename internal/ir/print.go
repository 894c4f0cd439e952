package ir

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// String renders the module as readable IR text, for debugging and golden
// tests.
func (m *Module) String() string {
	var sb strings.Builder
	m.WriteTo(&sb)
	return sb.String()
}

// WriteTo writes the module's text — String's, byte for byte — to w as it
// renders it, so a consumer that only reads the text (a hash) never holds
// all of it.
func (m *Module) WriteTo(w io.Writer) (int64, error) {
	p := &printer{w: w}
	p.printf("module %s (stack 0x%x", m.Name, m.StackBase)
	if m.Unified {
		p.WriteString(", unified")
	}
	p.WriteString(")\n")
	for _, st := range m.NamedStructs() {
		p.printf("type %%%s {", st.Name)
		for i, f := range st.Fields {
			if i > 0 {
				p.WriteString(", ")
			}
			p.printf("%s %s", f.Name, f.Type)
		}
		p.WriteString("}\n")
	}
	for _, g := range m.Globals {
		g.writeDecl(p)
		p.WriteString("\n")
	}
	for _, f := range m.Funcs {
		if f.IsExtern() {
			continue
		}
		p.WriteString("\n")
		f.writeTo(p)
	}
	externs := make([]string, 0)
	for _, f := range m.Funcs {
		if f.IsExtern() {
			externs = append(externs, fmt.Sprintf("declare @%s %s", f.Nam, f.Sig))
		}
	}
	sort.Strings(externs)
	if len(externs) > 0 {
		p.WriteString("\n")
		for _, e := range externs {
			p.WriteString(e)
			p.WriteString("\n")
		}
	}
	return p.n, p.err
}

// printer is the writer the IR text goes through: it counts what it wrote
// and keeps the first error, after which it writes nothing.
type printer struct {
	w   io.Writer
	n   int64
	err error
}

func (p *printer) Write(b []byte) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	n, err := p.w.Write(b)
	p.n += int64(n)
	p.err = err
	return n, err
}

func (p *printer) WriteString(s string) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	n, err := io.WriteString(p.w, s)
	p.n += int64(n)
	p.err = err
	return n, err
}

func (p *printer) printf(format string, args ...any) {
	fmt.Fprintf(p, format, args...)
}

func (g *Global) writeDecl(p *printer) {
	p.printf("global @%s %s", g.Nam, g.Elem)
	if g.Home == HomeUVA {
		p.printf(" uva(0x%x)", g.UVAAddr)
	}
	switch {
	case len(g.InitBytes) > 0:
		p.printf(" = %q", string(g.InitBytes))
	case len(g.Init) > 0:
		p.WriteString(" = [")
		for i, v := range g.Init {
			if i > 0 {
				p.WriteString(", ")
			}
			p.WriteString(v.Ident())
		}
		p.WriteString("]")
	}
}

// String renders the function body.
func (f *Func) String() string {
	var sb strings.Builder
	f.writeTo(&printer{w: &sb})
	return sb.String()
}

func (f *Func) writeTo(p *printer) {
	p.printf("func @%s(", f.Nam)
	for i, prm := range f.Params {
		if i > 0 {
			p.WriteString(", ")
		}
		p.printf("%%%s %s", prm.Nam, prm.Typ)
	}
	p.printf(") %s", f.Sig.Ret)
	if f.TaskID != 0 {
		p.printf(" task(%d)", f.TaskID)
	}
	p.WriteString(" {\n")
	for _, b := range f.Blocks {
		p.WriteString(b.Nam)
		p.WriteString(":\n")
		for _, in := range b.Instrs {
			p.WriteString("  ")
			writeInstr(p, in)
			p.WriteString("\n")
		}
	}
	p.WriteString("}\n")
}

func writeInstr(p *printer, in Instr) {
	if _, isVoid := in.Type().(*VoidType); !isVoid {
		p.WriteString(in.Ident())
		p.WriteString(" = ")
	}
	switch in := in.(type) {
	case *Alloca:
		p.printf("alloca %s", in.Elem)
	case *Load:
		p.printf("load %s %s%s", in.Elem, in.Ptr.Ident(), laySuffix(in.Lay))
	case *Store:
		p.printf("store %s -> %s%s", in.Val.Ident(), in.Ptr.Ident(), laySuffix(in.Lay))
	case *Bin:
		p.printf("%s %s, %s", in.Op, in.X.Ident(), in.Y.Ident())
	case *Cmp:
		p.printf("cmp %s %s, %s", in.Pred, in.X.Ident(), in.Y.Ident())
	case *FieldAddr:
		p.printf("field %s, %d (+%d)", in.Ptr.Ident(), in.Field, in.Offset)
	case *IndexAddr:
		p.printf("index %s, %s (*%d)", in.Ptr.Ident(), in.Index.Ident(), in.Stride)
	case *Call:
		p.printf("call @%s(", in.Callee.Nam)
		writeIdents(p, in.Args)
		p.WriteString(")")
	case *CallInd:
		p.WriteString("callind")
		if in.Mapped {
			p.WriteString(" mapped")
		}
		p.printf(" %s(", in.Fn.Ident())
		writeIdents(p, in.Args)
		p.WriteString(")")
	case *Convert:
		p.printf("%s %s to %s", in.Kind, in.Val.Ident(), in.To)
	case *FuncAddr:
		p.printf("funcaddr @%s", in.Callee.Nam)
	case *Br:
		p.printf("br %s", in.Dst.Nam)
	case *CondBr:
		p.printf("condbr %s, %s, %s", in.Cond.Ident(), in.Then.Nam, in.Else.Nam)
	case *Ret:
		if in.Val == nil {
			p.WriteString("ret")
		} else {
			p.printf("ret %s", in.Val.Ident())
		}
	default:
		p.printf("<unknown %T>", in)
	}
}

func laySuffix(l MemLayout) string {
	if l.Size == 0 {
		return ""
	}
	s := fmt.Sprintf(" [%db", l.Size)
	if l.Swap {
		s += " swap"
	}
	if l.Widen {
		s += " widen"
	}
	return s + "]"
}

func writeIdents(p *printer, vs []Value) {
	for i, v := range vs {
		if i > 0 {
			p.WriteString(", ")
		}
		p.WriteString(v.Ident())
	}
}
