package offrt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/netsim"
)

// These tests run the system with one unification/partition mechanism
// removed and check that execution actually breaks — demonstrating that
// each of the paper's Section 3.2/3.3 mechanisms is load-bearing, not
// ceremonial.

// buildStackSensitive builds a program whose result depends on a stack
// local that lives across the offloaded call:
//
//	main: x := 42 (alloca); hot(n) scribbles over a large frame; return *x.
func buildStackSensitive() *ir.Module {
	mod := ir.NewModule("stack")
	b := ir.NewBuilder(mod)

	hot := b.NewFunc("hot", ir.I64, ir.P("n", ir.I32))
	{
		// A frame big enough to cover the caller's stack page when both
		// stacks share a base.
		scratch := b.Alloca(ir.Array(ir.I64, 2048))
		base := b.Index(b.Convert(ir.ConvBitcast, scratch, ir.Ptr(ir.I64)), ir.Int(0))
		acc := b.Alloca(ir.I64)
		b.Store(acc, ir.Int64(0))
		b.For("scrub", ir.Int(0), ir.Int(2048), ir.Int(1), func(i ir.Value) {
			p := b.Index(base, i)
			b.Store(p, ir.Int64(0x5A5A5A5A5A5A5A5A))
			b.Store(acc, b.Xor(b.Load(acc), b.Load(p)))
		})
		// Heavy enough to be selected.
		b.For("spin", ir.Int(0), b.Mul(b.F.Params[0], ir.Int(2000)), ir.Int(1), func(i ir.Value) {
			b.Store(acc, b.Add(b.Load(acc), ir.Int64(1)))
		})
		b.Ret(b.Load(acc))
	}

	b.NewFunc("main", ir.I32)
	x := b.Alloca(ir.I32)
	b.Store(x, ir.Int(42))
	b.Call(hot, ir.Int(10))
	b.Ret(b.Load(x))
	b.Finish()
	return mod
}

// runPair runs one forced-offload session over the pair on the fast link.
func runPair(t *testing.T, p *pair) (int32, error) {
	t.Helper()
	return p.session(t, netsim.Fast80211AC(), Policy{ForceOffload: true}).sess.RunMobile()
}

func TestStackReallocationIsLoadBearing(t *testing.T) {
	guest := guestAt("stack", buildStackSensitive, 2000)
	bw := netsim.Fast80211AC().BandwidthBps

	// With the compiler's stack reallocation: the caller's local survives.
	p := partition(t, guest, bw)
	if p.cres.Server.StackBase == p.cres.Mobile.StackBase {
		t.Fatal("precondition: compiler should have relocated the server stack")
	}
	code, err := runPair(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if code != 42 {
		t.Fatalf("with stack reallocation: got %d, want 42", code)
	}

	// Without it (server stack back at the mobile base): the offloaded
	// task's frames overwrite the caller's live stack page, and the dirty
	// write-back carries the corruption home.
	p2 := partition(t, guest, bw)
	p2.cres.Server.StackBase = p2.cres.Mobile.StackBase
	p2.bind(t)
	code2, err := runPair(t, p2)
	if err == nil && code2 == 42 {
		t.Fatal("without stack reallocation the caller's local survived; the overlap bug did not manifest")
	}
	t.Logf("without stack reallocation: code=%d err=%v (corruption as expected)", code2, err)
}

// buildLayoutSensitive returns a program whose offloaded task reads a
// struct with architecture-sensitive layout ({i8, i64} pairs) written by
// the mobile side.
func buildLayoutSensitive() *ir.Module {
	mod := ir.NewModule("layout")
	b := ir.NewBuilder(mod)
	rec := ir.Struct("Rec",
		ir.StructField{Name: "tag", Type: ir.I8},
		ir.StructField{Name: "val", Type: ir.I64},
	)
	arr := b.GlobalVar("recs", ir.Ptr(rec))

	hot := b.NewFunc("hot", ir.I64, ir.P("n", ir.I32))
	{
		acc := b.Alloca(ir.I64)
		b.Store(acc, ir.Int64(0))
		r := b.Load(arr)
		b.For("sum", ir.Int(0), b.Mul(b.F.Params[0], ir.Int(400)), ir.Int(1), func(i ir.Value) {
			p := b.Index(r, b.Rem(i, ir.Int(64)))
			b.Store(acc, b.Add(b.Load(acc), b.Load(b.Field(p, 1))))
		})
		b.Ret(b.Load(acc))
	}

	b.NewFunc("main", ir.I32)
	raw := b.CallExtern(ir.ExternMalloc, ir.Int(64*16))
	r := b.Convert(ir.ConvBitcast, raw, ir.Ptr(rec))
	b.Store(arr, r)
	b.For("init", ir.Int(0), ir.Int(64), ir.Int(1), func(i ir.Value) {
		p := b.Index(r, i)
		b.Store(b.Field(p, 0), ir.Int8(1))
		b.Store(b.Field(p, 1), ir.Int64(7))
	})
	v := b.Call(hot, ir.Int(20))
	b.Ret(b.Convert(ir.ConvTrunc, v, ir.I32))
	b.Finish()
	return mod
}

func TestLayoutRealignmentIsLoadBearing(t *testing.T) {
	guest := guestAt("layout", buildLayoutSensitive, 3000)
	bw := netsim.Fast80211AC().BandwidthBps

	want, err := runPair(t, partition(t, guest, bw))
	if err != nil {
		t.Fatal(err)
	}
	if want != 64*7*20*400/64 {
		t.Fatalf("with realignment: got %d, want %d", want, 64*7*20*400/64)
	}

	// Break realignment: re-lower the server binary against an IA32-style
	// layout that packs the i64 at offset 4 instead of 8 — the Figure 4
	// situation. The server now reads val from the wrong offset.
	p2 := partition(t, guest, bw)
	ir.Lower(p2.cres.Server, arch.X8664(), arch.IA32())
	p2.bind(t)
	got, err := runPair(t, p2)
	if err == nil && got == want {
		t.Fatal("without layout realignment the server still read correct data; the Figure 4 bug did not manifest")
	}
	t.Logf("without realignment: code=%d err=%v (garbage as expected)", got, err)
}
