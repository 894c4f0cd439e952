// Package arch describes the simulated processor architectures that the
// Native Offloader reproduction compiles for and executes on.
//
// A Spec captures exactly the architectural properties the paper's memory
// unification has to bridge (Section 2 of the paper): pointer size, byte
// order, and structure alignment rules, plus a cost model that stands in for
// the relative performance of the mobile device and the server (Table 1).
package arch

import "fmt"

// Endianness is the byte order a machine uses for multi-byte values.
type Endianness int

const (
	// Little stores the least significant byte at the lowest address.
	Little Endianness = iota
	// Big stores the most significant byte at the lowest address.
	Big
)

func (e Endianness) String() string {
	if e == Big {
		return "big"
	}
	return "little"
}

// Class partitions primitive values for alignment and cost lookup.
type Class int

const (
	ClassInt8 Class = iota
	ClassInt16
	ClassInt32
	ClassInt64
	ClassFloat32
	ClassFloat64
	ClassPtr
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassInt8:
		return "i8"
	case ClassInt16:
		return "i16"
	case ClassInt32:
		return "i32"
	case ClassInt64:
		return "i64"
	case ClassFloat32:
		return "f32"
	case ClassFloat64:
		return "f64"
	case ClassPtr:
		return "ptr"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Spec describes one simulated machine architecture. It plays the role of
// the back-end compiler's target description in the paper's Figure 1: the
// Native Offloader compiler queries it for layout information, and the
// interpreter uses it to execute "native" code for that machine.
type Spec struct {
	// Name identifies the architecture in reports, e.g. "arm32".
	Name string

	// PointerBytes is the size of a pointer: 4 on 32-bit, 8 on 64-bit
	// machines. The paper's address size conversion (Section 3.2) bridges
	// mobile/server pairs that disagree.
	PointerBytes int

	// Endian is the machine's byte order. The paper's endianness
	// translation (Section 3.2) bridges pairs that disagree.
	Endian Endianness

	// align[c] is the alignment requirement in bytes for class c. Distinct
	// ABIs align the same struct differently (the paper's Figure 4 shows
	// IA32 packing a double at offset 4 where ARM pads to offset 8), which
	// is why layout realignment exists.
	align [numClasses]int

	// size[c] is the storage size in bytes for class c.
	size [numClasses]int

	// CyclePS is the duration of one cost-model cycle in picoseconds.
	// The mobile/server ratio of CyclePS values is the paper's performance
	// ratio R (about 5.4-5.9x in Table 1).
	CyclePS int64

	// Cost is the per-operation cycle cost table.
	Cost CostTable
}

// Align reports the alignment in bytes this architecture requires for the
// given primitive class.
func (s *Spec) Align(c Class) int { return s.align[c] }

// Size reports the storage size in bytes of the given primitive class.
// Only ClassPtr varies between the architectures modelled here.
func (s *Spec) Size(c Class) int { return s.size[c] }

func (s *Spec) String() string {
	return fmt.Sprintf("%s(%d-bit, %s-endian)", s.Name, s.PointerBytes*8, s.Endian)
}

// Fingerprint returns a string covering every property compiled code can
// depend on: identity, pointer size, byte order, cycle time, layout tables
// and the full cost table. Two specs with equal fingerprints produce
// bit-identical compiled programs, which is what lets a compilation cache
// key on the fingerprint rather than on spec pointer identity.
func (s *Spec) Fingerprint() string {
	out := fmt.Sprintf("%s/%d/%s/%d", s.Name, s.PointerBytes, s.Endian, s.CyclePS)
	for c := Class(0); c < numClasses; c++ {
		out += fmt.Sprintf("/%d:%d", s.align[c], s.size[c])
	}
	for op := Op(0); op < numOps; op++ {
		out += fmt.Sprintf("/%d", s.Cost.Cycles(op))
	}
	return out
}

func baseSizes() [numClasses]int {
	var sz [numClasses]int
	sz[ClassInt8] = 1
	sz[ClassInt16] = 2
	sz[ClassInt32] = 4
	sz[ClassInt64] = 8
	sz[ClassFloat32] = 4
	sz[ClassFloat64] = 8
	sz[ClassPtr] = 0 // filled per arch
	return sz
}

// ARM32 models the paper's mobile device: a 32-bit little-endian ARM core
// (Samsung Galaxy S5, Krait 400 at 2.5 GHz). Doubles and 64-bit integers
// align to 8 bytes, pointers are 4 bytes.
//
// The cost table deviates from the scalar default where mobile cores of
// that era genuinely lag desktops by more than the clock ratio: small
// caches (loads/stores), a weaker FPU, and costlier indirect branches.
// The cycle time is calibrated so the *chess* workload reproduces Table 1's
// 5.4-5.9x gap; memory- and float-bound SPEC programs then see a larger
// effective gap, as the paper's near-ideal bars in Figure 6(a) imply.
func ARM32() *Spec {
	s := &Spec{
		Name:         "arm32",
		PointerBytes: 4,
		Endian:       Little,
		CyclePS:      1700,
		Cost:         DefaultCosts(),
	}
	s.Cost.Set(OpLoad, 6)
	s.Cost.Set(OpStore, 6)
	s.Cost.Set(OpFloatALU, 5)
	s.Cost.Set(OpFloatMul, 8)
	s.Cost.Set(OpFloatDiv, 24)
	s.Cost.Set(OpIntDiv, 26)
	s.Cost.Set(OpCallInd, 20)
	s.Cost.Set(OpFptrMap, 52)
	s.Cost.Set(OpIOByte, 40)
	s.size = baseSizes()
	s.size[ClassPtr] = 4
	s.align = [numClasses]int{1, 2, 4, 8, 4, 8, 4}
	return s
}

// X8664 models the paper's server: a 64-bit little-endian x86 desktop
// (Dell XPS 8700, i7-4790 at 3.6 GHz). Pointers are 8 bytes; everything
// aligns naturally.
func X8664() *Spec {
	s := &Spec{
		Name:         "x86-64",
		PointerBytes: 8,
		Endian:       Little,
		CyclePS:      400,
		Cost:         DefaultCosts(),
	}
	s.size = baseSizes()
	s.size[ClassPtr] = 8
	s.align = [numClasses]int{1, 2, 4, 8, 4, 8, 8}
	return s
}

// IA32 models a 32-bit x86 machine whose ABI aligns doubles to only 4 bytes.
// It is the layout counter-example in the paper's Figure 4: the same struct
// {char, char, double} occupies different offsets on IA32 and ARM.
func IA32() *Spec {
	s := &Spec{
		Name:         "ia32",
		PointerBytes: 4,
		Endian:       Little,
		CyclePS:      500,
		Cost:         DefaultCosts(),
	}
	s.size = baseSizes()
	s.size[ClassPtr] = 4
	s.align = [numClasses]int{1, 2, 4, 4, 4, 4, 4}
	return s
}

// POWER32BE models a 32-bit big-endian server. The paper's evaluation pair
// is all little-endian so endianness translation is never charged there;
// this spec exists so the translation path is actually exercised.
func POWER32BE() *Spec {
	s := &Spec{
		Name:         "power32be",
		PointerBytes: 4,
		Endian:       Big,
		CyclePS:      420,
		Cost:         DefaultCosts(),
	}
	s.size = baseSizes()
	s.size[ClassPtr] = 4
	s.align = [numClasses]int{1, 2, 4, 8, 4, 8, 4}
	return s
}

// PerformanceRatio returns how many times faster fast executes a
// representative instruction mix than slow — the paper's R in Equation 1,
// which it measures with the chess application (Table 1: 5.36-5.89x).
// The mix weights approximate an integer/memory/float blend.
func PerformanceRatio(slow, fast *Spec) float64 {
	mix := []struct {
		op Op
		w  float64
	}{
		{OpIntALU, 0.30}, {OpLoad, 0.25}, {OpStore, 0.10}, {OpBranch, 0.10},
		{OpFloatALU, 0.08}, {OpFloatMul, 0.05}, {OpCall, 0.05},
		{OpCallInd, 0.04}, {OpIntMul, 0.03},
	}
	cost := func(s *Spec) float64 {
		var c float64
		for _, m := range mix {
			c += float64(m.w * float64(s.Cost.Cycles(m.op)))
		}
		return c * float64(s.CyclePS)
	}
	return cost(slow) / cost(fast)
}
