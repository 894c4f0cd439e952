// Package ir defines the intermediate representation the Native Offloader
// compiler analyzes and transforms. It is deliberately LLVM-shaped (typed
// values, basic blocks, explicit allocas, address-computation instructions)
// because every pass in the paper (Figure 2) is described as an IR-level
// transformation: partitioning at IR level is what lets one source program
// target both the mobile and the server architecture.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/arch"
)

// Type is the interface implemented by all IR types.
type Type interface {
	String() string
	// Equal reports structural type equality.
	Equal(Type) bool
}

// VoidType is the type of instructions that produce no value.
type VoidType struct{}

// IntType is an integer type of the given bit width (1, 8, 16, 32 or 64).
// Width 1 is the result type of comparisons.
type IntType struct{ Bits int }

// FloatType is a floating point type of 32 or 64 bits.
type FloatType struct{ Bits int }

// PointerType points to values of type Elem. Pointers to FuncType values
// are function pointers, the subject of the paper's Section 3.4 mapping.
type PointerType struct{ Elem Type }

// ArrayType is a fixed-length sequence of Elem values.
type ArrayType struct {
	Elem Type
	Len  int
}

// StructField is one named member of a struct type.
type StructField struct {
	Name string
	Type Type
}

// StructType is a C-like struct. Field offsets are not part of the type:
// they are computed per target architecture by Layout, which is exactly the
// ambiguity the paper's memory layout realignment (Section 3.2, Figure 4)
// removes.
type StructType struct {
	Name   string
	Fields []StructField
}

// FuncType is a function signature.
type FuncType struct {
	Params []Type
	Ret    Type // VoidType for none
}

// Canonical singleton types. Types with parameters (pointer, array, struct,
// func) are built with the constructors below.
var (
	Void = &VoidType{}
	I1   = &IntType{Bits: 1}
	I8   = &IntType{Bits: 8}
	I16  = &IntType{Bits: 16}
	I32  = &IntType{Bits: 32}
	I64  = &IntType{Bits: 64}
	F32  = &FloatType{Bits: 32}
	F64  = &FloatType{Bits: 64}
)

// Ptr returns the pointer type *elem.
func Ptr(elem Type) *PointerType { return &PointerType{Elem: elem} }

// Array returns the array type [n]elem.
func Array(elem Type, n int) *ArrayType { return &ArrayType{Elem: elem, Len: n} }

// Struct returns a named struct type with the given fields.
func Struct(name string, fields ...StructField) *StructType {
	return &StructType{Name: name, Fields: fields}
}

// Signature returns a function type.
func Signature(ret Type, params ...Type) *FuncType {
	return &FuncType{Params: params, Ret: ret}
}

func (*VoidType) String() string    { return "void" }
func (t *IntType) String() string   { return fmt.Sprintf("i%d", t.Bits) }
func (t *FloatType) String() string { return fmt.Sprintf("f%d", t.Bits) }
func (t *PointerType) String() string {
	return "*" + t.Elem.String()
}
func (t *ArrayType) String() string {
	return fmt.Sprintf("[%d]%s", t.Len, t.Elem.String())
}
func (t *StructType) String() string {
	if t.Name != "" {
		return "%" + t.Name
	}
	parts := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		parts[i] = f.Type.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (t *FuncType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	return fmt.Sprintf("func(%s) %s", strings.Join(parts, ", "), t.Ret.String())
}

func (*VoidType) Equal(o Type) bool { _, ok := o.(*VoidType); return ok }
func (t *IntType) Equal(o Type) bool {
	u, ok := o.(*IntType)
	return ok && t.Bits == u.Bits
}
func (t *FloatType) Equal(o Type) bool {
	u, ok := o.(*FloatType)
	return ok && t.Bits == u.Bits
}
func (t *PointerType) Equal(o Type) bool {
	u, ok := o.(*PointerType)
	return ok && t.Elem.Equal(u.Elem)
}
func (t *ArrayType) Equal(o Type) bool {
	u, ok := o.(*ArrayType)
	return ok && t.Len == u.Len && t.Elem.Equal(u.Elem)
}
func (t *StructType) Equal(o Type) bool {
	u, ok := o.(*StructType)
	if !ok || len(t.Fields) != len(u.Fields) || t.Name != u.Name {
		return false
	}
	for i := range t.Fields {
		if !t.Fields[i].Type.Equal(u.Fields[i].Type) {
			return false
		}
	}
	return true
}
func (t *FuncType) Equal(o Type) bool {
	u, ok := o.(*FuncType)
	if !ok || len(t.Params) != len(u.Params) || !t.Ret.Equal(u.Ret) {
		return false
	}
	for i := range t.Params {
		if !t.Params[i].Equal(u.Params[i]) {
			return false
		}
	}
	return true
}

// IsPointer reports whether t is a pointer type.
func IsPointer(t Type) bool { _, ok := t.(*PointerType); return ok }

// IsInt reports whether t is an integer type.
func IsInt(t Type) bool { _, ok := t.(*IntType); return ok }

// IsFloat reports whether t is a floating point type.
func IsFloat(t Type) bool { _, ok := t.(*FloatType); return ok }

// ClassOf maps a scalar IR type to its architecture primitive class.
// It panics on aggregate or void types, which have no single class.
func ClassOf(t Type) arch.Class {
	switch t := t.(type) {
	case *IntType:
		switch t.Bits {
		case 1, 8:
			return arch.ClassInt8
		case 16:
			return arch.ClassInt16
		case 32:
			return arch.ClassInt32
		case 64:
			return arch.ClassInt64
		}
	case *FloatType:
		if t.Bits == 32 {
			return arch.ClassFloat32
		}
		return arch.ClassFloat64
	case *PointerType:
		return arch.ClassPtr
	}
	panic(fmt.Sprintf("ir: no primitive class for type %s", t))
}
