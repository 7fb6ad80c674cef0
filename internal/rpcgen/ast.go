// Package rpcgen implements the Sun RPC stub compiler: it parses the XDR
// interface language of RFC 4506 / RFC 1057 (.x files, the input of the
// original rpcgen) and generates
//
//   - Go declarations with their wire descriptions and compiled marshal
//     plans (internal/wire), plus typed client call wrappers and server
//     registration helpers; and
//   - mini-C marshaling routines for the fixed-shape subset, which feed
//     internal/tempo the same way rpcgen's C output fed Tempo.
package rpcgen

import "fmt"

// TypeKind enumerates IDL type shapes.
type TypeKind int

// Type kinds.
const (
	KindInt TypeKind = iota + 1 // int / unsigned int / enum-valued
	KindUint
	KindHyper
	KindUhyper
	KindBool
	KindFloat
	KindDouble
	KindString  // string<bound>
	KindOpaqueF // opaque[n] fixed
	KindOpaqueV // opaque<bound> variable
	KindNamed   // reference to a declared struct/enum/typedef
	KindVoid
)

// TypeRef is a use of a type, possibly wrapped in array/pointer shape.
type TypeRef struct {
	Kind  TypeKind
	Name  string // for KindNamed
	Bound int    // string/opaque bound or array length; 0 = unbounded
	Line  int    // line of the declarator that shaped the type; 0 for a bare use

	// Shape modifiers on the declaration that uses this type.
	FixedArray int  // > 0: T name[n]
	VarArray   bool // T name<bound>; Bound holds the limit (0 = none)
	Optional   bool // T* name
}

// Field is a struct member or procedure argument.
type Field struct {
	Name string
	Type TypeRef
}

// StructDef is a struct declaration.
type StructDef struct {
	Name   string
	Fields []Field
}

// EnumDef is an enum declaration.
type EnumDef struct {
	Name   string
	Consts []EnumConst
}

// EnumConst is one enumerator.
type EnumConst struct {
	Name  string
	Value int64
}

// TypedefDef aliases a (possibly shaped) type.
type TypedefDef struct {
	Name string
	Type TypeRef
}

// UnionArm is one case of a discriminated union.
type UnionArm struct {
	CaseValues []string // constant names or literals; empty = default
	Field      *Field   // nil for void arms
}

// UnionDef is a discriminated union declaration.
type UnionDef struct {
	Name         string
	Discriminant Field
	Arms         []UnionArm
}

// ConstDef is a named constant.
type ConstDef struct {
	Name  string
	Value int64
}

// ProcDef is one remote procedure.
type ProcDef struct {
	Name   string
	Num    uint32
	Arg    TypeRef
	Result TypeRef
}

// VersionDef is one program version.
type VersionDef struct {
	Name  string
	Num   uint32
	Procs []ProcDef
}

// ProgramDef is an RPC program declaration.
type ProgramDef struct {
	Name     string
	Num      uint32
	Versions []VersionDef
}

// Spec is a parsed .x file.
type Spec struct {
	Consts   []ConstDef
	Enums    []EnumDef
	Structs  []StructDef
	Typedefs []TypedefDef
	Unions   []UnionDef
	Programs []ProgramDef

	constVal map[string]int64
	typeDecl map[string]string // name -> "struct"/"enum"/"typedef"/"union"
}

// LookupConst resolves a constant or enumerator name.
func (s *Spec) LookupConst(name string) (int64, bool) {
	v, ok := s.constVal[name]
	return v, ok
}

// declKind reports what sort of declaration name is.
func (s *Spec) declKind(name string) (string, bool) {
	k, ok := s.typeDecl[name]
	return k, ok
}

func (s *Spec) addDecl(name, kind string) error {
	if s.typeDecl == nil {
		s.typeDecl = make(map[string]string)
	}
	if prev, dup := s.typeDecl[name]; dup {
		return fmt.Errorf("rpcgen: %s redeclared (was %s)", name, prev)
	}
	s.typeDecl[name] = kind
	return nil
}

func (s *Spec) addConst(name string, v int64) error {
	if s.constVal == nil {
		s.constVal = make(map[string]int64)
	}
	if _, dup := s.constVal[name]; dup {
		return fmt.Errorf("rpcgen: constant %s redeclared", name)
	}
	s.constVal[name] = v
	return nil
}
