// Package wire is the codec layer between type descriptions and the live
// transport: a wire.Type — the XDR rpcgen parses (ints, fixed and
// counted arrays, strings, opaque data, structs, discriminated unions,
// optional data and linked lists; void is the empty struct) — compiles
// into a marshal plan that encodes and decodes real Go values against
// the internal/xdr streams.
//
// The package transplants the paper's §5 comparison (Muller et al.,
// ICDCS'98) onto the production hot path. One description compiles into
// two interchangeable codecs:
//
//   - Generic: an interpretive tree-walker. Every leaf dispatches on the
//     handle mode and funnels through the Stream interface one 4-byte
//     unit at a time, with a bounds check per unit — the micro-layered
//     cost profile of the original Sun RPC stubs.
//   - Specialized: a flat plan. Field offsets, loop strides, and run
//     lengths are resolved at compile time into a linear instruction
//     array; adjacent fixed-size fields fuse into single runs, each run
//     pays one bounds check, and fixed opaque data becomes one memcpy.
//     This is the paper's fully specialized stub rendered as data.
//
// Both produce byte-identical wire data, so they interoperate freely: a
// Generic client can call a Specialized server and vice versa. (The
// paper's third configuration, bounded unrolling, lives in the model
// track — internal/core.Chunked and sunbench -table 4 — where its
// i-cache effect is real; live it measured no different from
// Specialized and was retired.)
//
// Every specialized back end starts from one lowering of the Type tree
// (Lower, in compile.go): fuse places its layout-free steps for the
// interpreter here, and rpcgen's compiled-stub emitter prints the same
// steps as Go source, so a shape is described and walked once however
// it ends up executed. The package is the runtime that transports and
// generated stubs link; generation lives in rpcgen.
//
// In the five-layer specialization stack (see DESIGN.md) this is layer
// 3, the stub layer: it compiles type descriptions down onto the
// internal/xdr streams and the internal/rpcmsg header templates, and
// its fused whole-call plans are what the internal/client and
// internal/server fast paths execute.
package wire

import (
	"errors"
	"fmt"

	"specrpc/internal/xdr"
)

// Kind enumerates the wire-level shapes a Type can take.
type Kind uint8

// Type kinds. The scalar kinds through Float64 are the XDR basic types;
// the remaining kinds are the composite shapes of RFC 4506.
const (
	Int32 Kind = iota + 1 // 32-bit signed (xdr_int/xdr_long/xdr_enum)
	Uint32
	Bool // 32-bit 0/1 on the wire, Go bool in memory
	Float32
	Hyper  // 64-bit signed, two 4-byte units most significant first
	Uhyper // 64-bit unsigned
	Float64
	String      // counted bytes + pad; Bound limits the count
	OpaqueFixed // Len raw bytes + pad, length not on the wire
	OpaqueVar   // counted raw bytes + pad; Bound limits the count
	FixedArray  // Len elements of Elem, length not on the wire
	VarArray    // 4-byte count + elements of Elem; Bound limits the count
	Struct      // Fields in order
	Union       // 4-byte discriminant (Fields[0]), then the arm it selects
	Optional    // 4-byte flag, then Elem when the flag is nonzero; a Go *T; a list's link (ListT) when Elem is the struct it ends
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Int32:
		return "int32"
	case Uint32:
		return "uint32"
	case Bool:
		return "bool"
	case Float32:
		return "float32"
	case Hyper:
		return "hyper"
	case Uhyper:
		return "uhyper"
	case Float64:
		return "double"
	case String:
		return "string"
	case OpaqueFixed:
		return "opaque[n]"
	case OpaqueVar:
		return "opaque<>"
	case FixedArray:
		return "array[n]"
	case VarArray:
		return "array<>"
	case Struct:
		return "struct"
	case Union:
		return "union"
	case Optional:
		return "optional"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Type describes one wire shape. Descriptions are trees: arrays carry an
// element type, structs carry fields. A Type is immutable once built and
// safe to share between plans.
type Type struct {
	// Kind selects the shape; the remaining fields apply per kind.
	Kind Kind
	// Name labels structs in error messages (and documents intent).
	Name string
	// Len is the fixed length for OpaqueFixed and FixedArray.
	Len int
	// Bound limits the decoded count for String, OpaqueVar, and VarArray;
	// 0 means unbounded.
	Bound uint32
	// Elem is the element type for FixedArray, VarArray and Optional.
	Elem *Type
	// Fields are the struct members, in wire order; a union's one field
	// is its discriminant.
	Fields []Field
	// Arms are a union's cases, in declaration order.
	Arms []Arm
}

// Field is one struct member.
type Field struct {
	// Name is the IDL field name; it is checked loosely (case and
	// underscores ignored) against the Go field name at compile time.
	Name string
	// Type is the member's wire shape.
	Type *Type
}

// Arm is one case of a union: the discriminant values that select it,
// or the default that every value no other arm lists selects, and its
// member (a Field with a nil Type for a void arm). A union is bound to a
// Go struct holding the discriminant and then each non-void arm's
// member, in declaration order.
type Arm struct {
	Cases   []int64
	Default bool
	Field   Field
}

// Shared scalar singletons: scalars carry no per-use state, so every
// constructor below returns the same description.
var (
	int32T   = &Type{Kind: Int32}
	uint32T  = &Type{Kind: Uint32}
	boolT    = &Type{Kind: Bool}
	float32T = &Type{Kind: Float32}
	hyperT   = &Type{Kind: Hyper}
	uhyperT  = &Type{Kind: Uhyper}
	float64T = &Type{Kind: Float64}
	voidT    = &Type{Kind: Struct, Name: "void"}
)

// Int32T describes a 32-bit signed integer (also XDR enums: they are
// int32 on the wire).
func Int32T() *Type { return int32T }

// Uint32T describes a 32-bit unsigned integer.
func Uint32T() *Type { return uint32T }

// BoolT describes an XDR bool (a 4-byte 0/1 unit).
func BoolT() *Type { return boolT }

// Float32T describes an IEEE-754 single.
func Float32T() *Type { return float32T }

// HyperT describes a 64-bit signed integer.
func HyperT() *Type { return hyperT }

// UhyperT describes a 64-bit unsigned integer.
func UhyperT() *Type { return uhyperT }

// Float64T describes an IEEE-754 double.
func Float64T() *Type { return float64T }

// StringT describes a counted string; bound 0 means unbounded.
func StringT(bound uint32) *Type { return &Type{Kind: String, Bound: bound} }

// OpaqueFixedT describes opaque[n]: exactly n raw bytes plus padding.
func OpaqueFixedT(n int) *Type { return &Type{Kind: OpaqueFixed, Len: n} }

// OpaqueVarT describes opaque<bound>: counted raw bytes plus padding;
// bound 0 means unbounded.
func OpaqueVarT(bound uint32) *Type { return &Type{Kind: OpaqueVar, Bound: bound} }

// FixedArrayT describes elem[n]: n elements with no count on the wire.
func FixedArrayT(n int, elem *Type) *Type {
	return &Type{Kind: FixedArray, Len: n, Elem: elem}
}

// VarArrayT describes elem<bound>: a 4-byte count followed by the
// elements; bound 0 means unbounded.
func VarArrayT(bound uint32, elem *Type) *Type {
	return &Type{Kind: VarArray, Bound: bound, Elem: elem}
}

// StructT describes a struct with the given fields in wire order.
func StructT(name string, fields ...Field) *Type {
	return &Type{Kind: Struct, Name: name, Fields: fields}
}

// F builds one struct field.
func F(name string, t *Type) Field { return Field{Name: name, Type: t} }

// VoidT describes void, the empty program: a struct of no fields, bound
// to struct{}. It is a procedure's argument or result side that carries
// nothing; a union's void arm is an Arm without a member instead.
func VoidT() *Type { return voidT }

// OptionalT describes optional data (elem *name): a 4-byte flag, then
// elem when the flag is nonzero, bound to a Go *T.
func OptionalT(elem *Type) *Type { return &Type{Kind: Optional, Elem: elem} }

// ListT describes a linked list's node, the one shape that reaches
// itself: a struct of fields in wire order, then next, optional data
// whose pointee is the struct itself (struct name { ...; name *next; }).
// It binds to a Go struct whose last field points at the struct. The
// description is cyclic; it lowers to the fields' steps followed by one
// OpChain step, which every engine runs as a loop.
func ListT(name, next string, fields ...Field) *Type {
	t := &Type{Kind: Struct, Name: name}
	t.Fields = append(fields[:len(fields):len(fields)], F(next, OptionalT(t)))
	return t
}

// chain reports whether t is a list node (ListT): a struct whose last
// field is optional data pointing back at t.
func (t *Type) chain() bool {
	if t.Kind != Struct || len(t.Fields) == 0 {
		return false
	}
	last := t.Fields[len(t.Fields)-1].Type
	return last != nil && last.Kind == Optional && last.Elem == t
}

// UnionT describes a discriminated union: disc, a 4-byte int or
// unsigned (an enum is an int), then the member of the arm its value
// selects. A value no arm lists and no default covers is
// xdr.ErrBadUnion.
func UnionT(name string, disc Field, arms ...Arm) *Type {
	return &Type{Kind: Union, Name: name, Fields: []Field{disc}, Arms: arms}
}

// Case builds the arm the values select, whose member is name of type
// t; a nil t makes it a void arm.
func Case(name string, t *Type, values ...int64) Arm {
	return Arm{Cases: values, Field: Field{Name: name, Type: t}}
}

// Default builds a union's default arm, whose member is name of type
// t; a nil t makes it a void arm.
func Default(name string, t *Type) Arm {
	return Arm{Default: true, Field: Field{Name: name, Type: t}}
}

// Members lists the Go fields a Struct or Union is bound to, in order: a
// struct's fields, or a union's discriminant followed by the member of
// each non-void arm. A step's path indexes this list.
func (t *Type) Members() []Field {
	if t.Kind != Union {
		return t.Fields
	}
	out := append([]Field(nil), t.Fields...)
	for _, a := range t.Arms {
		if a.Field.Type != nil {
			out = append(out, a.Field)
		}
	}
	return out
}

// armMember reports, for each of a union's arms, the index of its member
// in Members(), or -1 for a void arm.
func (t *Type) armMember() []int {
	idx, next := make([]int, len(t.Arms)), len(t.Fields)
	for k, a := range t.Arms {
		idx[k] = -1
		if a.Field.Type != nil {
			idx[k], next = next, next+1
		}
	}
	return idx
}

// effBound resolves a Type bound to the limit the codecs enforce.
func effBound(b uint32) uint32 {
	if b == 0 {
		return ^uint32(0) // NoSizeLimit
	}
	return b
}

// minWireSize reports the fewest wire bytes a value of t can occupy: the
// generic walker's own answer, kept apart from Lower's (Step.ElemMin) so
// the fuzzers compare two derivations, not one. A counted item counts at
// its empty encoding, the 4-byte count.
func (t *Type) minWireSize() int {
	switch t.Kind {
	case Hyper, Uhyper, Float64:
		return 8
	case OpaqueFixed:
		return t.Len + xdr.Pad(t.Len)
	case FixedArray:
		return t.Len * t.Elem.minWireSize()
	case Struct:
		total := 0
		for _, f := range t.Fields {
			total += f.Type.minWireSize()
		}
		return total
	case Union:
		least := -1
		for _, a := range t.Arms {
			n := 0
			if a.Field.Type != nil {
				n = a.Field.Type.minWireSize()
			}
			if least < 0 || n < least {
				least = n
			}
		}
		return xdr.BytesPerUnit + max(least, 0)
	default: // the 4-byte scalars, String, OpaqueVar, VarArray, and Optional's flag
		return xdr.BytesPerUnit
	}
}

// errZeroSizeElem refuses the one shape no codec serves: a counted array
// whose element can occupy no wire bytes (a struct of no fields,
// opaque[0], arrays of either). Every decoder checks a count against the
// bytes that can still arrive before it acts on it (the allocation rule
// beside ensureSlice); zero-size elements make that check vacuous, so a
// 4-byte body could buy up to 2³²−1 iterations of a loop that reads
// nothing. Such an array carries no information but its count, which a
// plain unsigned int carries honestly.
var errZeroSizeElem = errors.New("wire: counted array of elements with no wire size")

// Validate reports whether the codecs refuse t whatever Go type it is
// bound to, naming the offending field: it is Lower's verdict, which
// Compile and the emitter act on, and rpcgen asks here so it can fail at
// the declaration instead of generating a plan that fails at init.
func (t *Type) Validate() error {
	_, err := Lower(t)
	return err
}
