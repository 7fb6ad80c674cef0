package rpcgen

import (
	"errors"
	"os"
	"strings"
	"testing"

	"specrpc/internal/wire"
)

// TestEmitNestedLayout pins the emitter's half of the one lowering:
// nested of layout.x fuses a with s.p on some GOARCHes and not on others
// (wire's TestNestedLayout), but the emitted source is printed from the
// layout-free steps before fusion, so it is one text on every GOARCH.
func TestEmitNestedLayout(t *testing.T) {
	inner := wire.StructT("inner", wire.F("p", wire.Int32T()), wire.F("q", wire.HyperT()))
	nested := wire.StructT("nested", wire.F("a", wire.Int32T()), wire.F("s", inner))
	src, _, err := emitCompiled("Nested", nested, nil)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/nested.golden")
	if err != nil {
		t.Fatal(err)
	}
	if src != string(golden) {
		t.Errorf("emitted source differs from testdata/nested.golden:\n%s", src)
	}
}

// TestEmitSlabChoice: a root with at most one pointer-free part outside
// a loop keeps the part-by-part decoder, and one with more, or with a
// part in a loop, gets a slab and its pre-pass; a pointer-free optional
// pointee is a part, an array of strings holds pointers and is not.
func TestEmitSlabChoice(t *testing.T) {
	pair := wire.StructT("pair", wire.F("a", wire.Int32T()), wire.F("b", wire.HyperT()))
	named := wire.StructT("named", wire.F("nm", wire.StringT(8)))
	for _, c := range []struct {
		name string
		t    *wire.Type
		slab bool
	}{
		{"ints", wire.VarArrayT(0, wire.Int32T()), false},
		{"one string", wire.StructT("s", wire.F("a", wire.Int32T()), wire.F("nm", wire.StringT(0))), false},
		{"optional pair", wire.OptionalT(pair), false},
		{"string and optional", wire.StructT("s", wire.F("nm", wire.StringT(0)), wire.F("p", wire.OptionalT(pair))), true},
		{"strings", wire.VarArrayT(0, wire.StringT(0)), true},
		{"two fixed strings", wire.FixedArrayT(2, wire.StringT(0)), true},
		{"one fixed string", wire.FixedArrayT(1, wire.StringT(0)), false},
		{"optional named", wire.OptionalT(named), false},
		{"pairs and bytes", wire.StructT("s", wire.F("p", wire.VarArrayT(0, pair)), wire.F("o", wire.OpaqueVarT(0))), true},
	} {
		src, _, err := emitCompiled("X", c.t, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := strings.Contains(src, "func compiledSlabX("); got != c.slab {
			t.Errorf("%s: slab %v, want %v\n%s", c.name, got, c.slab, src)
		}
		if !c.slab && strings.Contains(src, "slab") {
			t.Errorf("%s: a decoder without a slab mentions one\n%s", c.name, src)
		}
	}
}

// TestEmitRefusesZeroSizeElem: the emitter refuses, as every plan does,
// a counted array whose element has no wire size, nested in a struct.
// Validate on the bare shape yields the sentinel the codecs refuse with.
func TestEmitRefusesZeroSizeElem(t *testing.T) {
	zeroSize := wire.VarArrayT(0, wire.StructT("nothing")).Validate()
	if zeroSize == nil {
		t.Fatal("a counted array of empty structs validates")
	}
	holderT := wire.StructT("holder", wire.F("pad", wire.OpaqueFixedT(0)))
	if _, _, err := emitCompiled("Holders", wire.StructT("holders", wire.F("hs", wire.VarArrayT(0, holderT))), nil); !errors.Is(err, zeroSize) {
		t.Errorf("emitter on a counted array of opaque[0] holders: %v", err)
	}
}
