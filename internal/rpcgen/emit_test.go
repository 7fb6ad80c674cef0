package rpcgen

import (
	"errors"
	goparser "go/parser"
	"go/token"
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
	g := walker(t, "struct inner { int p; hyper q; }; struct nested { int a; inner s; };")
	src, _, err := emitCompiled("Nested", g.walk(t, TypeRef{Kind: KindNamed, Name: "nested"}), g.names)
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
	g := walker(t, `struct pair { int a; hyper b; };
struct named { string nm<8>; };
typedef string str<>;
struct onestr { int a; string nm<>; };
struct stropt { string nm<>; pair *p; };
struct pairsbytes { pair p<>; opaque o<>; };`)
	named := func(name string) TypeRef { return TypeRef{Kind: KindNamed, Name: name} }
	for _, c := range []struct {
		name string
		t    TypeRef
		slab bool
	}{
		{"ints", TypeRef{Kind: KindInt, VarArray: true}, false},
		{"one string", named("onestr"), false},
		{"optional pair", TypeRef{Kind: KindNamed, Name: "pair", Optional: true}, false},
		{"string and optional", named("stropt"), true},
		{"strings", TypeRef{Kind: KindNamed, Name: "str", VarArray: true}, true},
		{"two fixed strings", TypeRef{Kind: KindNamed, Name: "str", FixedArray: 2}, true},
		{"one fixed string", TypeRef{Kind: KindNamed, Name: "str", FixedArray: 1}, false},
		{"optional named", TypeRef{Kind: KindNamed, Name: "named", Optional: true}, false},
		{"pairs and bytes", named("pairsbytes"), true},
	} {
		src, _, err := emitCompiled("X", g.walk(t, c.t), g.names)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := goparser.ParseFile(token.NewFileSet(), "x.go", "package x\n"+src, 0); err != nil {
			t.Errorf("%s: emitted source does not parse: %v\n%s", c.name, err, src)
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

// walker is GenerateGo's walk over the declarations of src, for feeding
// the emitter a tree and the Go names of its nodes.
func walker(t *testing.T, src string) *goGen {
	t.Helper()
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return &goGen{spec: spec, decls: make(map[string]decl), names: make(map[*wire.Type]string)}
}

// walk is the tree of the type use ref, which must lie in the subset.
func (g *goGen) walk(t *testing.T, ref TypeRef) *wire.Type {
	t.Helper()
	_, typ, err := g.wireRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	return typ
}
