package rpcgen

import (
	_ "embed"
	goparser "go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"specrpc/internal/minic"
	rpclib "specrpc/internal/minic/lib"
)

const rminX = `
/* The rmin service of the paper's running example. */
const RMIN_MAX = 64;

struct pair {
    int int1;
    int int2;
};

program RMIN_PROG {
    version RMIN_VERS {
        int RMIN(pair) = 1;
    } = 1;
} = 0x20000099;
`

// richX is the full-surface spec shared with CI's genstubs step, so the
// unit tests and the pipeline always exercise the same constructs.
//
//go:embed testdata/rich.x
var richX string

func TestParseRmin(t *testing.T) {
	spec, err := Parse(rminX)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Structs) != 1 || spec.Structs[0].Name != "pair" {
		t.Fatalf("structs: %+v", spec.Structs)
	}
	if len(spec.Programs) != 1 {
		t.Fatal("missing program")
	}
	p := spec.Programs[0]
	if p.Num != 0x20000099 || p.Versions[0].Num != 1 {
		t.Fatalf("program numbers: %+v", p)
	}
	proc := p.Versions[0].Procs[0]
	if proc.Name != "RMIN" || proc.Num != 1 || proc.Arg.Name != "pair" {
		t.Fatalf("proc: %+v", proc)
	}
	if v, ok := spec.LookupConst("RMIN_MAX"); !ok || v != 64 {
		t.Fatalf("const RMIN_MAX = %d, %v", v, ok)
	}
}

func TestParseRich(t *testing.T) {
	spec, err := Parse(richX)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Enums) != 1 || len(spec.Typedefs) != 3 || len(spec.Unions) != 1 {
		t.Fatalf("decl counts: enums=%d typedefs=%d unions=%d",
			len(spec.Enums), len(spec.Typedefs), len(spec.Unions))
	}
	if v, _ := spec.LookupConst("BLUE"); v != 5 {
		t.Fatalf("BLUE = %d", v)
	}
	if v, _ := spec.LookupConst("GREEN"); v != 1 {
		t.Fatalf("GREEN = %d", v)
	}
	shape := spec.Structs[1]
	if shape.Name != "shape" {
		t.Fatalf("struct order: %+v", spec.Structs)
	}
	if shape.Fields[1].Type.FixedArray != 4 {
		t.Fatalf("corners: %+v", shape.Fields[1])
	}
	if !shape.Fields[3].Type.Optional {
		t.Fatalf("next not optional: %+v", shape.Fields[3])
	}
	u := spec.Unions[0]
	if len(u.Arms) != 3 || len(u.Arms[1].CaseValues) != 2 || u.Arms[2].Field != nil {
		t.Fatalf("union arms: %+v", u.Arms)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`struct s { int a }`,                        // missing semicolons
		`const X = ;`,                               // missing value
		`enum e { A = , B };`,                       // bad enumerator
		`union u switch int d) { };`,                // malformed switch
		`program P { version V { } };`,              // missing numbers
		`struct s { string name; };`,                // unbounded string
		`typedef int t<10>; typedef int t<20>;`,     // redeclaration
		`union u switch (int a) { case`,             // truncated: used to step past EOF and panic
		`typedef node *node; struct s { node n; };`, // a typedef of itself names no data
		`typedef a *b; typedef b *a;`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestGenerateGoParses(t *testing.T) {
	for name, src := range map[string]string{"rmin": rminX, "rich": richX} {
		spec, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := GenerateGo(spec, GoOptions{Package: "stubs"})
		if err != nil {
			t.Fatalf("%s: generate: %v", name, err)
		}
		fset := token.NewFileSet()
		if _, err := goparser.ParseFile(fset, name+".go", out, goparser.AllErrors); err != nil {
			t.Fatalf("%s: generated Go does not parse: %v\n%s", name, err, out)
		}
		for _, want := range []string{"package stubs", "func ", "Marshal"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: output missing %q", name, want)
			}
		}
	}
}

func TestGenerateGoClientAndServerShapes(t *testing.T) {
	spec, err := Parse(richX)
	if err != nil {
		t.Fatal(err)
	}
	out, err := GenerateGo(spec, GoOptions{Package: "stubs"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"type ShapeProgV2Client struct",
		"type ShapeProgV2Handler interface",
		"func RegisterShapeProgV2(",
		"ShapeProgV2ProcPing",
		"func (c *ShapeProgV2Client) Ping() error",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q\n%s", want, out)
		}
	}
}

// TestGenerateGoWirePlans checks that every type of rich.x compiles to
// a wire description with plan-backed stubs — the struct with optional
// data and the union included — and that every procedure, the void PING
// too, routes through the typed entry points.
func TestGenerateGoWirePlans(t *testing.T) {
	spec, err := Parse(richX)
	if err != nil {
		t.Fatal(err)
	}
	out, err := GenerateGo(spec, GoOptions{Package: "stubs"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		// point and the typedefs are in the wire subset.
		`wireTypePoint = wire.StructT("point",`,
		"planPoint = wire.MustPlan[Point](wireTypePoint, wire.Specialized)",
		"func (v *Point) Marshal(x *xdr.XDR) error { return planPoint.Marshal(x, v) }",
		"wireTypeNumbers = wire.VarArrayT(2000, wire.Int32T())",
		"wireTypeBlob = wire.OpaqueVarT(1024)",
		// shape holds optional data, lookup_result is a union.
		`wireTypeShape = wire.StructT("shape",`,
		`wire.F("next", wire.OptionalT(wireTypePoint)),`,
		`wireTypeLookupResult = wire.UnionT("lookup_result",`,
		`wire.Case("errno_val", wire.Int32T(), 1, 2),`,
		`wire.Default("", nil),`,
		"func (v *LookupResult) Marshal(x *xdr.XDR) error { return planLookupResult.Marshal(x, v) }",
		// SCALE(numbers) = numbers routes through the typed entry points.
		"rpcclient.CallTyped(c.C, ShapeProgV2ProcScale, planNumbers, arg, planNumbers, res)",
		"rpcserver.RegisterTyped(srv, ShapeProgV2Prog, ShapeProgV2Vers, ShapeProgV2ProcScale, planNumbers, planNumbers, h.Scale)",
		// So do LOOKUP and the void PING, over the empty plan.
		"rpcclient.CallTyped(c.C, ShapeProgV2ProcLookup, planPoint, arg, planLookupResult, res)",
		"var planVoid = wire.MustPlan[struct{}](wire.VoidT(), wire.Specialized)",
		"func (c *ShapeProgV2Client) Ping() error {\n\treturn rpcclient.CallTyped(c.C, ShapeProgV2ProcPing, planVoid, &struct{}{}, planVoid, &struct{}{})",
		"rpcserver.RegisterTyped(srv, ShapeProgV2Prog, ShapeProgV2Vers, ShapeProgV2ProcPing, planVoid, planVoid, func(*struct{}) (*struct{}, error) { return nil, h.Ping() })",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, reject := range closureMarks {
		if strings.Contains(out, reject) {
			t.Errorf("output still has a closure stub: %q", reject)
		}
	}
}

// TestGenerateGoLinkedList: a linked list — a struct whose last field is
// optional data of the struct itself, directly (node) or through a
// pointer typedef as RFC 1833 spells pmaplist (cells) — is a wire.ListT
// with a plan, and so is every type that holds one; the generated
// package builds, plan-only and compiled, with no closure left in it.
func TestGenerateGoLinkedList(t *testing.T) {
	spec, err := Parse(`struct node {
	int   v;
	node *next;
};
typedef struct cell *cells;
struct cell {
	string name<8>;
	cells  next;
};
struct holder {
	int   n;
	node  head;
	cells rest;
};
struct flat {
	int *maybe;
};
program LIST { version V {
	holder ECHO(holder) = 1;
	flat FLAT(flat) = 2;
	cells CELLS(void) = 3;
} = 1; } = 0x20000002;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, compiled := range []bool{false, true} {
		out, err := GenerateGo(spec, GoOptions{Package: "list", Compiled: compiled})
		if err != nil {
			t.Fatalf("compiled=%v: %v", compiled, err)
		}
		for _, want := range []string{
			"wireTypeNode = wire.ListT(\"node\", \"next\",\n\t\twire.F(\"v\", wire.Int32T()),\n\t)",
			"type Cells *Cell",
			"wireTypeCell = wire.ListT(\"cell\", \"next\",",
			"wireTypeCells = wire.OptionalT(wireTypeCell)",
			"rpcclient.CallTyped(c.C, ListV1ProcEcho, planHolder, arg, planHolder, res)",
			"rpcclient.CallTyped(c.C, ListV1ProcCells, planVoid, &struct{}{}, planCells, res)",
			"rpcserver.RegisterTyped(srv, ListV1Prog, ListV1Vers, ListV1ProcFlat, planFlat, planFlat, h.Flat)",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("compiled=%v: output missing %q", compiled, want)
			}
		}
		for _, reject := range closureMarks {
			if strings.Contains(out, reject) {
				t.Errorf("compiled=%v: output has %q", compiled, reject)
			}
		}
		if compiled && !strings.Contains(out, "return xdr.ErrCycle") {
			t.Errorf("compiled encoders do not check their lists for cycles")
		}
		buildGenerated(t, "list", out)
	}
}

// closureMarks are what generated code that marshals through the
// generic XDR layer's composites, or calls and registers closures, would
// contain; GenerateGo's output contains none of them.
var closureMarks = []string{"c.C.Call(", "srv.Register(", "xdr.Optional", "xdr.Vector", "xdr.Array"}

// TestGenerateGoRefuses: what has no plan fails generation, plan-only
// and compiled, with an error naming the type and the construct: a
// self-reference that is not a list's last field, a name no declaration
// defines, a bool discriminant (RFC 4506 allows it; the codecs take an
// int, an unsigned int or an enum) and a case value that is not a
// constant.
func TestGenerateGoRefuses(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`typedef struct link *chain;
struct link {
	int   v;
	chain more<2>;
	chain next;
};`, "typedef chain: struct link.more: chain reaches itself other than as a linked list"},
		{`struct tree { int v; tree *left; tree *right; };`, "struct tree.left: tree reaches itself other than as a linked list"},
		{`struct a { b *x; }; struct b { a *y; };`, "struct a.x: struct b.y: a reaches itself"},
		{`struct bp { char c; };`, "struct bp.c: type char is not declared"},
		{`struct k { netobj n; };`, "struct k.n: type netobj is not declared"},
		{`typedef uint32_t u<>;`, "typedef u: type uint32_t is not declared"},
		{`union r switch (bool more) { case TRUE: int v; case FALSE: void; };`, "union r: discriminant more is not an int, an unsigned int or an enum"},
		{`union r switch (int d) { case NOPE: int v; };`, `union r: unknown constant "NOPE"`},
		{`program P { version V { nope ECHO(void) = 1; } = 1; } = 0x20000004;`, "proc ECHO result: type nope is not declared"},
	} {
		spec, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		for _, compiled := range []bool{false, true} {
			_, err := GenerateGo(spec, GoOptions{Package: "refused", Compiled: compiled})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("compiled=%v: %s:\n err %v\nwant %q", compiled, tc.src, err, tc.want)
			}
		}
	}
}

// TestGenerateGoOptionalFixedOpaque: optional fixed-length opaque data
// (opaque *d[4]) is declared as the pointer its wire shape binds to and
// the compiled codec dereferences, so the generated package builds.
func TestGenerateGoOptionalFixedOpaque(t *testing.T) {
	spec, err := Parse(`struct opt { opaque *d[4]; hyper h; };
program P { version V { opt ECHO(opt) = 1; } = 1; } = 0x20000003;`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := GenerateGo(spec, GoOptions{Package: "optopaque", Compiled: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "D *[4]byte") {
		t.Errorf("optional opaque[4] not declared *[4]byte:\n%s", out)
	}
	buildGenerated(t, "optopaque", out)
}

// buildGenerated compiles generated source as package pkg inside this
// module, where it may import the internal runtime; it skips when no go
// command is at hand.
func buildGenerated(t *testing.T, pkg, src string) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the generated package with")
	}
	dir, err := os.MkdirTemp("testdata", pkg)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, pkg+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(goBin, "build", "./"+dir).CombinedOutput(); err != nil {
		t.Fatalf("generated package does not build: %v\n%s\n%s", err, out, src)
	}
}

// TestGenerateGoRefusesZeroSizeElements: a counted array of elements
// with no wire size — expressible in a .x file, and refused by
// wire.Compile — fails generation against the line that declares it,
// plan-only and compiled, instead of becoming a MustPlan that panics in
// the importer's init.
func TestGenerateGoRefusesZeroSizeElements(t *testing.T) {
	spec, err := Parse(`struct holder { opaque pad[0]; };
struct many {
	int n;
	holder hs<>;
};
program P { version V { many ECHO(many) = 1; } = 1; } = 0x20000001;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, compiled := range []bool{false, true} {
		_, err := GenerateGo(spec, GoOptions{Package: "stubs", Compiled: compiled})
		const want = "struct many.hs: line 4: wire: counted array of elements with no wire size"
		if err == nil || err.Error() != want {
			t.Errorf("compiled=%v: err = %v, want %q", compiled, err, want)
		}
	}
}

func TestGenerateMiniC(t *testing.T) {
	spec, err := Parse(richX)
	if err != nil {
		t.Fatal(err)
	}
	out, skipped, err := GenerateMiniC(spec)
	if err != nil {
		t.Fatal(err)
	}
	// point is in the subset; shape is not (string, optional, hyper...).
	if !strings.Contains(out, "int xdr_point(struct xdrbuf* xdrs, struct point* objp)") {
		t.Fatalf("xdr_point missing:\n%s", out)
	}
	if strings.Contains(out, "xdr_shape") {
		t.Fatalf("xdr_shape should be skipped:\n%s", out)
	}
	if len(skipped) == 0 || !strings.Contains(strings.Join(skipped, ";"), "shape") {
		t.Fatalf("skip report: %v", skipped)
	}

	// The generated mini-C must parse and type-check when concatenated
	// with the runtime library it calls into.
	full := rpclib.Source + "\n" + out
	prog, err := minic.Parse(full)
	if err != nil {
		t.Fatalf("generated mini-C does not parse: %v\n%s", err, out)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatalf("generated mini-C does not check: %v\n%s", err, out)
	}
}

func TestGenerateMiniCPairMatchesPaperShape(t *testing.T) {
	spec, err := Parse(rminX)
	if err != nil {
		t.Fatal(err)
	}
	out, skipped, err := GenerateMiniC(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skips: %v", skipped)
	}
	// The generated stub has the paper's Figure 4 structure.
	for _, want := range []string{
		"int xdr_pair(struct xdrbuf* xdrs, struct pair* objp)",
		"if (!xdr_int(xdrs, &objp->int1)) { return 0; }",
		"if (!xdr_int(xdrs, &objp->int2)) { return 0; }",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestGoNameExport(t *testing.T) {
	tests := map[string]string{
		"rmin_prog": "RminProg", "int1": "Int1", "a_b_c": "ABC", "x": "X",
	}
	for in, want := range tests {
		if got := GoName(in); got != want {
			t.Errorf("GoName(%q) = %q, want %q", in, got, want)
		}
	}
}
