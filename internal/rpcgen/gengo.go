package rpcgen

import (
	"fmt"
	"go/format"
	"strconv"
	"strings"
	"unicode"

	"specrpc/internal/wire"
)

// GoOptions configures Go code generation.
type GoOptions struct {
	// Package is the generated package name.
	Package string
	// XDRImport is the import path of the XDR runtime.
	XDRImport string
	// ClientImport is the import path of the RPC client runtime.
	ClientImport string
	// ServerImport is the import path of the RPC server runtime.
	ServerImport string
	// WireImport is the import path of the wire codec runtime.
	WireImport string
	// Compiled additionally emits rpcgen-compiled straight-line codecs
	// (emit.go) for every plan and registers them with
	// wire.RegisterCompiled, so the transports' typed entry points pick
	// them over the fused plan interpreter.
	Compiled bool
}

func (o *GoOptions) fill() {
	if o.Package == "" {
		o.Package = "stubs"
	}
	if o.XDRImport == "" {
		o.XDRImport = "specrpc/internal/xdr"
	}
	if o.ClientImport == "" {
		o.ClientImport = "specrpc/internal/client"
	}
	if o.ServerImport == "" {
		o.ServerImport = "specrpc/internal/server"
	}
	if o.WireImport == "" {
		o.WireImport = "specrpc/internal/wire"
	}
}

// GenerateGo emits a complete Go source file for the spec: constants,
// types with their wire descriptions and compiled marshal plans, client
// stubs, and server registration helpers. One walk per type (wireRef)
// builds its wire.Type description, so every type the generator accepts
// has a plan. A linked list — a struct whose last field is optional data
// of the struct itself, directly or through a pointer typedef — is a
// wire.ListT, which every engine runs as a loop. Anything else fails
// generation with an error naming the type and the construct: a name no
// declaration defines (char, netobj, uint32_t), a union whose
// discriminant is not an int, an unsigned int or an enum (a bool), a
// case value that is not a constant, and a type that reaches itself
// other than as a linked list. Every procedure's stubs route through the
// codec-based CallTyped/RegisterTyped entry points — a void side is the
// empty plan, planVoid — which, on the package's own transports, fuse
// the per-connection header template and the procedure's plan into one
// whole-call codec. The output is gofmt-formatted.
func GenerateGo(spec *Spec, opts GoOptions) (string, error) {
	opts.fill()
	g := &goGen{spec: spec, opts: opts, decls: make(map[string]decl),
		names: map[*wire.Type]string{wire.VoidT(): "struct{}"}}
	if err := g.run(); err != nil {
		return "", err
	}
	// The header is assembled after the declarations: whether the
	// compiled-codec imports (encoding/binary, math) are needed is only
	// known once the bodies exist.
	var out strings.Builder
	g.writeHeader(&out)
	out.WriteString(g.sb.String())
	out.WriteString(g.compiled.String())
	src := out.String()
	formatted, err := format.Source([]byte(src))
	if err != nil {
		return "", fmt.Errorf("rpcgen: generated Go does not format: %w\n%s", err, src)
	}
	return string(formatted), nil
}

type goGen struct {
	spec     *Spec
	opts     GoOptions
	sb       strings.Builder
	compiled strings.Builder       // emitted straight-line codecs, appended last
	hasEmit  bool                  // any compiled codec was emitted
	needMath bool                  // an emitted codec uses the math package
	usesWire bool                  // a plan is declared: the wire package is imported
	decls    map[string]decl       // declared type name -> its walk
	names    map[*wire.Type]string // node the walk built -> goType of its use
	voidDone bool                  // planVoid is declared
}

// decl is the memoized walk of a declared struct, union or typedef: its
// wire.Type constructor expression and tree, or the walk's error.
type decl struct {
	expr string
	typ  *wire.Type
	err  error
}

func (g *goGen) pf(format string, args ...any) {
	fmt.Fprintf(&g.sb, format, args...)
}

// GoName exports an IDL identifier (lower_snake -> CamelCase): the one
// spelling of the declarations rpcgen writes and of the field selectors
// the compiled-codec emitter prints, so the two cannot drift.
func GoName(name string) string {
	var sb strings.Builder
	for _, p := range strings.Split(name, "_") {
		if r := []rune(p); len(r) > 0 {
			r[0] = unicode.ToUpper(r[0])
			sb.WriteString(string(r))
		}
	}
	return sb.String()
}

// wireVar and planVar name the generated description and plan variables
// for a declared type.
func wireVar(name string) string { return "wireType" + GoName(name) }
func planVar(name string) string { return "plan" + GoName(name) }

func (g *goGen) writeHeader(out *strings.Builder) {
	fmt.Fprintf(out, "// Code generated by rpcgen from an XDR interface definition. DO NOT EDIT.\n\n")
	fmt.Fprintf(out, "package %s\n\n", g.opts.Package)
	needsClient := len(g.spec.Programs) > 0
	fmt.Fprintf(out, "import (\n")
	if g.hasEmit {
		fmt.Fprintf(out, "\t%q\n", "encoding/binary")
	}
	fmt.Fprintf(out, "\t%q\n", "fmt")
	if g.needMath {
		fmt.Fprintf(out, "\t%q\n", "math")
	}
	fmt.Fprintf(out, "\n\txdr %q\n", g.opts.XDRImport)
	if needsClient {
		fmt.Fprintf(out, "\trpcclient %q\n", g.opts.ClientImport)
		fmt.Fprintf(out, "\trpcserver %q\n", g.opts.ServerImport)
	}
	if g.usesWire {
		fmt.Fprintf(out, "\twire %q\n", g.opts.WireImport)
	}
	fmt.Fprintf(out, ")\n\n")
	fmt.Fprintf(out, "var _ = fmt.Errorf // referenced by generated validation paths\n\n")
}

func (g *goGen) run() error {
	for _, c := range g.spec.Consts {
		g.pf("// %s is the IDL constant %s.\nconst %s = %d\n\n", GoName(c.Name), c.Name, GoName(c.Name), c.Value)
	}
	for _, e := range g.spec.Enums {
		g.genEnum(e)
	}
	for _, td := range g.spec.Typedefs {
		if err := g.genTypedef(td); err != nil {
			return err
		}
	}
	for _, st := range g.spec.Structs {
		if err := g.genStruct(st); err != nil {
			return err
		}
	}
	for _, u := range g.spec.Unions {
		if err := g.genUnion(u); err != nil {
			return err
		}
	}
	for _, p := range g.spec.Programs {
		if err := g.genProgram(p); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Wire descriptions: one walk builds each type's, or refuses it

// wireRef walks a type use once, failing on a construct no plan
// describes, and builds it twice over from one switch: expr is the
// wire.Type constructor expression written into the generated source,
// typ the same description built in-process — so the tree the generated
// package compiles at init is the tree the compiled-codec emitter reads
// here. g.names records, for every node
// built, the name goType gives its use, which the emitter prints.
func (g *goGen) wireRef(t TypeRef) (expr string, typ *wire.Type, err error) {
	use := t
	use.FixedArray, use.VarArray, use.Optional = 0, false, false
	switch t.Kind {
	case KindInt:
		expr, typ = "wire.Int32T()", wire.Int32T()
	case KindUint:
		expr, typ = "wire.Uint32T()", wire.Uint32T()
	case KindHyper:
		expr, typ = "wire.HyperT()", wire.HyperT()
	case KindUhyper:
		expr, typ = "wire.UhyperT()", wire.UhyperT()
	case KindBool:
		expr, typ = "wire.BoolT()", wire.BoolT()
	case KindFloat:
		expr, typ = "wire.Float32T()", wire.Float32T()
	case KindDouble:
		expr, typ = "wire.Float64T()", wire.Float64T()
	case KindString:
		expr, typ = fmt.Sprintf("wire.StringT(%d)", t.Bound), wire.StringT(uint32(t.Bound))
	case KindOpaqueF:
		expr, typ = fmt.Sprintf("wire.OpaqueFixedT(%d)", t.Bound), wire.OpaqueFixedT(t.Bound)
	case KindOpaqueV:
		expr, typ = fmt.Sprintf("wire.OpaqueVarT(%d)", t.Bound), wire.OpaqueVarT(uint32(t.Bound))
	case KindNamed:
		if kind, _ := g.spec.declKind(t.Name); kind == "enum" {
			// Enums are int32 on the wire and cast through their own name,
			// so each use is a node of its own.
			expr, typ = "wire.Int32T()", &wire.Type{Kind: wire.Int32}
		} else if _, typ, err = g.declType(t.Name); err != nil {
			return "", nil, err
		} else {
			expr = wireVar(t.Name)
		}
	case KindVoid:
		return "", nil, fmt.Errorf("rpcgen: void used as a value type")
	default:
		return "", nil, fmt.Errorf("rpcgen: type kind %d has no wire description", t.Kind)
	}
	g.name(typ, use)
	switch {
	case t.FixedArray > 0:
		expr, typ = fmt.Sprintf("wire.FixedArrayT(%d, %s)", t.FixedArray, expr), wire.FixedArrayT(t.FixedArray, typ)
	case t.VarArray:
		expr, typ = fmt.Sprintf("wire.VarArrayT(%d, %s)", t.Bound, expr), wire.VarArrayT(uint32(t.Bound), typ)
		// Refused here, against the declaration, and not by the MustPlan
		// this would otherwise generate, at the importer's init.
		if err := typ.Validate(); err != nil {
			return "", nil, fmt.Errorf("line %d: %w", t.Line, err)
		}
	}
	use.FixedArray, use.VarArray = t.FixedArray, t.VarArray
	g.name(typ, use)
	if t.Optional {
		expr, typ = fmt.Sprintf("wire.OptionalT(%s)", expr), wire.OptionalT(typ)
		g.name(typ, t)
	}
	return expr, typ, nil
}

// name records the Go name goType gives use for typ, the node built for
// it. The walk refuses void, goType's one error, before it names a node.
func (g *goGen) name(typ *wire.Type, use TypeRef) {
	g.names[typ], _ = g.goType(use)
}

// unionRef is wireRef for a union declaration: the UnionT expression and
// the tree, discriminant and arms, validated here against the
// declaration as wireRef validates a counted array.
func (g *goGen) unionRef(u UnionDef) (expr string, typ *wire.Type, err error) {
	d := u.Discriminant.Type
	if kind, _ := g.spec.declKind(d.Name); d.FixedArray > 0 || d.VarArray || d.Optional ||
		d.Kind != KindInt && d.Kind != KindUint && (d.Kind != KindNamed || kind != "enum") {
		return "", nil, fmt.Errorf("union %s: discriminant %s is not an int, an unsigned int or an enum", u.Name, u.Discriminant.Name)
	}
	de, dt, _ := g.wireRef(d) // an int, an unsigned int or an enum: nothing to refuse
	exprs := []string{fmt.Sprintf("wire.F(%q, %s)", u.Discriminant.Name, de)}
	arms := make([]wire.Arm, len(u.Arms))
	for i, arm := range u.Arms {
		vals := make([]int64, len(arm.CaseValues))
		lits := make([]string, len(arm.CaseValues))
		for j, cv := range arm.CaseValues {
			v, err := g.spec.resolve(cv)
			if err != nil {
				return "", nil, fmt.Errorf("union %s: %w", u.Name, err)
			}
			vals[j], lits[j] = v, strconv.FormatInt(v, 10)
		}
		name, fe, ft := "", "nil", (*wire.Type)(nil)
		if arm.Field != nil {
			name = arm.Field.Name
			if fe, ft, err = g.wireRef(arm.Field.Type); err != nil {
				return "", nil, fmt.Errorf("union %s.%s: %w", u.Name, name, err)
			}
		}
		if len(arm.CaseValues) == 0 {
			exprs = append(exprs, fmt.Sprintf("wire.Default(%q, %s)", name, fe))
			arms[i] = wire.Default(name, ft)
			continue
		}
		exprs = append(exprs, fmt.Sprintf("wire.Case(%q, %s, %s)", name, fe, strings.Join(lits, ", ")))
		arms[i] = wire.Case(name, ft, vals...)
	}
	typ = wire.UnionT(u.Name, wire.F(u.Discriminant.Name, dt), arms...)
	if err := typ.Validate(); err != nil {
		return "", nil, fmt.Errorf("union %s: %w", u.Name, err)
	}
	expr = fmt.Sprintf("wire.UnionT(%q,\n\t\t%s,\n\t)", u.Name, strings.Join(exprs, ",\n\t\t"))
	return expr, typ, nil
}

// structRef is wireRef for a struct declaration: the StructT expression
// and the tree, field by field, or for a linked list's node the ListT
// expression, whose link is the struct itself.
func (g *goGen) structRef(st StructDef) (expr string, typ *wire.Type, err error) {
	fields := st.Fields
	if g.isList(st) {
		fields = fields[:len(fields)-1]
	}
	exprs := make([]string, len(fields))
	wfs := make([]wire.Field, len(fields))
	for i, f := range fields {
		fe, ft, err := g.wireRef(f.Type)
		if err != nil {
			return "", nil, fmt.Errorf("struct %s.%s: %w", st.Name, f.Name, err)
		}
		exprs[i] = fmt.Sprintf("wire.F(%q, %s)", f.Name, fe)
		wfs[i] = wire.F(f.Name, ft)
	}
	body := strings.Join(exprs, ",\n\t\t")
	if len(fields) == len(st.Fields) {
		return fmt.Sprintf("wire.StructT(%q,\n\t\t%s,\n\t)", st.Name, body), wire.StructT(st.Name, wfs...), nil
	}
	next := st.Fields[len(fields)]
	typ = wire.ListT(st.Name, next.Name, wfs...)
	g.name(typ.Fields[len(fields)].Type, next.Type)
	if len(fields) == 0 {
		return fmt.Sprintf("wire.ListT(%q, %q)", st.Name, next.Name), typ, nil
	}
	return fmt.Sprintf("wire.ListT(%q, %q,\n\t\t%s,\n\t)", st.Name, next.Name, body), typ, nil
}

// isList reports whether st is a linked list's node: a struct whose last
// field is optional data of the struct itself, spelt st *next or through
// a pointer typedef (typedef struct st *list;).
func (g *goGen) isList(st StructDef) bool {
	if len(st.Fields) == 0 {
		return false
	}
	t := st.Fields[len(st.Fields)-1].Type
	if t.Kind == KindNamed && !t.Optional && t.FixedArray == 0 && !t.VarArray {
		for _, td := range g.spec.Typedefs {
			if td.Name == t.Name {
				t = td.Type
			}
		}
	}
	return t.Kind == KindNamed && t.Name == st.Name && t.Optional && t.FixedArray == 0 && !t.VarArray
}

// typedefRef is wireRef for a typedef declaration: the underlying
// shape's expression, and its tree as a node of its own, which declType
// names after the typedef — what allocations and casts must spell; the
// shape itself is unchanged.
func (g *goGen) typedefRef(td TypedefDef) (expr string, typ *wire.Type, err error) {
	expr, under, err := g.wireRef(td.Type)
	if err != nil {
		return "", nil, fmt.Errorf("typedef %s: %w", td.Name, err)
	}
	named := *under
	return expr, &named, nil
}

// declType walks, once, the declared struct, union or typedef name: the
// constructor expression its generated wireVar holds and its tree, or
// the walk's error. While the walk runs, the memo holds the in-progress
// mark, an error: a declaration that meets it reaches itself other than
// as a linked list, whose link structRef takes before the walk can meet
// the mark.
func (g *goGen) declType(name string) (expr string, typ *wire.Type, err error) {
	if d, ok := g.decls[name]; ok {
		return d.expr, d.typ, d.err
	}
	g.decls[name] = decl{err: fmt.Errorf("%s reaches itself other than as a linked list (optional data of a struct in its last field)", name)}
	err = fmt.Errorf("type %s is not declared", name)
	for _, st := range g.spec.Structs {
		if st.Name == name {
			expr, typ, err = g.structRef(st)
		}
	}
	for _, td := range g.spec.Typedefs {
		if td.Name == name {
			expr, typ, err = g.typedefRef(td)
		}
	}
	for _, u := range g.spec.Unions {
		if u.Name == name {
			expr, typ, err = g.unionRef(u)
		}
	}
	if err == nil {
		g.name(typ, TypeRef{Kind: KindNamed, Name: name})
	}
	g.decls[name] = decl{expr, typ, err}
	return expr, typ, err
}

// planRef resolves the plan expression for a proc argument or result: a
// declared struct, union or typedef reuses its package plan, void the
// package's empty one; anything else gets a dedicated variable, declared
// here (with its compiled codec pair), compiled over the same wire
// description.
func (g *goGen) planRef(t TypeRef, dedicated string) (ref string, err error) {
	if t.Kind == KindVoid {
		return g.voidPlan()
	}
	plain := t.FixedArray == 0 && !t.VarArray && !t.Optional
	if t.Kind == KindNamed && plain {
		if kind, _ := g.spec.declKind(t.Name); kind != "enum" {
			_, _, err := g.declType(t.Name)
			return planVar(t.Name), err
		}
	}
	goT, err := g.goType(t)
	if err != nil {
		return "", err
	}
	expr, root, err := g.wireRef(t)
	if err != nil {
		return "", err
	}
	g.pf("var %s = wire.MustPlan[%s](%s, wire.Specialized)\n\n", dedicated, goT, expr)
	g.usesWire = true
	// The codec pair is named after the variable, minus its "plan".
	return dedicated, g.genCompiled(strings.TrimPrefix(dedicated, "plan"), goT, dedicated, root)
}

// voidPlan declares, once, planVoid: the empty program, the plan of
// every void argument and result.
func (g *goGen) voidPlan() (string, error) {
	ref := planVar("void")
	if !g.voidDone {
		g.voidDone, g.usesWire = true, true
		g.pf("// %s is the empty program, the plan of a void argument or result.\n", ref)
		g.pf("var %s = wire.MustPlan[struct{}](wire.VoidT(), wire.Specialized)\n\n", ref)
		if err := g.genCompiled("Void", "struct{}", ref, wire.VoidT()); err != nil {
			return "", err
		}
	}
	return ref, nil
}

// genCompiled emits, when opts.Compiled asks for it, the straight-line
// codec pair for one plan (emitCompiled: the wire shape lowered into Go
// with field selectors instead of a plan-executor tail)
// plus its init-time registration, so the transports' typed entry
// points find it. Both accumulate after all declarations.
func (g *goGen) genCompiled(base, goType, planExpr string, root *wire.Type) error {
	if !g.opts.Compiled {
		return nil
	}
	src, usesMath, err := emitCompiled(base, root, g.names)
	if err != nil {
		return err
	}
	g.compiled.WriteString(src)
	fmt.Fprintf(&g.compiled,
		"\nfunc init() {\n\twire.RegisterCompiled(%s, wire.Compiled[%s]{Append: compiledAppend%s, Decode: compiledDecode%s})\n}\n\n",
		planExpr, goType, base, base)
	g.hasEmit = true
	g.needMath = g.needMath || usesMath
	return nil
}

// ---------------------------------------------------------------------------
// Declarations

func (g *goGen) genEnum(e EnumDef) {
	name := GoName(e.Name)
	g.pf("// %s is the IDL enum %s.\ntype %s int32\n\n", name, e.Name, name)
	g.pf("// %s values.\nconst (\n", name)
	for _, c := range e.Consts {
		g.pf("\t%s %s = %d\n", GoName(c.Name), name, c.Value)
	}
	g.pf(")\n\n")
	g.pf("// Marshal encodes or decodes the enum.\n")
	g.pf("func (v *%s) Marshal(x *xdr.XDR) error {\n", name)
	g.pf("\te := int32(*v)\n\tif err := x.Enum(&e); err != nil {\n\t\treturn err\n\t}\n\t*v = %s(e)\n\treturn nil\n}\n\n", name)
}

// goType renders the Go type for a TypeRef.
func (g *goGen) goType(t TypeRef) (string, error) {
	var base string
	switch t.Kind {
	case KindInt:
		base = "int32"
	case KindUint:
		base = "uint32"
	case KindHyper:
		base = "int64"
	case KindUhyper:
		base = "uint64"
	case KindBool:
		base = "bool"
	case KindFloat:
		base = "float32"
	case KindDouble:
		base = "float64"
	case KindString:
		base = "string"
	case KindOpaqueF:
		base = fmt.Sprintf("[%d]byte", t.Bound)
	case KindOpaqueV:
		base = "[]byte"
	case KindNamed:
		base = GoName(t.Name)
	case KindVoid:
		return "", fmt.Errorf("rpcgen: void used as a value type")
	default:
		return "", fmt.Errorf("rpcgen: unknown type kind %d", t.Kind)
	}
	switch {
	case t.FixedArray > 0:
		base = fmt.Sprintf("[%d]%s", t.FixedArray, base)
	case t.VarArray:
		base = "[]" + base
	}
	if t.Optional {
		base = "*" + base
	}
	return base, nil
}

// genPlanDecl emits the wire description and compiled plan for a
// declared type.
func (g *goGen) genPlanDecl(idlName, goTypeName, wireExpr string) {
	g.pf("// %s describes %s on the wire; %s is its compiled specialized\n// marshal plan (offsets and loop bounds resolved at build time).\n",
		wireVar(idlName), idlName, planVar(idlName))
	g.pf("var (\n\t%s = %s\n", wireVar(idlName), wireExpr)
	g.pf("\t%s = wire.MustPlan[%s](%s, wire.Specialized)\n)\n\n", planVar(idlName), goTypeName, wireVar(idlName))
	g.usesWire = true
}

func (g *goGen) genTypedef(td TypedefDef) error {
	name := GoName(td.Name)
	typ, err := g.goType(td.Type)
	if err != nil {
		return fmt.Errorf("typedef %s: %w", td.Name, err)
	}
	g.pf("// %s is the IDL typedef %s.\ntype %s %s\n\n", name, td.Name, name, typ)
	expr, root, err := g.declType(td.Name)
	if err != nil {
		return err
	}
	g.genPlanDecl(td.Name, name, expr)
	if !td.Type.Optional { // a pointer type can carry no methods
		g.pf("// Marshal encodes or decodes the value through its compiled wire plan.\n")
		g.pf("func (v *%s) Marshal(x *xdr.XDR) error { return %s.Marshal(x, v) }\n\n", name, planVar(td.Name))
	}
	if err := g.genCompiled(name, name, planVar(td.Name), root); err != nil {
		return fmt.Errorf("typedef %s: %w", td.Name, err)
	}
	return nil
}

func (g *goGen) genStruct(st StructDef) error {
	name := GoName(st.Name)
	g.pf("// %s is the IDL struct %s.\ntype %s struct {\n", name, st.Name, name)
	for _, f := range st.Fields {
		typ, err := g.goType(f.Type)
		if err != nil {
			return fmt.Errorf("struct %s.%s: %w", st.Name, f.Name, err)
		}
		g.pf("\t%s %s\n", GoName(f.Name), typ)
	}
	g.pf("}\n\n")
	expr, root, err := g.declType(st.Name)
	if err != nil {
		return err
	}
	g.genPlanDecl(st.Name, name, expr)
	g.pf("// Marshal encodes or decodes the struct through its compiled wire plan.\n")
	g.pf("func (v *%s) Marshal(x *xdr.XDR) error { return %s.Marshal(x, v) }\n\n", name, planVar(st.Name))
	if err := g.genCompiled(name, name, planVar(st.Name), root); err != nil {
		return fmt.Errorf("struct %s: %w", st.Name, err)
	}
	return nil
}

func (g *goGen) genUnion(u UnionDef) error {
	name := GoName(u.Name)
	g.pf("// %s is the IDL union %s; exactly the arm selected by %s is valid.\n",
		name, u.Name, GoName(u.Discriminant.Name))
	g.pf("type %s struct {\n", name)
	dtyp, err := g.goType(u.Discriminant.Type)
	if err != nil {
		return err
	}
	g.pf("\t%s %s\n", GoName(u.Discriminant.Name), dtyp)
	for _, arm := range u.Arms {
		if arm.Field == nil {
			continue
		}
		typ, err := g.goType(arm.Field.Type)
		if err != nil {
			return fmt.Errorf("union %s.%s: %w", u.Name, arm.Field.Name, err)
		}
		g.pf("\t%s %s\n", GoName(arm.Field.Name), typ)
	}
	g.pf("}\n\n")
	expr, root, err := g.declType(u.Name)
	if err != nil {
		return err
	}
	g.genPlanDecl(u.Name, name, expr)
	g.pf("// Marshal encodes or decodes the union through its compiled wire plan.\n")
	g.pf("func (v *%s) Marshal(x *xdr.XDR) error { return %s.Marshal(x, v) }\n\n", name, planVar(u.Name))
	if err := g.genCompiled(name, name, planVar(u.Name), root); err != nil {
		return fmt.Errorf("union %s: %w", u.Name, err)
	}
	return nil
}

// sideTypes renders a procedure's argument and result Go types, "" for
// a void side.
func (g *goGen) sideTypes(proc ProcDef) (argT, resT string, err error) {
	if proc.Arg.Kind != KindVoid {
		if argT, err = g.goType(proc.Arg); err != nil {
			return "", "", fmt.Errorf("proc %s arg: %w", proc.Name, err)
		}
	}
	if proc.Result.Kind != KindVoid {
		if resT, err = g.goType(proc.Result); err != nil {
			return "", "", fmt.Errorf("proc %s result: %w", proc.Name, err)
		}
	}
	return argT, resT, nil
}

func (g *goGen) genProgram(p ProgramDef) error {
	for _, v := range p.Versions {
		base := GoName(strings.ToLower(p.Name)) + "V" + fmt.Sprint(v.Num)
		cname := base + "Client"
		g.pf("// %s identifies the RPC program %s (version %d).\nconst (\n", base, p.Name, v.Num)
		g.pf("\t%sProg = uint32(%d)\n\t%sVers = uint32(%d)\n", base, p.Num, base, v.Num)
		for _, proc := range v.Procs {
			g.pf("\t%sProc%s = uint32(%d)\n", base, GoName(strings.ToLower(proc.Name)), proc.Num)
		}
		g.pf(")\n\n")

		// Dedicated plan variables for the procedures whose argument or
		// result is not a declared type with a package plan.
		plans := make([]struct{ arg, res string }, len(v.Procs))
		for i, proc := range v.Procs {
			dedicated := planVar(strings.ToLower(p.Name)) + "V" + fmt.Sprint(v.Num) + GoName(strings.ToLower(proc.Name))
			var err error
			if plans[i].arg, err = g.planRef(proc.Arg, dedicated+"Arg"); err != nil {
				return fmt.Errorf("proc %s arg: %w", proc.Name, err)
			}
			if plans[i].res, err = g.planRef(proc.Result, dedicated+"Res"); err != nil {
				return fmt.Errorf("proc %s result: %w", proc.Name, err)
			}
		}

		// Client stub.
		g.pf("// %s is a typed client for %s version %d.\ntype %s struct {\n\tC rpcclient.Caller\n}\n\n",
			cname, p.Name, v.Num, cname)
		for i, proc := range v.Procs {
			mname := GoName(strings.ToLower(proc.Name))
			argT, resT, err := g.sideTypes(proc)
			if err != nil {
				return err
			}
			pp := plans[i]
			// A void side passes the empty plan a zero-size value.
			params, arg := "", "&struct{}{}"
			if argT != "" {
				params, arg = "arg *"+argT, "arg"
			}
			g.pf("// %s calls procedure %d through compiled wire plans, fused\n// with the call header into a whole-call codec on supporting transports.\n", mname, proc.Num)
			if resT == "" {
				g.pf("func (c *%s) %s(%s) error {\n", cname, mname, params)
				g.pf("\treturn rpcclient.CallTyped(c.C, %sProc%s, %s, %s, %s, &struct{}{})\n}\n\n",
					base, mname, pp.arg, arg, pp.res)
				continue
			}
			g.pf("func (c *%s) %s(%s) (*%s, error) {\n", cname, mname, params, resT)
			g.pf("\tres := new(%s)\n\treturn res, rpcclient.CallTyped(c.C, %sProc%s, %s, %s, %s, res)\n}\n\n",
				resT, base, mname, pp.arg, arg, pp.res)
		}

		// Server interface + registration.
		iname := base + "Handler"
		g.pf("// %s is the service interface for %s version %d. An argument is\n"+
			"// valid until the method returns — the server decodes the next call\n"+
			"// over it — and a result may alias it.\n", iname, p.Name, v.Num)
		if g.opts.Compiled {
			g.pf("// A string or slice kept from a decoded value keeps the memory of\n" +
				"// that whole decode alive: the compiled decoders carve a value's\n" +
				"// strings, opaques and pointer-free arrays out of one allocation.\n")
		}
		g.pf("type %s interface {\n", iname)
		for _, proc := range v.Procs {
			mname := GoName(strings.ToLower(proc.Name))
			argT, resT, err := g.sideTypes(proc)
			if err != nil {
				return err
			}
			switch {
			case argT == "" && resT == "":
				g.pf("\t%s() error\n", mname)
			case resT == "":
				g.pf("\t%s(arg *%s) error\n", mname, argT)
			case argT == "":
				g.pf("\t%s() (*%s, error)\n", mname, resT)
			default:
				g.pf("\t%s(arg *%s) (*%s, error)\n", mname, argT, resT)
			}
		}
		g.pf("}\n\n")

		g.pf("// Register%s installs h's procedures on srv.\n", base)
		g.pf("func Register%s(srv *rpcserver.Server, h %s) {\n", base, iname)
		for i, proc := range v.Procs {
			mname := GoName(strings.ToLower(proc.Name))
			// A void side is a *struct{} the handler neither takes nor
			// returns: a nil result replies with the empty body.
			argT, resT, _ := g.sideTypes(proc) // the stubs above checked the error
			hf := "h." + mname
			switch {
			case argT == "" && resT == "":
				hf = fmt.Sprintf("func(*struct{}) (*struct{}, error) { return nil, h.%s() }", mname)
			case argT == "":
				hf = fmt.Sprintf("func(*struct{}) (*%s, error) { return h.%s() }", resT, mname)
			case resT == "":
				hf = fmt.Sprintf("func(arg *%s) (*struct{}, error) { return nil, h.%s(arg) }", argT, mname)
			}
			pp := plans[i]
			g.pf("\trpcserver.RegisterTyped(srv, %sProg, %sVers, %sProc%s, %s, %s, %s)\n",
				base, base, base, mname, pp.arg, pp.res, hf)
		}
		g.pf("}\n\n")
	}
	return nil
}
