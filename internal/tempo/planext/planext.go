// Package planext closes the paper's front (a): it derives wire-plan
// facts from Tempo's binding-time analysis instead of from hand-written
// compilation rules. Given a marshaling shape (the word-shaped subset of
// the XDR wire types), the package
//
//  1. emits a generic, micro-layered mini-C stub for the shape — the
//     same rpcgen-style code as the paper's Figure 4, calling the
//     xdr_int/xdr_u_int/xdr_bool primitives of internal/minic/lib with
//     their full dispatch stack (XDR_PUTLONG → xdrmem_putlong, mode
//     tests, overflow checks);
//  2. runs the specializer under the paper's binding-time division —
//     operation mode, ops table, and buffer geometry static; buffer
//     pointer and user data dynamic — with counted-array lengths probed
//     at a static count so their loops unroll (§6.2's guarded
//     specialization);
//  3. reads the residual program back as a straight-line store/load
//     schedule: the exact sequence of 4-byte buffer accesses the
//     specialized stub performs, with every interpretation layer gone.
//
// The schedule is the analysis-derived analog of a compiled wire plan.
// internal/wire's DeriveCodec regroups it into the same layout-free
// steps the hand-built compiler lowers a type to, and places them on
// the Go struct layout with the compiler's own pass; the tests prove
// the steps equal — the reproduction result of ROADMAP item 3,
// front (a).
//
// Shapes outside the word subset (strings, opaque data, 8-byte scalars,
// floats, arrays of records, unions, optional data) are rejected with an
// explicit *UnsupportedError: derivation either reproduces the plan or
// refuses loudly; it never silently mis-derives.
package planext

import (
	"fmt"
	"strconv"
	"strings"

	"specrpc/internal/minic"
	rpclib "specrpc/internal/minic/lib"
	"specrpc/internal/tempo"
	"specrpc/internal/tempo/bta"
)

// Dir selects the marshaling direction a derivation specializes.
type Dir int

// Derivation directions.
const (
	Encode Dir = iota + 1
	Decode
)

// String names the direction.
func (d Dir) String() string {
	switch d {
	case Encode:
		return "encode"
	case Decode:
		return "decode"
	default:
		return fmt.Sprintf("dir(%d)", int(d))
	}
}

// Kind enumerates the word-shaped marshaling subset: every shape whose
// wire image is a sequence of 4-byte units, which is exactly the subset
// the mini-C library marshals (and the paper's rmin/intarray examples
// live in).
type Kind uint8

// Shape kinds.
const (
	// Word is a 32-bit signed integer (xdr_int; also enums).
	Word Kind = iota + 1
	// UWord is a 32-bit unsigned integer (xdr_u_int).
	UWord
	// Flag is an XDR bool: one 4-byte 0/1 unit (xdr_bool).
	Flag
	// Fixed is a fixed-length array of word scalars; Len elements, no
	// count on the wire.
	Fixed
	// Counted is a variable-length array of word scalars: a 4-byte count
	// then the elements; Bound limits the count.
	Counted
	// Record is a struct of fields marshaled in order.
	Record
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Word:
		return "word"
	case UWord:
		return "uword"
	case Flag:
		return "flag"
	case Fixed:
		return "fixed"
	case Counted:
		return "counted"
	case Record:
		return "record"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Shape describes one marshaling shape in the word subset. It mirrors
// the corresponding wire.Type tree but is deliberately independent of
// package wire, so wire can depend on the deriver without a cycle.
type Shape struct {
	Kind   Kind
	Len    int      // Fixed: element count
	Bound  uint32   // Counted: decode bound (0 = unbounded)
	Elem   *Shape   // Fixed / Counted element (must be Word, UWord, or Flag)
	Fields []*Shape // Record members, in wire order
}

// UnsupportedError reports a shape the derivation pipeline cannot probe.
// Callers fall back to the hand-built compiler — explicitly.
type UnsupportedError struct {
	Reason string
}

// Error describes why the shape is outside the probe subset.
func (e *UnsupportedError) Error() string {
	return "planext: unsupported shape: " + e.Reason
}

func unsupported(format string, args ...any) error {
	return &UnsupportedError{Reason: fmt.Sprintf(format, args...)}
}

// Validate checks s against the probe subset.
func (s *Shape) Validate() error {
	if s == nil {
		return unsupported("nil shape")
	}
	switch s.Kind {
	case Word, UWord, Flag:
		return nil
	case Fixed:
		if s.Len <= 0 {
			return unsupported("fixed array of %d elements", s.Len)
		}
		return validateElem(s.Elem)
	case Counted:
		return validateElem(s.Elem)
	case Record:
		if len(s.Fields) == 0 {
			return unsupported("empty record")
		}
		for i, f := range s.Fields {
			if err := f.Validate(); err != nil {
				return fmt.Errorf("field %d: %w", i, err)
			}
		}
		return nil
	default:
		return unsupported("kind %s", s.Kind)
	}
}

func validateElem(e *Shape) error {
	if e == nil {
		return unsupported("array with nil element")
	}
	switch e.Kind {
	case Word, UWord, Flag:
		return nil
	case Record, Fixed, Counted:
		return unsupported("array of %s elements (the mini-C probe subset has word-scalar arrays only)", e.Kind)
	default:
		return unsupported("array of %s elements", e.Kind)
	}
}

// ProbeCount picks the static count a Counted field is probed at: enough
// elements to observe the per-element pattern and its stride (two), or
// the bound when the bound is smaller. The derived plan re-generalizes
// the unrolled elements into a counted run, so the probe count never
// appears in the final plan.
func ProbeCount(bound uint32) int {
	if bound == 1 {
		return 1
	}
	return 2
}

// Step is one component of an access path below the root object.
type Step struct {
	// Field is the record field index, or -1 when this step is an array
	// index.
	Field int
	// Index is the array element index, or -1 when this step is a field.
	Index int
	// Count marks the count word of a Counted field: the step names the
	// field, and the access moves its length, not an element.
	Count bool
}

// String renders the step.
func (st Step) String() string {
	switch {
	case st.Count:
		return fmt.Sprintf(".f%d#len", st.Field)
	case st.Index >= 0:
		return fmt.Sprintf("[%d]", st.Index)
	default:
		return fmt.Sprintf(".f%d", st.Field)
	}
}

// Access is one 4-byte buffer access of the residual schedule.
type Access struct {
	// Path locates the moved word below the root object.
	Path []Step
	// WireOff is the byte offset within the message at which the unit
	// lands, recovered from the residual buffer-pointer arithmetic.
	WireOff int
}

// String renders the access.
func (a Access) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "@%04d obj", a.WireOff)
	for _, st := range a.Path {
		sb.WriteString(st.String())
	}
	return sb.String()
}

// Schedule is the extracted residual program: the straight-line sequence
// of buffer accesses the specialized stub performs on the probe shape.
type Schedule struct {
	Dir Dir
	// Accesses in residual program order.
	Accesses []Access
	// WireBytes is the total encoded size of the probe shape.
	WireBytes int
}

// String renders the schedule, one access per line.
func (s *Schedule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s schedule, %d accesses, %d wire bytes\n", s.Dir, len(s.Accesses), s.WireBytes)
	for _, a := range s.Accesses {
		sb.WriteString(a.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Derivation is the full output of one probe run: the schedule plus the
// analysis artifacts it was read from, for inspection and the
// binding-time evidence dumps.
type Derivation struct {
	Schedule *Schedule
	// Residual is the specializer's output program.
	Residual *tempo.Result
	// Division is the binding-time division observed while specializing.
	Division *bta.Division
	// Program is the probe program the division annotates (library +
	// generated stub).
	Program *minic.Program
	// Entry is the probe stub's name in Program.
	Entry string
	// StubSource is the generated stub text appended to the library.
	StubSource string
	// StubFuncs names the generated marshaling functions (entry last),
	// in stub source order; the division dump renders exactly these.
	StubFuncs []string
}

// Derive emits the probe stub for shape, specializes it in the given
// direction under the paper's division, and extracts the residual
// schedule.
func Derive(shape *Shape, dir Dir) (*Derivation, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if dir != Encode && dir != Decode {
		return nil, fmt.Errorf("planext: bad direction %d", int(dir))
	}
	stub, err := emitStub(shape)
	if err != nil {
		return nil, err
	}
	prog, err := minic.Parse(rpclib.Source + stub.src)
	if err != nil {
		return nil, fmt.Errorf("planext: probe stub does not parse: %w\n%s", err, stub.src)
	}
	if err := minic.Check(prog); err != nil {
		return nil, fmt.Errorf("planext: probe stub does not check: %w\n%s", err, stub.src)
	}

	op := rpclib.OpEncode
	if dir == Decode {
		op = rpclib.OpDecode
	}
	// The probe buffer is statically sized to the probe image, so every
	// overflow check folds away (the paper's "buffer geometry static").
	ctx := &tempo.Context{
		Entry: stub.entry,
		Params: []tempo.ParamSpec{
			tempo.Object(rpclib.XDRSpec(op, stub.wireBytes)),
			tempo.Dynamic(),
		},
	}
	div, res, err := bta.Analyze(prog, ctx)
	if err != nil {
		return nil, fmt.Errorf("planext: specializing %s %s: %w", stub.entry, dir, err)
	}
	sched, err := extract(res, dir, stub)
	if err != nil {
		return nil, err
	}
	return &Derivation{
		Schedule:   sched,
		Residual:   res,
		Division:   div,
		Program:    prog,
		Entry:      stub.entry,
		StubSource: stub.src,
		StubFuncs:  stub.funcs,
	}, nil
}

// ---------------------------------------------------------------------------
// Probe stub emission

// stubInfo carries the generated probe stub and its naming metadata.
type stubInfo struct {
	src       string
	entry     string   // root marshaling function name
	funcs     []string // all generated functions, stub source order
	root      *Shape   // root record (original shape wrapped if scalar)
	wrapped   bool     // true when the original shape was wrapped in a record
	wireBytes int      // encoded probe size in bytes
}

// emitStub generates the mini-C probe: struct declarations and generic
// rpcgen-style marshaling functions for shape, named away from the
// library's own declarations (d0, d1, ... / xdr_d0, ...). Non-record
// roots are wrapped in a one-field record, which leaves every access
// path and wire offset unchanged (the field sits at offset 0).
func emitStub(shape *Shape) (*stubInfo, error) {
	root := shape
	wrapped := false
	if shape.Kind != Record {
		root = &Shape{Kind: Record, Fields: []*Shape{shape}}
		wrapped = true
	}

	// Name records in preorder.
	var records []*Shape
	names := map[*Shape]string{}
	var collect func(s *Shape)
	collect = func(s *Shape) {
		if s.Kind != Record {
			return
		}
		names[s] = fmt.Sprintf("d%d", len(records))
		records = append(records, s)
		for _, f := range s.Fields {
			collect(f)
		}
	}
	collect(root)

	var sb strings.Builder
	sb.WriteString("\n/* probe stub generated by planext */\n\n")
	// Declarations first (a nested record must be declared before use,
	// so emit in reverse preorder: leaves before enclosing records).
	for i := len(records) - 1; i >= 0; i-- {
		rec := records[i]
		fmt.Fprintf(&sb, "struct %s {\n", names[rec])
		for fi, f := range rec.Fields {
			switch f.Kind {
			case Word, UWord, Flag:
				fmt.Fprintf(&sb, "    int f%d;\n", fi)
			case Fixed:
				fmt.Fprintf(&sb, "    int f%d[%d];\n", fi, f.Len)
			case Counted:
				fmt.Fprintf(&sb, "    int f%d_len;\n", fi)
				fmt.Fprintf(&sb, "    int f%d[%d];\n", fi, ProbeCount(f.Bound))
			case Record:
				fmt.Fprintf(&sb, "    struct %s f%d;\n", names[f], fi)
			}
		}
		sb.WriteString("};\n\n")
	}
	var funcs []string
	for i := len(records) - 1; i >= 0; i-- {
		rec := records[i]
		name := names[rec]
		funcs = append(funcs, "xdr_"+name)
		fmt.Fprintf(&sb, "int xdr_%s(struct xdrbuf* xdrs, struct %s* objp)\n{\n", name, name)
		for fi, f := range rec.Fields {
			switch f.Kind {
			case Word:
				fmt.Fprintf(&sb, "    if (!xdr_int(xdrs, &objp->f%d)) { return 0; }\n", fi)
			case UWord:
				fmt.Fprintf(&sb, "    if (!xdr_u_int(xdrs, &objp->f%d)) { return 0; }\n", fi)
			case Flag:
				fmt.Fprintf(&sb, "    if (!xdr_bool(xdrs, &objp->f%d)) { return 0; }\n", fi)
			case Fixed:
				emitLoop(&sb, elemProc(f.Elem), fi, f.Len)
			case Counted:
				// The count word moves through the full primitive stack
				// like any datum; the element loop is probed at a static
				// count so it unrolls (§6.2).
				fmt.Fprintf(&sb, "    if (!xdr_u_int(xdrs, &objp->f%d_len)) { return 0; }\n", fi)
				emitLoop(&sb, elemProc(f.Elem), fi, ProbeCount(f.Bound))
			case Record:
				fmt.Fprintf(&sb, "    if (!xdr_%s(xdrs, &objp->f%d)) { return 0; }\n", names[f], fi)
			}
		}
		sb.WriteString("    return 1;\n}\n\n")
	}

	return &stubInfo{
		src:       sb.String(),
		entry:     "xdr_" + names[root],
		funcs:     funcs,
		root:      root,
		wrapped:   wrapped,
		wireBytes: probeWireBytes(root),
	}, nil
}

func emitLoop(sb *strings.Builder, proc string, fi, n int) {
	fmt.Fprintf(sb, "    {\n        int i;\n        for (i = 0; i < %d; i++) {\n", n)
	fmt.Fprintf(sb, "            if (!%s(xdrs, &objp->f%d[i])) { return 0; }\n", proc, fi)
	sb.WriteString("        }\n    }\n")
}

func elemProc(e *Shape) string {
	switch e.Kind {
	case UWord:
		return "xdr_u_int"
	case Flag:
		return "xdr_bool"
	default:
		return "xdr_int"
	}
}

// probeWireBytes sizes the probe image: 4 bytes per word, counted fields
// at their probe count plus the count word.
func probeWireBytes(s *Shape) int {
	switch s.Kind {
	case Word, UWord, Flag:
		return 4
	case Fixed:
		return 4 * s.Len
	case Counted:
		return 4 + 4*ProbeCount(s.Bound)
	case Record:
		total := 0
		for _, f := range s.Fields {
			total += probeWireBytes(f)
		}
		return total
	default:
		return 0
	}
}

// ---------------------------------------------------------------------------
// Residual extraction

// extract reads the residual entry function back as an access schedule.
// The residual grammar is deliberately narrow: after full specialization
// the body must be an alternation of buffer accesses and constant
// pointer bumps. Anything else — a surviving loop, branch, call, or
// overflow check — means the division did not fully specialize the stub,
// and extraction fails loudly.
func extract(res *tempo.Result, dir Dir, stub *stubInfo) (*Schedule, error) {
	fn := res.Program.Funcs[res.Entry]
	if fn == nil {
		return nil, fmt.Errorf("planext: residual program lacks entry %s", res.Entry)
	}
	// The residual must keep exactly the two runtime parameters of the
	// division: the handle (dynamic buffer pointer) and the object.
	if len(res.Params) != 2 {
		return nil, fmt.Errorf("planext: residual entry has params %v, want [xdrs objp]", res.Params)
	}
	handle, obj := res.Params[0], res.Params[1]

	sched := &Schedule{Dir: dir}
	// Pointer temporaries survive inlining of nested records
	// (struct d1* objp_2 = &objp->f1; int* ip = &objp_2->f0); env maps
	// them back to their initializer so paths resolve to the root object.
	env := map[string]minic.Expr{}
	off := 0
	for _, st := range fn.Body.Stmts {
		if vd, ok := st.(*minic.VarDecl); ok {
			if vd.Init == nil {
				return nil, extractErr(st, "uninitialized residual local %s survives specialization", vd.Name)
			}
			env[vd.Name] = vd.Init
			continue
		}
		es, ok := st.(*minic.ExprStmt)
		if !ok {
			return nil, extractErr(st, "residual statement %T survives specialization", st)
		}
		switch e := es.E.(type) {
		case *minic.Call:
			// stlong(xdrs->x_private, objp->...): one encode store.
			name, ok := callName(e)
			if !ok || name != "stlong" {
				return nil, extractErr(st, "residual call %s survives specialization", minic.ExprString(es.E))
			}
			if dir != Encode {
				return nil, extractErr(st, "store %s in a decode residual", minic.ExprString(es.E))
			}
			if len(e.Args) != 2 || !isBufPtr(e.Args[0], handle) {
				return nil, extractErr(st, "store not through the stream pointer: %s", minic.ExprString(es.E))
			}
			path, err := parsePath(e.Args[1], obj, env, stub)
			if err != nil {
				return nil, err
			}
			sched.Accesses = append(sched.Accesses, Access{Path: path, WireOff: off})
		case *minic.Assign:
			// Either the pointer bump or a decode load.
			if isBufBump(e, handle) {
				k, _ := bumpBytes(e)
				off += k
				continue
			}
			if dir != Decode {
				return nil, extractErr(st, "assignment %s in an encode residual", minic.ExprString(es.E))
			}
			call, ok := e.RHS.(*minic.Call)
			if !ok {
				return nil, extractErr(st, "residual assignment %s is not a load", minic.ExprString(es.E))
			}
			name, _ := callName(call)
			if name != "ldlong" || e.Op != "=" {
				return nil, extractErr(st, "residual assignment %s is not a load", minic.ExprString(es.E))
			}
			if len(call.Args) != 1 || !isBufPtr(call.Args[0], handle) {
				return nil, extractErr(st, "load not through the stream pointer: %s", minic.ExprString(es.E))
			}
			path, err := parsePath(e.LHS, obj, env, stub)
			if err != nil {
				return nil, err
			}
			sched.Accesses = append(sched.Accesses, Access{Path: path, WireOff: off})
		default:
			return nil, extractErr(st, "residual expression %s survives specialization", minic.ExprString(es.E))
		}
	}
	sched.WireBytes = off
	if off != stub.wireBytes {
		return nil, fmt.Errorf("planext: residual moves %d wire bytes, probe image is %d", off, stub.wireBytes)
	}
	if len(sched.Accesses)*4 != off {
		return nil, fmt.Errorf("planext: %d accesses do not cover %d wire bytes", len(sched.Accesses), off)
	}
	return sched, nil
}

func extractErr(st minic.Stmt, format string, args ...any) error {
	return fmt.Errorf("planext: %s (the division did not fully specialize the stub)",
		fmt.Sprintf(format, args...))
}

func callName(c *minic.Call) (string, bool) {
	switch f := c.Fun.(type) {
	case *minic.VarRef:
		return f.Name, true
	case *minic.FuncRef:
		return f.Name, true
	default:
		return "", false
	}
}

// isBufPtr matches the residual stream-pointer expression
// <handle>->x_private.
func isBufPtr(e minic.Expr, handle string) bool {
	f, ok := e.(*minic.Field)
	if !ok || f.Name != "x_private" {
		return false
	}
	v, ok := f.X.(*minic.VarRef)
	return ok && v.Name == handle
}

// isBufBump matches <handle>->x_private += <const>.
func isBufBump(a *minic.Assign, handle string) bool {
	if a.Op != "+=" || !isBufPtr(a.LHS, handle) {
		return false
	}
	_, ok := a.RHS.(*minic.IntLit)
	return ok
}

func bumpBytes(a *minic.Assign) (int, bool) {
	lit, ok := a.RHS.(*minic.IntLit)
	if !ok {
		return 0, false
	}
	return int(lit.Val), true
}

// parsePath maps a residual object access (objp->f1.f0[3], or the
// wrapped root's objp->f0...) back to shape steps. Pointer temporaries
// left by record inlining resolve through env; the index must have
// folded to a constant — a symbolic index would mean a loop survived.
func parsePath(e minic.Expr, obj string, env map[string]minic.Expr, stub *stubInfo) ([]Step, error) {
	var rev []Step
	hops := 0
	for {
		switch n := e.(type) {
		case *minic.VarRef:
			if n.Name != obj {
				init, ok := env[n.Name]
				if !ok {
					return nil, fmt.Errorf("planext: access path rooted at unknown %q", n.Name)
				}
				if hops++; hops > 1000 {
					return nil, fmt.Errorf("planext: temporary chain from %q does not reach %q", n.Name, obj)
				}
				e = init
				continue
			}
			// Reverse into root-first order.
			steps := make([]Step, len(rev))
			for i := range rev {
				steps[i] = rev[len(rev)-1-i]
			}
			if stub.wrapped {
				// Strip the synthetic wrapper field f0; its count word
				// stays, flagged as the (fieldless) root count.
				if len(steps) == 0 || steps[0].Index >= 0 || steps[0].Field != 0 {
					return nil, fmt.Errorf("planext: wrapped root access lacks the f0 step")
				}
				if steps[0].Count {
					steps[0] = Step{Field: -1, Index: -1, Count: true}
				} else {
					steps = steps[1:]
				}
			}
			return steps, nil
		case *minic.Field:
			fi, isCount, err := parseFieldName(n.Name)
			if err != nil {
				return nil, err
			}
			rev = append(rev, Step{Field: fi, Index: -1, Count: isCount})
			e = n.X
		case *minic.Index:
			lit, ok := n.I.(*minic.IntLit)
			if !ok {
				return nil, fmt.Errorf("planext: non-constant index %s survives specialization", minic.ExprString(n.I))
			}
			rev = append(rev, Step{Field: -1, Index: int(lit.Val)})
			e = n.X
		case *minic.Unary:
			if n.Op == "*" || n.Op == "&" {
				e = n.X
				continue
			}
			return nil, fmt.Errorf("planext: unexpected access expression %s", minic.ExprString(n))
		default:
			return nil, fmt.Errorf("planext: unexpected access expression %T", e)
		}
	}
}

// parseFieldName decodes the probe naming scheme: fN or fN_len.
func parseFieldName(name string) (field int, count bool, err error) {
	base, isCount := strings.CutSuffix(name, "_len")
	num, ok := strings.CutPrefix(base, "f")
	if !ok {
		return 0, false, fmt.Errorf("planext: unexpected field %q in residual access", name)
	}
	fi, aerr := strconv.Atoi(num)
	if aerr != nil {
		return 0, false, fmt.Errorf("planext: unexpected field %q in residual access", name)
	}
	return fi, isCount, nil
}
