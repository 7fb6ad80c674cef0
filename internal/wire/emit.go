package wire

import (
	"fmt"
	"strings"
	"unicode"

	"specrpc/internal/xdr"
)

// This file is the codegen backend of the top specialization rung:
// where fused.go still *interprets* a flat instruction array at run
// time, the emitter below lowers the same wire shape into straight-line
// Go source that rpcgen writes next to the generated stubs. The emitted
// routines are the paper's compiled specialized stubs: one bounds
// reservation covers the header image plus every leading fixed-size
// field, scalar stores and loads land at offsets the Go compiler
// resolves to constants, fixed opaque data is a copy, an array of scalar
// units is one call to the run kernel the interpreter uses (units.go),
// and other variable-length tails run as explicit loops — no Op
// dispatch at all.
//
// The emitter is a second back end over the one Type tree the runtime
// compiles, not over the flat program: generation happens in the rpcgen
// process, where the Go types being described do not exist yet, so
// there is no reflect.Type to take offsets from and the emitted code
// addresses fields by selector (derived from Field.Name) and lets the
// compiler do the offset arithmetic. A program's runs are fused by
// Go-memory contiguity and have lost those selectors. What the tree
// cannot imply — the declared name an enum field casts through or a
// typedef'd slice allocates as — rides on Type.Go.
//
// Byte and error equivalence with the interpretive plans is a hard
// requirement — compiled, fused, and generic codecs multiplex on one
// connection — so every emitted sequence mirrors the corresponding
// encodeProg/decodeProg semantics: bound checks before counts, padding
// written explicitly (Extend may return recycled dirty memory), hostile
// counts rejected before allocation, and the exact slice reuse rule of
// ensureSlice/ensureSlicePtrFree. The differential
// fuzz test (FuzzCompiledCodec) pins all of it.

// goIdent exports an IDL identifier exactly as rpcgen.GoName spells the
// declarations the emitted code refers to (lower_snake -> CamelCase).
func goIdent(name string) string {
	var sb strings.Builder
	for _, p := range strings.Split(name, "_") {
		if p == "" {
			continue
		}
		r := []rune(p)
		r[0] = unicode.ToUpper(r[0])
		sb.WriteString(string(r))
	}
	return sb.String()
}

// goSpelling is the Go type the generated package declares for t: the
// explicit Type.Go where one was recorded, otherwise what the shape
// implies.
func goSpelling(t *Type) string {
	if t.Go != "" {
		return t.Go
	}
	switch t.Kind {
	case Int32:
		return "int32"
	case Uint32:
		return "uint32"
	case Bool:
		return "bool"
	case Float32:
		return "float32"
	case Hyper:
		return "int64"
	case Uhyper:
		return "uint64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case OpaqueFixed:
		return fmt.Sprintf("[%d]byte", t.Len)
	case OpaqueVar:
		return "[]byte"
	case FixedArray:
		return fmt.Sprintf("[%d]%s", t.Len, goSpelling(t.Elem))
	case VarArray:
		return "[]" + goSpelling(t.Elem)
	default: // Struct
		return goIdent(t.Name)
	}
}

// EmitCompiledFuncs renders the compiled encoder/decoder pair for one
// root type as Go source: compiledAppend<base> emits a whole message
// (header image, XID stamp, value) onto a BufStream, and
// compiledDecode<base> reads the value back out of raw body bytes. The
// functions are meant to be registered with RegisterCompiled in the
// generated package's init. usesMath reports whether the source needs
// the math import (float fields); encoding/binary is always needed.
func EmitCompiledFuncs(base string, root *Type) (src string, usesMath bool, err error) {
	if root == nil {
		return "", false, fmt.Errorf("wire: emit: nil root type")
	}
	if err := root.Validate(); err != nil {
		return "", false, err
	}
	e := &emitter{}
	goType := goSpelling(root)

	e.pf("// compiledAppend%s is the rpcgen-emitted straight-line encoder for %s:", base, goType)
	e.pf("// one reservation covers the header and the leading fixed-size fields,")
	e.pf("// stores land at constant offsets, arrays of scalar units go through the")
	e.pf("// interpreter's own run kernel, and other variable-length tails run as")
	e.pf("// explicit loops — no plan-executor dispatch. Byte-identical to the")
	e.pf("// interpretive plan by construction.")
	e.pf("func compiledAppend%s(bs *xdr.BufStream, hdr []byte, xid uint32, v *%s) error {", base, goType)
	e.indent++
	ag := &appendGen{e: e}
	if err := ag.walk(root, "(*v)"); err != nil {
		return "", false, err
	}
	ag.flush()
	e.pf("return nil")
	e.indent--
	e.pf("}")
	e.pf("")

	e.pf("// compiledDecode%s is the matching straight-line decoder: one length", base)
	e.pf("// check per fixed-size run, loads at constant offsets, counts validated")
	e.pf("// before any allocation.")
	e.pf("func compiledDecode%s(body []byte, v *%s) error {", base, goType)
	e.indent++
	dg := &decodeGen{e: e}
	if err := dg.walk(root, "(*v)"); err != nil {
		return "", false, err
	}
	dg.flush()
	e.pf("return nil")
	e.indent--
	e.pf("}")

	return e.sb.String(), e.math, nil
}

// ---------------------------------------------------------------------------
// Emitter plumbing

type emitter struct {
	sb     strings.Builder
	indent int
	names  int
	math   bool
}

func (e *emitter) pf(format string, args ...any) {
	for i := 0; i < e.indent; i++ {
		e.sb.WriteByte('\t')
	}
	fmt.Fprintf(&e.sb, format, args...)
	e.sb.WriteByte('\n')
}

// name mints a fresh local variable name; the counter is per emitted
// function pair, so nested blocks never shadow each other.
func (e *emitter) name(prefix string) string {
	e.names++
	return fmt.Sprintf("%s%d", prefix, e.names)
}

// lineBuf accumulates statements for a pending fixed-size segment; depth
// tracks nesting from loops opened inside the segment itself.
type lineBuf struct {
	lines []string
	depth int
}

func (lb *lineBuf) add(format string, args ...any) {
	lb.lines = append(lb.lines, strings.Repeat("\t", lb.depth)+fmt.Sprintf(format, args...))
}

// offExpr renders base+k, folding the literal when there is no base.
func offExpr(base string, k int) string {
	if base == "" {
		return fmt.Sprintf("%d", k)
	}
	if k == 0 {
		return base
	}
	return fmt.Sprintf("%s+%d", base, k)
}

// unrollLimit bounds full unrolling of fixed arrays; longer ones are a
// kernel call when the element is a scalar unit and otherwise loop with
// a compiler-strength-reduced index.
const unrollLimit = 4

// unitKernel names the run kernel pair (wire.PutUnits<w>/GetUnits<w>)
// that moves an array of t: the scalar kinds that are one big-endian
// unit in memory and on the wire alike. A bool is not (one byte in
// memory), and a struct element keeps its per-field stores — the
// emitter does not know whether Go pads it.
func unitKernel(t *Type) (width string, ok bool) {
	switch t.Kind {
	case Int32, Uint32, Float32:
		return "32", true
	case Hyper, Uhyper, Float64:
		return "64", true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Fixed-size stores and loads
//
// These render the body of one fixed segment: every statement addresses
// buf[base+const] where buf was carved out by a single Extend (encode)
// or covered by a single length check (decode).

func emitStores(e *emitter, lb *lineBuf, t *Type, expr, buf, base string, off int) {
	switch t.Kind {
	case Int32, Uint32:
		lb.add("binary.BigEndian.PutUint32(%s[%s:], uint32(%s))", buf, offExpr(base, off), expr)
	case Bool:
		lb.add("if %s {", expr)
		lb.depth++
		lb.add("binary.BigEndian.PutUint32(%s[%s:], 1)", buf, offExpr(base, off))
		lb.depth--
		lb.add("} else {")
		lb.depth++
		lb.add("binary.BigEndian.PutUint32(%s[%s:], 0)", buf, offExpr(base, off))
		lb.depth--
		lb.add("}")
	case Float32:
		e.math = true
		inner := expr
		if goSpelling(t) != "float32" {
			inner = fmt.Sprintf("float32(%s)", expr)
		}
		lb.add("binary.BigEndian.PutUint32(%s[%s:], math.Float32bits(%s))", buf, offExpr(base, off), inner)
	case Hyper, Uhyper:
		lb.add("binary.BigEndian.PutUint64(%s[%s:], uint64(%s))", buf, offExpr(base, off), expr)
	case Float64:
		e.math = true
		inner := expr
		if goSpelling(t) != "float64" {
			inner = fmt.Sprintf("float64(%s)", expr)
		}
		lb.add("binary.BigEndian.PutUint64(%s[%s:], math.Float64bits(%s))", buf, offExpr(base, off), inner)
	case OpaqueFixed:
		if t.Len == 0 {
			return
		}
		lb.add("copy(%s[%s:%s], %s[:])", buf, offExpr(base, off), offExpr(base, off+t.Len), expr)
		for j := 0; j < xdr.Pad(t.Len); j++ {
			lb.add("%s[%s] = 0", buf, offExpr(base, off+t.Len+j))
		}
	case Struct:
		for _, f := range t.Fields {
			emitStores(e, lb, f.Type, expr+"."+goIdent(f.Name), buf, base, off)
			n, _ := f.Type.wireSize()
			off += n
		}
	case FixedArray:
		es, _ := t.Elem.wireSize()
		if es == 0 || t.Len == 0 {
			return
		}
		if t.Len <= unrollLimit {
			for j := 0; j < t.Len; j++ {
				emitStores(e, lb, t.Elem, fmt.Sprintf("%s[%d]", expr, j), buf, base, off+j*es)
			}
			return
		}
		if width, ok := unitKernel(t.Elem); ok {
			lb.add("wire.PutUnits%s(%s[%s:%s], %s[:])", width, buf, offExpr(base, off), offExpr(base, off+t.Len*es), expr)
			return
		}
		iv := e.name("i")
		lb.add("for %s := 0; %s < %d; %s++ {", iv, iv, t.Len, iv)
		lb.depth++
		emitStores(e, lb, t.Elem, fmt.Sprintf("%s[%s]", expr, iv),
			buf, fmt.Sprintf("%s+%s*%d", offExpr(base, off), iv, es), 0)
		lb.depth--
		lb.add("}")
	}
}

func emitLoads(e *emitter, lb *lineBuf, t *Type, expr, buf, base string, off int) {
	load32 := fmt.Sprintf("binary.BigEndian.Uint32(%s[%s:])", buf, offExpr(base, off))
	load64 := fmt.Sprintf("binary.BigEndian.Uint64(%s[%s:])", buf, offExpr(base, off))
	switch t.Kind {
	case Int32, Uint32:
		lb.add("%s = %s(%s)", expr, goSpelling(t), load32)
	case Bool:
		if goSpelling(t) == "bool" {
			lb.add("%s = %s != 0", expr, load32)
		} else {
			lb.add("%s = %s(%s != 0)", expr, goSpelling(t), load32)
		}
	case Float32:
		e.math = true
		inner := fmt.Sprintf("math.Float32frombits(%s)", load32)
		if goSpelling(t) != "float32" {
			inner = fmt.Sprintf("%s(%s)", goSpelling(t), inner)
		}
		lb.add("%s = %s", expr, inner)
	case Hyper, Uhyper:
		lb.add("%s = %s(%s)", expr, goSpelling(t), load64)
	case Float64:
		e.math = true
		inner := fmt.Sprintf("math.Float64frombits(%s)", load64)
		if goSpelling(t) != "float64" {
			inner = fmt.Sprintf("%s(%s)", goSpelling(t), inner)
		}
		lb.add("%s = %s", expr, inner)
	case OpaqueFixed:
		if t.Len == 0 {
			return
		}
		lb.add("copy(%s[:], %s[%s:%s])", expr, buf, offExpr(base, off), offExpr(base, off+t.Len))
	case Struct:
		for _, f := range t.Fields {
			emitLoads(e, lb, f.Type, expr+"."+goIdent(f.Name), buf, base, off)
			n, _ := f.Type.wireSize()
			off += n
		}
	case FixedArray:
		es, _ := t.Elem.wireSize()
		if es == 0 || t.Len == 0 {
			return
		}
		if t.Len <= unrollLimit {
			for j := 0; j < t.Len; j++ {
				emitLoads(e, lb, t.Elem, fmt.Sprintf("%s[%d]", expr, j), buf, base, off+j*es)
			}
			return
		}
		if width, ok := unitKernel(t.Elem); ok {
			lb.add("wire.GetUnits%s(%s[:], %s[%s:%s])", width, expr, buf, offExpr(base, off), offExpr(base, off+t.Len*es))
			return
		}
		iv := e.name("i")
		lb.add("for %s := 0; %s < %d; %s++ {", iv, iv, t.Len, iv)
		lb.depth++
		emitLoads(e, lb, t.Elem, fmt.Sprintf("%s[%s]", expr, iv),
			buf, fmt.Sprintf("%s+%s*%d", offExpr(base, off), iv, es), 0)
		lb.depth--
		lb.add("}")
	}
}

// ---------------------------------------------------------------------------
// Append generation

// appendGen walks the tree accumulating fixed-size stores into one
// pending segment; variable-size items flush the segment (one Extend)
// and emit their own bounded blocks. The first flush also emits the
// header: the reservation covers hdr plus the leading fixed run, the
// XID is stamped at offset 0 (both message directions carry it there),
// exactly as msgBody.append does.
type appendGen struct {
	e          *emitter
	pend       *lineBuf
	pendSize   int
	seg        string
	headerDone bool
}

func (g *appendGen) walk(t *Type, expr string) error {
	if sz, ok := t.wireSize(); ok {
		if sz == 0 {
			return nil
		}
		if g.seg == "" {
			g.seg = g.e.name("b")
			g.pend = &lineBuf{}
		}
		emitStores(g.e, g.pend, t, expr, g.seg, "", g.pendSize)
		g.pendSize += sz
		return nil
	}
	switch t.Kind {
	case Struct:
		for _, f := range t.Fields {
			if err := g.walk(f.Type, expr+"."+goIdent(f.Name)); err != nil {
				return err
			}
		}
		return nil
	case FixedArray: // variable-size elements
		g.flush()
		iv := g.e.name("i")
		g.e.pf("for %s := 0; %s < %d; %s++ {", iv, iv, t.Len, iv)
		g.e.indent++
		sub := &appendGen{e: g.e, headerDone: true}
		if err := sub.walk(t.Elem, fmt.Sprintf("%s[%s]", expr, iv)); err != nil {
			return err
		}
		sub.flush()
		g.e.indent--
		g.e.pf("}")
		return nil
	case String, OpaqueVar:
		g.flush()
		g.emitCounted(t, expr)
		return nil
	case VarArray:
		g.flush()
		return g.emitVarArray(t, expr)
	default:
		return fmt.Errorf("wire: emit: cannot compile kind %s", t.Kind)
	}
}

func (g *appendGen) flush() {
	e := g.e
	switch {
	case !g.headerDone:
		w := e.name("w")
		if g.pendSize > 0 {
			e.pf("%s := bs.Extend(len(hdr) + %d)", w, g.pendSize)
		} else {
			e.pf("%s := bs.Extend(len(hdr))", w)
		}
		e.pf("copy(%s, hdr)", w)
		e.pf("binary.BigEndian.PutUint32(%s, xid)", w)
		if g.pendSize > 0 {
			e.pf("%s := %s[len(hdr):]", g.seg, w)
			g.emitPend()
		}
		g.headerDone = true
	case g.pendSize > 0:
		e.pf("%s := bs.Extend(%d)", g.seg, g.pendSize)
		g.emitPend()
	}
	g.pend, g.pendSize, g.seg = nil, 0, ""
}

func (g *appendGen) emitPend() {
	for _, ln := range g.pend.lines {
		g.e.pf("%s", ln)
	}
}

// emitCounted renders a string or variable-opaque item: bound check
// before the count (as encodeProg does), one reservation for count +
// bytes + padding, padding zeroed explicitly.
func (g *appendGen) emitCounted(t *Type, expr string) {
	e := g.e
	if t.Bound > 0 {
		e.pf("if uint32(len(%s)) > %d {", expr, t.Bound)
		e.indent++
		e.pf("return xdr.ErrTooBig")
		e.indent--
		e.pf("}")
	}
	nv, pv, wv := e.name("n"), e.name("p"), e.name("w")
	e.pf("%s := len(%s)", nv, expr)
	e.pf("%s := xdr.Pad(%s)", pv, nv)
	e.pf("%s := bs.Extend(4 + %s + %s)", wv, nv, pv)
	e.pf("binary.BigEndian.PutUint32(%s, uint32(%s))", wv, nv)
	src := expr
	if t.Kind == String && goSpelling(t) != "string" {
		src = fmt.Sprintf("string(%s)", expr)
	}
	e.pf("copy(%s[4:], %s)", wv, src)
	zv := e.name("z")
	e.pf("for %s := 4 + %s; %s < 4+%s+%s; %s++ {", zv, nv, zv, nv, pv, zv)
	e.indent++
	e.pf("%s[%s] = 0", wv, zv)
	e.indent--
	e.pf("}")
}

func (g *appendGen) emitVarArray(t *Type, expr string) error {
	e := g.e
	// Hoist the slice into a local: indexing the original lvalue inside
	// a loop would force the compiler to reload the slice header every
	// iteration (the []byte window it stores through might alias it) and
	// bounds-check every element load; a local header plus a range loop
	// keeps both out of the residual loop.
	sv := e.name("s")
	e.pf("%s := %s", sv, expr)
	if t.Bound > 0 {
		e.pf("if uint32(len(%s)) > %d {", sv, t.Bound)
		e.indent++
		e.pf("return xdr.ErrTooBig")
		e.indent--
		e.pf("}")
	}
	nv := e.name("n")
	e.pf("%s := len(%s)", nv, sv)
	if es, ok := t.Elem.wireSize(); ok {
		// Fixed-size elements: count and every element share one
		// reservation, stores strength-reduce to constant strides.
		wv := e.name("w")
		e.pf("%s := bs.Extend(4 + %s*%d)", wv, nv, es)
		e.pf("binary.BigEndian.PutUint32(%s, uint32(%s))", wv, nv)
		if width, ok := unitKernel(t.Elem); ok {
			// A run of scalar units: the kernel putRun stores through.
			e.pf("wire.PutUnits%s(%s[4:], %s)", width, wv, sv)
			return nil
		}
		// Store through an advancing window over the reservation: every
		// offset inside the loop is a constant, so each bounds check is a
		// length-vs-constant compare instead of the re-derived
		// w[4+i*es:] reslice the prove pass won't fold.
		ov := e.name("o")
		e.pf("%s := %s[4:]", ov, wv)
		iv := e.name("i")
		e.pf("for %s := range %s {", iv, sv)
		e.indent++
		lb := &lineBuf{}
		emitStores(e, lb, t.Elem, fmt.Sprintf("%s[%s]", sv, iv), ov, "", 0)
		for _, ln := range lb.lines {
			e.pf("%s", ln)
		}
		e.pf("%s = %s[%d:]", ov, ov, es)
		e.indent--
		e.pf("}")
		return nil
	}
	// Variable-size elements: count, then each element re-enters the
	// segment machinery inside the loop.
	e.pf("binary.BigEndian.PutUint32(bs.Extend(4), uint32(%s))", nv)
	iv := e.name("i")
	e.pf("for %s := range %s {", iv, sv)
	e.indent++
	sub := &appendGen{e: e, headerDone: true}
	if err := sub.walk(t.Elem, fmt.Sprintf("%s[%s]", sv, iv)); err != nil {
		return err
	}
	sub.flush()
	e.indent--
	e.pf("}")
	return nil
}

// ---------------------------------------------------------------------------
// Decode generation

// decodeGen mirrors appendGen for the read side. While the cursor is
// still statically known (before the first variable-size item) offsets
// are literals and no cursor variable exists at all; the first variable
// item materializes pos. Checks and error choices track decodeProg:
// short bodies are ErrOverflow, counts above their bound ErrTooBig,
// hostile counts rejected against the remaining bytes before any
// allocation, and slice reuse follows ensureSlice exactly (keep a backing
// array with room for the count, allocate only for a larger one).
type decodeGen struct {
	e        *emitter
	pend     *lineBuf
	pendSize int
	dynamic  bool
	static   int
}

func (g *decodeGen) walk(t *Type, expr string) error {
	if sz, ok := t.wireSize(); ok {
		if sz == 0 {
			return nil
		}
		if g.pend == nil {
			g.pend = &lineBuf{}
		}
		base, off := "", g.static+g.pendSize
		if g.dynamic {
			base, off = "pos", g.pendSize
		}
		emitLoads(g.e, g.pend, t, expr, "body", base, off)
		g.pendSize += sz
		return nil
	}
	switch t.Kind {
	case Struct:
		for _, f := range t.Fields {
			if err := g.walk(f.Type, expr+"."+goIdent(f.Name)); err != nil {
				return err
			}
		}
		return nil
	case FixedArray: // variable-size elements
		g.flush()
		g.toDynamic()
		iv := g.e.name("i")
		g.e.pf("for %s := 0; %s < %d; %s++ {", iv, iv, t.Len, iv)
		g.e.indent++
		sub := &decodeGen{e: g.e, dynamic: true}
		if err := sub.walk(t.Elem, fmt.Sprintf("%s[%s]", expr, iv)); err != nil {
			return err
		}
		sub.flush()
		g.e.indent--
		g.e.pf("}")
		return nil
	case String, OpaqueVar:
		g.flush()
		g.toDynamic()
		g.emitCounted(t, expr)
		return nil
	case VarArray:
		g.flush()
		g.toDynamic()
		return g.emitVarArray(t, expr)
	default:
		return fmt.Errorf("wire: emit: cannot compile kind %s", t.Kind)
	}
}

func (g *decodeGen) flush() {
	if g.pendSize == 0 {
		g.pend = nil
		return
	}
	e := g.e
	if !g.dynamic {
		e.pf("if len(body) < %d {", g.static+g.pendSize)
		e.indent++
		e.pf("return xdr.ErrOverflow")
		e.indent--
		e.pf("}")
		g.emitPend()
		g.static += g.pendSize
	} else {
		e.pf("if pos+%d > len(body) {", g.pendSize)
		e.indent++
		e.pf("return xdr.ErrOverflow")
		e.indent--
		e.pf("}")
		g.emitPend()
		e.pf("pos += %d", g.pendSize)
	}
	g.pend, g.pendSize = nil, 0
}

func (g *decodeGen) emitPend() {
	for _, ln := range g.pend.lines {
		g.e.pf("%s", ln)
	}
}

// toDynamic materializes the cursor variable at the current static
// offset. It must run before any loop opens so pos is declared in the
// function's own scope.
func (g *decodeGen) toDynamic() {
	if !g.dynamic {
		g.e.pf("pos := %d", g.static)
		g.dynamic = true
	}
}

// emitCount renders the shared count-read prologue: availability check,
// load, bound check. Returns the int count variable name.
func (g *decodeGen) emitCount(bound uint32) string {
	e := g.e
	uv := e.name("u")
	e.pf("if pos+4 > len(body) {")
	e.indent++
	e.pf("return xdr.ErrOverflow")
	e.indent--
	e.pf("}")
	e.pf("%s := binary.BigEndian.Uint32(body[pos:])", uv)
	e.pf("pos += 4")
	if bound > 0 {
		e.pf("if %s > %d {", uv, bound)
		e.indent++
		e.pf("return xdr.ErrTooBig")
		e.indent--
		e.pf("}")
	}
	nv := e.name("n")
	e.pf("%s := int(%s)", nv, uv)
	return nv
}

func (g *decodeGen) emitCounted(t *Type, expr string) {
	e := g.e
	nv := g.emitCount(t.Bound)
	pv := e.name("p")
	e.pf("%s := xdr.Pad(%s)", pv, nv)
	e.pf("if %s+%s > len(body)-pos {", nv, pv)
	e.indent++
	e.pf("return xdr.ErrOverflow")
	e.indent--
	e.pf("}")
	if t.Kind == String {
		e.pf("%s = %s(body[pos : pos+%s])", expr, goSpelling(t), nv)
	} else {
		g.emitSliceAlloc(t, expr, nv)
		e.pf("copy(%s, body[pos:pos+%s])", expr, nv)
	}
	e.pf("pos += %s + %s", nv, pv)
}

// emitSliceAlloc renders the ensureSlice-equivalent: a backing array
// with room for the count is kept (so a zero count leaves nil nil and
// non-nil empty), only a larger count allocates.
func (g *decodeGen) emitSliceAlloc(t *Type, expr, nv string) {
	e := g.e
	e.pf("if %s <= cap(%s) {", nv, expr)
	e.indent++
	e.pf("%s = %s[:%s]", expr, expr, nv)
	e.indent--
	e.pf("} else {")
	e.indent++
	e.pf("%s = make(%s, %s)", expr, goSpelling(t), nv)
	e.indent--
	e.pf("}")
}

func (g *decodeGen) emitVarArray(t *Type, expr string) error {
	e := g.e
	nv := g.emitCount(t.Bound)
	if es, ok := t.Elem.wireSize(); ok {
		// Fixed-size elements: the exact byte requirement is known up
		// front, so one check rejects hostile counts before allocation
		// and the element loop runs unchecked.
		e.pf("if int64(%s)*%d > int64(len(body)-pos) {", nv, es)
		e.indent++
		e.pf("return xdr.ErrOverflow")
		e.indent--
		e.pf("}")
		g.emitSliceAlloc(t, expr, nv)
		if width, ok := unitKernel(t.Elem); ok {
			// A run of scalar units: the kernel getRun loads through,
			// which takes the run's bytes off the front of the window.
			e.pf("wire.GetUnits%s(%s, body[pos:])", width, expr)
			e.pf("pos += %s * %d", nv, es)
			return nil
		}
		// Hoist the destination into a local (indexing the lvalue would
		// reload its header every iteration) and consume the source
		// through an advancing window: loads sit at constant offsets so
		// each bounds check is a length-vs-constant compare, the one
		// shape the compiler reliably keeps out of the loop-carried
		// work. An indexed body[pos+i*es:] instead re-derives the window
		// per element — multiplication the prove pass won't fold.
		sv := e.name("s")
		e.pf("%s := %s", sv, expr)
		bv := e.name("b")
		e.pf("%s := body[pos:]", bv)
		iv := e.name("i")
		e.pf("for %s := range %s {", iv, sv)
		e.indent++
		lb := &lineBuf{}
		emitLoads(e, lb, t.Elem, fmt.Sprintf("%s[%s]", sv, iv), bv, "", 0)
		for _, ln := range lb.lines {
			e.pf("%s", ln)
		}
		e.pf("%s = %s[%d:]", bv, bv, es)
		e.indent--
		e.pf("}")
		e.pf("pos += %s * %d", nv, es)
		return nil
	}
	// Variable-size elements cost at least the 4-byte floor each (the
	// opSliceSub pre-check); per-element checks do the rest.
	e.pf("if int64(%s)*4 > int64(len(body)-pos) {", nv)
	e.indent++
	e.pf("return xdr.ErrOverflow")
	e.indent--
	e.pf("}")
	g.emitSliceAlloc(t, expr, nv)
	sv := e.name("s")
	e.pf("%s := %s", sv, expr)
	iv := e.name("i")
	e.pf("for %s := range %s {", iv, sv)
	e.indent++
	sub := &decodeGen{e: e, dynamic: true}
	if err := sub.walk(t.Elem, fmt.Sprintf("%s[%s]", sv, iv)); err != nil {
		return err
	}
	sub.flush()
	e.indent--
	e.pf("}")
	return nil
}
