package rpcgen

import (
	"fmt"
	"math"
	"strings"

	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// This file is the codegen backend of the top specialization rung.
// Where wire's fused executor interprets a flat instruction array at run
// time, the emitter prints the same program as straight-line Go source,
// the paper's compiled specialized stubs: one bounds reservation covers
// the header image plus every leading fixed-size field, stores and loads
// land at offsets the Go compiler resolves to constants, fixed opaque
// data is a copy, an array of scalar units is one call to wire's run
// kernels, and other variable-length tails are explicit loops — a
// linked list too, one loop over its links.
//
// It prints wire.Lower's layout-free steps, the program wire.Compile
// fuses against the running GOARCH's offsets, before fusion: the Go
// types it describes do not exist in this process, and its source must
// be right on every GOARCH, so it addresses fields by selector and lets
// the compiler do the offset arithmetic. Every Go type it prints is the
// name the generator's walk recorded for the node, goType's answer for
// that use: the shape alone cannot name an enum a field casts through, a
// typedef a slice allocates as, or void's struct{}.
//
// Byte and error equivalence with the interpretive plans is a hard
// requirement, since all the rungs multiplex on one connection, so every
// printed sequence mirrors wire's encodeProg/decodeProg: bound checks
// before counts, padding written explicitly (Extend may return dirty
// memory), hostile counts rejected against the element's smallest wire
// size before allocation, and ensureSlice's reuse rule. The differential
// fuzz tests (FuzzCompiledCodec, FuzzLayoutCodec) pin all of it.

// field resolves a step's path under t, the type its program runs
// against, to the field's type and its Go expression under expr.
func field(t *wire.Type, expr string, path []int) (*wire.Type, string) {
	for _, i := range path {
		f := t.Members()[i]
		t, expr = f.Type, expr+"."+GoName(f.Name)
	}
	return t, expr
}

// link is the Go expression of the link of node, a list node of the type
// t's optional data points at.
func link(t *wire.Type, node string) string {
	ms := t.Elem.Members()
	return node + "." + GoName(ms[len(ms)-1].Name)
}

// emitCompiled renders the compiled encoder/decoder pair for one root
// type as Go source: compiledAppend<base> emits a whole message (header
// image, XID stamp, value) onto a BufStream, and compiledDecode<base>
// reads the value back out of raw body bytes. The functions are meant
// to be registered with wire.RegisterCompiled in the generated
// package's init. names holds the Go name of every node under root;
// usesMath reports whether the source needs the math import (float
// fields); encoding/binary is always needed.
func emitCompiled(base string, root *wire.Type, names map[*wire.Type]string) (src string, usesMath bool, err error) {
	steps, err := wire.Lower(root)
	if err != nil {
		return "", false, err
	}
	e := &emitter{goName: names}
	goType := names[root]

	e.pf("// compiledAppend%s is the rpcgen-emitted straight-line encoder for %s:", base, goType)
	e.pf("// one reservation covers the header and the leading fixed-size fields,")
	e.pf("// stores land at constant offsets, arrays of scalar units go through the")
	e.pf("// interpreter's own run kernel, and other variable-length tails run as")
	e.pf("// explicit loops — no plan-executor dispatch. Byte-identical to the")
	e.pf("// interpretive plan by construction.")
	e.pf("func compiledAppend%s(bs *xdr.BufStream, hdr []byte, xid uint32, v *%s) error {", base, goType)
	e.indent++
	ag := &appendGen{e: e}
	printSteps(ag, e, steps, root, "(*v)")
	ag.flush()
	e.pf("return nil")
	e.indent--
	e.pf("}")
	e.pf("")

	e.pf("// compiledDecode%s is the matching straight-line decoder: one length", base)
	e.pf("// check per fixed-size run, loads at constant offsets, counts validated")
	e.pf("// before any allocation.")
	dg := &decodeGen{e: e, slab: slabParts(steps) > 1}
	if dg.slab {
		e.pf("// Strings, opaques and pointer-free arrays are carved from one slab")
		e.pf("// of the size compiledSlab%s computes.", base)
	}
	e.pf("func compiledDecode%s(body []byte, v *%s) error {", base, goType)
	e.indent++
	if dg.slab {
		e.pf("slab := wire.NewSlab(compiledSlab%s(body, v))", base)
	}
	printSteps(dg, e, steps, root, "(*v)")
	dg.flush()
	e.pf("return nil")
	e.indent--
	e.pf("}")

	if dg.slab {
		e.pf("")
		e.pf("// compiledSlab%s is compiledDecode%s's pre-pass: the Go bytes of", base, base)
		e.pf("// every string, opaque and pointer-free array a decode of body into v")
		e.pf("// allocates, aligned as wire.Carve aligns them, or 0 where the decode")
		e.pf("// fails. It reads the counts with the decoder's own checks and leaves")
		e.pf("// out the slices the decode reuses.")
		e.pf("func compiledSlab%s(body []byte, v *%s) int {", base, goType)
		e.indent++
		e.pf("size := 0")
		sg := &decodeGen{e: e, sizing: true, ref: "v"}
		printSteps(sg, e, steps, root, "(*v)")
		sg.flush()
		e.pf("return size")
		e.indent--
		e.pf("}")
	}

	return e.sb.String(), e.math, nil
}

// pointerFree reports whether the Go value a program runs against holds
// no pointers: no string, variable opaque, counted array, optional or
// list anywhere in it. Its memory can then be carved from a slab.
func pointerFree(steps []wire.Step) bool {
	for _, s := range steps {
		switch s.Op {
		case wire.OpString, wire.OpOpaqueV, wire.OpSliceSub, wire.OpOptional, wire.OpChain:
			return false
		case wire.OpVecSub:
			if !pointerFree(s.Sub) {
				return false
			}
		case wire.OpUnion:
			for _, a := range s.Arms {
				if !pointerFree(a.Sub) {
					return false
				}
			}
		}
	}
	return true
}

// slabParts counts the slab parts one decode of a program allocates —
// strings, variable opaques, counted arrays and optional pointees of
// pointer-free elements — up to 2, which stands for "more than one": a
// part inside a loop (a list's nodes too) counts as many, a union as its
// largest arm. A program with at most one part gets no slab; its decoder
// allocates that part as it always has.
func slabParts(steps []wire.Step) int {
	n := 0
	for _, s := range steps {
		switch s.Op {
		case wire.OpString, wire.OpOpaqueV:
			n++
		case wire.OpSliceSub, wire.OpOptional:
			switch sub := slabParts(s.Sub); {
			case pointerFree(s.Sub):
				n++
			case s.Op == wire.OpSliceSub:
				n += 2 * sub
			default:
				n += sub
			}
		case wire.OpChain:
			n += 2 * slabParts(s.Sub)
		case wire.OpVecSub:
			n += min(s.N, 2) * slabParts(s.Sub)
		case wire.OpUnion:
			most := 0
			for _, a := range s.Arms {
				most = max(most, slabParts(a.Sub))
			}
			n += most
		}
	}
	return min(n, 2)
}

// usesOld reports whether the pre-pass of a program reads the value it
// decodes over: whether a slice it decodes may be reused or a pointer
// decoded through.
func usesOld(steps []wire.Step) bool {
	for _, s := range steps {
		switch {
		case s.Op == wire.OpOpaqueV:
			return true
		case s.Op == wire.OpSliceSub || s.Op == wire.OpOptional:
			if pointerFree(s.Sub) || usesOld(s.Sub) {
				return true
			}
		case (s.Op == wire.OpVecSub || s.Op == wire.OpChain) && usesOld(s.Sub):
			return true
		case s.Op == wire.OpUnion:
			for _, a := range s.Arms {
				if usesOld(a.Sub) {
					return true
				}
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Emitter plumbing

type emitter struct {
	sb     strings.Builder
	indent int
	names  int
	math   bool
	goName map[*wire.Type]string // the Go name of each node of the tree
}

func (e *emitter) pf(format string, args ...any) {
	for i := 0; i < e.indent; i++ {
		e.sb.WriteByte('\t')
	}
	fmt.Fprintf(&e.sb, format, args...)
	e.sb.WriteByte('\n')
}

// lines prints the statements lb collected at the current indent.
func (e *emitter) lines(lb *lineBuf) {
	for _, ln := range lb.lines {
		e.pf("%s", ln)
	}
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

// unitKernel reports the width of the run kernel pair
// (wire.PutUnits<w>/GetUnits<w>) that moves an array whose element
// program is sub: an element that is itself one 4- or 8-byte unit, the
// same in memory and on the wire. A bool is not (one byte in memory),
// and a struct element keeps its per-field stores — the emitter does not
// know whether Go pads it.
func unitKernel(sub []wire.Step) (width int, ok bool) {
	if len(sub) != 1 || len(sub[0].Path) != 0 || (sub[0].Op != wire.OpUnits && sub[0].Op != wire.OpUnits8) {
		return 0, false
	}
	return unitBits(sub[0].Op), true
}

// unitBits is the width in bits of one unit of the run class o, OpUnits
// or OpUnits8.
func unitBits(o wire.Op) int {
	if o == wire.OpUnits8 {
		return 64
	}
	return 32
}

// isFloat reports whether a unit step's field is an IEEE-754 value,
// stored through its bits.
func isFloat(t *wire.Type) bool { return t.Kind == wire.Float32 || t.Kind == wire.Float64 }

// ---------------------------------------------------------------------------
// Fixed-size stores and loads
//
// These render the body of one fixed segment: every statement addresses
// buf[base+const] where buf was carved out by a single Extend (encode)
// or covered by a single length check (decode). A fixed-size step is a
// scalar, fixed opaque data, or a fixed array of fixed-size elements.

// emitFixed renders one fixed-size step at buf[base+off]: its stores
// when enc, its loads otherwise.
func emitFixed(e *emitter, lb *lineBuf, enc bool, s wire.Step, t *wire.Type, expr, buf, base string, off int) {
	switch {
	case s.Op != wire.OpVecSub && enc:
		emitStore(e, lb, s, t, expr, buf, base, off)
	case s.Op != wire.OpVecSub:
		emitLoad(e, lb, s, t, expr, buf, base, off)
	case s.Wire == 0: // nothing on the wire
	case s.N <= unrollLimit:
		for j := 0; j < s.N; j++ {
			emitAllFixed(e, lb, enc, s.Sub, t.Elem, fmt.Sprintf("%s[%d]", expr, j), buf, base, off+j*s.Wire/s.N)
		}
	default:
		win := fmt.Sprintf("%s[%s:%s]", buf, offExpr(base, off), offExpr(base, off+s.Wire))
		if width, ok := unitKernel(s.Sub); ok {
			if enc {
				lb.add("wire.PutUnits%d(%s, %s[:])", width, win, expr)
			} else {
				lb.add("wire.GetUnits%d(%s[:], %s)", width, expr, win)
			}
			return
		}
		iv := e.name("i")
		lb.add("for %s := 0; %s < %d; %s++ {", iv, iv, s.N, iv)
		lb.depth++
		emitAllFixed(e, lb, enc, s.Sub, t.Elem, fmt.Sprintf("%s[%s]", expr, iv),
			buf, fmt.Sprintf("%s+%s*%d", offExpr(base, off), iv, s.Wire/s.N), 0)
		lb.depth--
		lb.add("}")
	}
}

// emitAllFixed renders a program of fixed-size steps, run against the
// value expr of type t, at consecutive wire offsets from base+off.
func emitAllFixed(e *emitter, lb *lineBuf, enc bool, steps []wire.Step, t *wire.Type, expr, buf, base string, off int) {
	for _, s := range steps {
		ft, x := field(t, expr, s.Path)
		emitFixed(e, lb, enc, s, ft, x, buf, base, off)
		off += s.Wire
	}
}

// emitStore renders the store of one scalar or fixed opaque step.
func emitStore(e *emitter, lb *lineBuf, s wire.Step, t *wire.Type, expr, buf, base string, off int) {
	at := offExpr(base, off)
	switch s.Op {
	case wire.OpUnits, wire.OpUnits8:
		w := unitBits(s.Op)
		val := fmt.Sprintf("uint%d(%s)", w, expr)
		if isFloat(t) {
			e.math = true
			if e.goName[t] != fmt.Sprintf("float%d", w) {
				expr = fmt.Sprintf("float%d(%s)", w, expr)
			}
			val = fmt.Sprintf("math.Float%dbits(%s)", w, expr)
		}
		lb.add("binary.BigEndian.PutUint%d(%s[%s:], %s)", w, buf, at, val)
	case wire.OpBools:
		lb.add("if %s {", expr)
		lb.add("\tbinary.BigEndian.PutUint32(%s[%s:], 1)", buf, at)
		lb.add("} else {")
		lb.add("\tbinary.BigEndian.PutUint32(%s[%s:], 0)", buf, at)
		lb.add("}")
	case wire.OpBytes:
		if s.N == 0 {
			return
		}
		lb.add("copy(%s[%s:%s], %s[:])", buf, at, offExpr(base, off+s.N), expr)
		for j := 0; j < xdr.Pad(s.N); j++ {
			lb.add("%s[%s] = 0", buf, offExpr(base, off+s.N+j))
		}
	}
}

// emitLoad renders the load of one scalar or fixed opaque step.
func emitLoad(e *emitter, lb *lineBuf, s wire.Step, t *wire.Type, expr, buf, base string, off int) {
	at := offExpr(base, off)
	var val string
	switch s.Op {
	case wire.OpUnits, wire.OpUnits8:
		w := unitBits(s.Op)
		val = fmt.Sprintf("binary.BigEndian.Uint%d(%s[%s:])", w, buf, at)
		if isFloat(t) {
			e.math = true
			val = fmt.Sprintf("math.Float%dfrombits(%s)", w, val)
			if e.goName[t] == fmt.Sprintf("float%d", w) {
				lb.add("%s = %s", expr, val)
				return
			}
		}
	case wire.OpBools:
		val = fmt.Sprintf("binary.BigEndian.Uint32(%s[%s:]) != 0", buf, at)
		if e.goName[t] == "bool" {
			lb.add("%s = %s", expr, val)
			return
		}
	case wire.OpBytes:
		if s.N > 0 {
			lb.add("copy(%s[:], %s[%s:%s])", expr, buf, at, offExpr(base, off+s.N))
		}
		return
	}
	lb.add("%s = %s(%s)", expr, e.goName[t], val)
}

// ---------------------------------------------------------------------------
// The printer
//
// printSteps walks a program once for either side: fixed-size steps
// collect into the side's pending segment, and every variable-size step
// closes the segment and prints its own block — a loop over a fixed
// array of variable-size elements and a union's switch here, counted
// items, counted arrays, optional data and lists by the side.

// gen is one side of the printer: appendGen writes a message, decodeGen
// reads one.
type gen interface {
	// fixed adds a fixed-size step to the pending segment.
	fixed(s wire.Step, t *wire.Type, expr string)
	// beginVar closes the pending segment before a variable-size step.
	beginVar()
	// flush closes the pending segment at the end of a program.
	flush()
	counted(s wire.Step, t *wire.Type, expr string)
	slice(s wire.Step, t *wire.Type, expr string)
	optional(s wire.Step, t *wire.Type, expr string)
	// chain prints a list's loop over its links, from expr, optional
	// data of type t whose pointee is a list node.
	chain(s wire.Step, t *wire.Type, expr string)
	// elems starts the side's generator for an element loop's body, or
	// a union arm's.
	elems() gen
	// tag is the expression a union over expr switches on.
	tag(t *wire.Type, expr string) string
	// fail is the statement that gives up with err.
	fail(err string) string
}

// printSteps renders steps run against expr, a value of type t.
func printSteps(g gen, e *emitter, steps []wire.Step, t *wire.Type, expr string) {
	for _, s := range steps {
		ft, x := field(t, expr, s.Path)
		switch {
		case s.Wire == 0: // nothing on the wire
		case s.Wire != wire.VarWire:
			g.fixed(s, ft, x)
		case s.Op == wire.OpVecSub: // variable-size elements
			g.beginVar()
			iv := e.name("i")
			e.pf("for %s := 0; %s < %d; %s++ {", iv, iv, s.N, iv)
			printElems(g.elems(), e, s, ft, fmt.Sprintf("%s[%s]", x, iv))
		case s.Op == wire.OpSliceSub:
			g.beginVar()
			g.slice(s, ft, x)
		case s.Op == wire.OpUnion:
			g.beginVar()
			printUnion(g, e, s, ft, x)
		case s.Op == wire.OpOptional:
			g.beginVar()
			g.optional(s, ft, x)
		case s.Op == wire.OpChain:
			g.beginVar()
			g.chain(s, ft, x)
		default:
			g.beginVar()
			g.counted(s, ft, x)
		}
	}
}

// printElems prints, with sub, the body of an element loop over the
// array step s of type t, whose header the caller printed, and closes
// it.
func printElems(sub gen, e *emitter, s wire.Step, t *wire.Type, elem string) {
	e.indent++
	printSteps(sub, e, s.Sub, t.Elem, elem)
	sub.flush()
	e.indent--
	e.pf("}")
}

// printUnion prints a union step over expr, a value of union type t
// whose discriminant the pending segment before it already moved: a
// switch on the discriminant with one case per arm, each printing the
// arm's program against expr, and ErrBadUnion for a value no arm
// covers.
func printUnion(g gen, e *emitter, s wire.Step, t *wire.Type, expr string) {
	e.pf("switch %s {", g.tag(t, expr))
	def := false
	for _, a := range s.Arms {
		if a.Default {
			def = true
			e.pf("default:")
		} else {
			vals := make([]string, len(a.Cases))
			for i, c := range a.Cases {
				vals[i] = fmt.Sprint(c)
			}
			e.pf("case %s:", strings.Join(vals, ", "))
		}
		e.indent++
		sub := g.elems()
		printSteps(sub, e, a.Sub, t, expr)
		sub.flush()
		e.indent--
	}
	if !def {
		e.pf("default:")
		e.pf("\t%s", g.fail("xdr.ErrBadUnion"))
	}
	e.pf("}")
}

// ---------------------------------------------------------------------------
// Append generation

// appendGen is the write side: one Extend per segment. The first flush
// also emits the header: the reservation covers hdr plus the leading
// fixed run, the XID is stamped at offset 0 (both message directions
// carry it there), exactly as msgBody.append does.
type appendGen struct {
	e          *emitter
	pend       *lineBuf
	pendSize   int
	seg        string
	headerDone bool
}

func (g *appendGen) fixed(s wire.Step, t *wire.Type, expr string) {
	if g.seg == "" {
		g.seg = g.e.name("b")
		g.pend = &lineBuf{}
	}
	emitFixed(g.e, g.pend, true, s, t, expr, g.seg, "", g.pendSize)
	g.pendSize += s.Wire
}

func (g *appendGen) beginVar() { g.flush() }

func (g *appendGen) elems() gen { return &appendGen{e: g.e, headerDone: true} }

func (g *appendGen) tag(t *wire.Type, expr string) string {
	return expr + "." + GoName(t.Fields[0].Name)
}

func (g *appendGen) fail(err string) string { return "return " + err }

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
			e.lines(g.pend)
		}
		g.headerDone = true
	case g.pendSize > 0:
		e.pf("%s := bs.Extend(%d)", g.seg, g.pendSize)
		e.lines(g.pend)
	}
	g.pend, g.pendSize, g.seg = nil, 0, ""
}

// counted renders a string or variable-opaque step: bound check before
// the count (as encodeProg does), one reservation for count + bytes +
// padding, padding zeroed explicitly.
func (g *appendGen) counted(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	g.tooBig(expr, s.Bound)
	nv, pv, wv := e.name("n"), e.name("p"), e.name("w")
	e.pf("%s := len(%s)", nv, expr)
	e.pf("%s := xdr.Pad(%s)", pv, nv)
	e.pf("%s := bs.Extend(4 + %s + %s)", wv, nv, pv)
	e.pf("binary.BigEndian.PutUint32(%s, uint32(%s))", wv, nv)
	src := expr
	if s.Op == wire.OpString && e.goName[t] != "string" {
		src = fmt.Sprintf("string(%s)", expr)
	}
	e.pf("copy(%s[4:], %s)", wv, src)
	zv := e.name("z")
	e.pf("for %s := 4 + %s; %s < 4+%s+%s; %s++ {", zv, nv, zv, nv, pv, zv)
	e.pf("\t%s[%s] = 0", wv, zv)
	e.pf("}")
}

// optional renders optional data: a set pointer's flag opens the first
// segment of its pointee's program, a nil one is a lone 0 unit.
func (g *appendGen) optional(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	pv := e.name("p")
	e.pf("if %s := %s; %s != nil {", pv, expr, pv)
	e.indent++
	g.pointee(s, t, pv)
	e.indent--
	e.pf("} else {")
	e.pf("\tbinary.BigEndian.PutUint32(bs.Extend(4), 0)")
	e.pf("}")
}

// pointee renders what follows a set pointer pv of optional data of
// type t: its 1 flag, opening the first segment of the program s.Sub
// against the pointee.
func (g *appendGen) pointee(s wire.Step, t *wire.Type, pv string) {
	sub := &appendGen{e: g.e, headerDone: true, seg: g.e.name("b"), pend: &lineBuf{}, pendSize: 4}
	sub.pend.add("binary.BigEndian.PutUint32(%s, 1)", sub.seg)
	printSteps(sub, g.e, s.Sub, t.Elem, "(*"+pv+")")
	sub.flush()
}

// chain renders a list as encodeProg's OpChain writes it: per node a 1
// flag opening the first segment of the node's program, then a 0 flag,
// and xdr.ErrCycle where the tortoise, moving one node for every two of
// the walk's, meets the walk (wire's nextSlow).
func (g *appendGen) chain(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	pv, sv, kv := e.name("p"), e.name("s"), e.name("k")
	e.pf("%s := %s", sv, expr)
	e.pf("for %s, %s := %s, 0; %s != nil; %s, %s = %s, %s+1 {", pv, kv, sv, pv, pv, kv, link(t, "(*"+pv+")"), kv)
	e.indent++
	e.pf("if %s > 0 {", kv)
	e.pf("\tif %s&1 == 0 {", kv)
	e.pf("\t\t%s = %s", sv, link(t, "(*"+sv+")"))
	e.pf("\t}")
	e.pf("\tif %s == %s {", pv, sv)
	e.pf("\t\treturn xdr.ErrCycle")
	e.pf("\t}")
	e.pf("}")
	g.pointee(s, t, pv)
	e.indent--
	e.pf("}")
	e.pf("binary.BigEndian.PutUint32(bs.Extend(4), 0)")
}

// tooBig renders the encode-side bound check of a counted item.
func (g *appendGen) tooBig(expr string, bound uint32) {
	if bound > 0 {
		g.e.pf("if uint32(len(%s)) > %d {", expr, bound)
		g.e.pf("\treturn xdr.ErrTooBig")
		g.e.pf("}")
	}
}

func (g *appendGen) slice(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	// Hoist the slice into a local: indexing the original lvalue inside
	// a loop would force the compiler to reload the slice header every
	// iteration (the []byte window it stores through might alias it) and
	// bounds-check every element load; a local header plus a range loop
	// keeps both out of the residual loop.
	sv := e.name("s")
	e.pf("%s := %s", sv, expr)
	g.tooBig(sv, s.Bound)
	nv := e.name("n")
	e.pf("%s := len(%s)", nv, sv)
	es, _ := wire.Sizes(s.Sub)
	if es == wire.VarWire {
		// Variable-size elements: count, then each element re-enters the
		// segment machinery inside the loop.
		e.pf("binary.BigEndian.PutUint32(bs.Extend(4), uint32(%s))", nv)
		iv := e.name("i")
		e.pf("for %s := range %s {", iv, sv)
		printElems(g.elems(), e, s, t, fmt.Sprintf("%s[%s]", sv, iv))
		return
	}
	// Fixed-size elements: count and every element share one
	// reservation, stores strength-reduce to constant strides.
	wv := e.name("w")
	e.pf("%s := bs.Extend(4 + %s*%d)", wv, nv, es)
	e.pf("binary.BigEndian.PutUint32(%s, uint32(%s))", wv, nv)
	if width, ok := unitKernel(s.Sub); ok {
		// A run of scalar units: the kernel putRun stores through.
		e.pf("wire.PutUnits%d(%s[4:], %s)", width, wv, sv)
		return
	}
	// Store through an advancing window over the reservation: every
	// offset inside the loop is a constant, so each bounds check is a
	// length-vs-constant compare instead of the re-derived w[4+i*es:]
	// reslice the prove pass won't fold.
	ov := e.name("o")
	e.pf("%s := %s[4:]", ov, wv)
	iv := e.name("i")
	e.pf("for %s := range %s {", iv, sv)
	e.indent++
	lb := &lineBuf{}
	emitAllFixed(e, lb, true, s.Sub, t.Elem, fmt.Sprintf("%s[%s]", sv, iv), ov, "", 0)
	e.lines(lb)
	e.pf("%s = %s[%d:]", ov, ov, es)
	e.indent--
	e.pf("}")
}

// ---------------------------------------------------------------------------
// Decode generation

// decodeGen is the read side. While the cursor is still statically
// known (before the first variable-size step) offsets are literals and
// no cursor variable exists at all; the first variable step
// materializes pos. Checks and error choices track decodeProg: short
// bodies are ErrOverflow, counts above their bound ErrTooBig, hostile
// counts rejected against the remaining bytes before any allocation,
// and slice reuse follows ensureSlice exactly (keep a backing array with
// room for the count, allocate only for a larger one).
//
// The same printer writes a slab type's pre-pass (sizing): the
// decoder's checks and cursor, giving up with 0 where the decoder
// returns an error, loading only counts, flags and union tags, and in
// place of each part the decoder carves, the room it takes in the slab.
// A part is fresh unless the decode reuses what the value already holds,
// which the pre-pass reads through ref: a pointer to the value the
// current program runs against, nil when nilable holds and the decode
// makes that value afresh, and "" where nothing below reads it
// (usesOld).
type decodeGen struct {
	e        *emitter
	pend     *lineBuf
	pendSize int
	dynamic  bool
	static   int
	slab     bool   // carve the parts from the decoder's slab
	sizing   bool   // print the pre-pass instead of the decoder
	ref      string // sizing: the pointer the value decoded over is read through
	nilable  bool   // sizing: ref may be nil
}

func (g *decodeGen) fixed(s wire.Step, t *wire.Type, expr string) {
	if g.pend == nil {
		g.pend = &lineBuf{}
	}
	if !g.sizing {
		base, off := "", g.static+g.pendSize
		if g.dynamic {
			base, off = "pos", g.pendSize
		}
		emitFixed(g.e, g.pend, false, s, t, expr, "body", base, off)
	}
	g.pendSize += s.Wire
}

// beginVar also materializes the cursor variable at the current static
// offset. It runs before any loop opens, so pos is declared in the
// function's own scope.
func (g *decodeGen) beginVar() {
	g.flush()
	if !g.dynamic {
		g.e.pf("pos := %d", g.static)
		g.dynamic = true
	}
}

func (g *decodeGen) elems() gen { return g.scope(g.ref, g.nilable) }

// scope starts the generator for a nested program whose old value the
// pre-pass reads through ref.
func (g *decodeGen) scope(ref string, nilable bool) gen {
	return &decodeGen{e: g.e, dynamic: true, slab: g.slab, sizing: g.sizing, ref: ref, nilable: nilable}
}

// tag is the union's discriminant field; the pre-pass, which stores
// nothing, reads it off the end of the segment just checked instead.
func (g *decodeGen) tag(t *wire.Type, expr string) string {
	switch {
	case !g.sizing:
		return expr + "." + GoName(t.Fields[0].Name)
	case t.Fields[0].Type.Kind == wire.Uint32:
		return "binary.BigEndian.Uint32(body[pos-4:])"
	default:
		return "int32(binary.BigEndian.Uint32(body[pos-4:]))"
	}
}

func (g *decodeGen) fail(err string) string {
	if g.sizing {
		return "return 0"
	}
	return "return " + err
}

func (g *decodeGen) flush() {
	if g.pendSize == 0 {
		g.pend = nil
		return
	}
	e := g.e
	if !g.dynamic {
		g.overflow("len(body) < %d", g.static+g.pendSize)
		e.lines(g.pend)
		g.static += g.pendSize
	} else {
		g.overflow("pos+%d > len(body)", g.pendSize)
		e.lines(g.pend)
		e.pf("pos += %d", g.pendSize)
	}
	g.pend, g.pendSize = nil, 0
}

// overflow renders a check that gives up with ErrOverflow when cond
// holds.
func (g *decodeGen) overflow(cond string, args ...any) {
	g.e.pf("if "+cond+" {", args...)
	g.e.pf("\t%s", g.fail("xdr.ErrOverflow"))
	g.e.pf("}")
}

// count renders the shared count-read prologue: availability check,
// load, bound check. Returns the int count variable name.
func (g *decodeGen) count(bound uint32) string {
	e := g.e
	uv := e.name("u")
	g.overflow("pos+4 > len(body)")
	e.pf("%s := binary.BigEndian.Uint32(body[pos:])", uv)
	e.pf("pos += 4")
	if bound > 0 {
		e.pf("if %s > %d {", uv, bound)
		e.pf("\t%s", g.fail("xdr.ErrTooBig"))
		e.pf("}")
	}
	nv := e.name("n")
	e.pf("%s := int(%s)", nv, uv)
	if bound == 0 || bound > math.MaxInt32 {
		// A count no 32-bit host can hold reads negative there; a 64-bit
		// compiler proves the test false and drops it.
		g.overflow("%s < 0", nv)
	}
	return nv
}

// room renders the pre-pass's sizing of a part of n elements of elem,
// which the decode carves when fresh holds of the value it decodes over
// ("" for always), or when there is no such value.
func (g *decodeGen) room(fresh, elem, n string) {
	grow := fmt.Sprintf("size = wire.SlabRoom[%s](size, %s)", elem, n)
	if fresh == "" {
		g.e.pf("%s", grow)
		return
	}
	if g.nilable {
		fresh = g.ref + " == nil || " + fresh
	}
	g.e.pf("if %s {", fresh)
	g.e.pf("\t%s", grow)
	g.e.pf("}")
}

func (g *decodeGen) counted(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	nv := g.count(s.Bound)
	pv := e.name("p")
	e.pf("%s := xdr.Pad(%s)", pv, nv)
	g.overflow("%s+%s > len(body)-pos", nv, pv)
	switch {
	case g.sizing && s.Op == wire.OpString:
		g.room("", "byte", nv)
	case g.sizing:
		g.room(nv+" > cap("+expr+")", "byte", nv)
	case s.Op == wire.OpString && g.slab && e.goName[t] == "string":
		e.pf("%s = slab.String(body[pos : pos+%s])", expr, nv)
	case s.Op == wire.OpString && g.slab:
		e.pf("%s = %s(slab.String(body[pos : pos+%s]))", expr, e.goName[t], nv)
	case s.Op == wire.OpString:
		e.pf("%s = %s(body[pos : pos+%s])", expr, e.goName[t], nv)
	default:
		g.alloc(t, expr, nv, "byte")
		e.pf("copy(%s, body[pos:pos+%s])", expr, nv)
	}
	e.pf("pos += %s + %s", nv, pv)
}

// optional renders optional data as xdr.Optional decodes it: any nonzero
// flag means the pointee follows, a nil pointer gets a fresh pointee and
// a set one is decoded over, and a zero flag clears the pointer. A
// pointer-free pointee is a slab part.
func (g *decodeGen) optional(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	fv := g.flag()
	if g.sizing {
		g.sizeOptional(s, t, expr, fv)
		return
	}
	e.pf("if %s == 0 {", fv)
	e.pf("\t%s = nil", expr)
	e.pf("} else {")
	e.indent++
	pv := e.name("p")
	e.pf("%s := %s", pv, expr)
	e.pf("if %s == nil {", pv)
	if elem := e.goName[t.Elem]; g.slab && pointerFree(s.Sub) {
		e.pf("\t%s = wire.CarveNew[%s](&slab)", pv, elem)
	} else {
		e.pf("\t%s = new(%s)", pv, elem)
	}
	e.pf("\t%s = %s", expr, pv)
	e.pf("}")
	sub := g.elems()
	printSteps(sub, e, s.Sub, t.Elem, "(*"+pv+")")
	sub.flush()
	e.indent--
	e.pf("}")
}

// sizeOptional is optional's pre-pass, past the flag fv: a fresh
// pointer-free pointee takes room, and a pointee with parts of its own
// is read through for the pre-pass of its program.
func (g *decodeGen) sizeOptional(s wire.Step, t *wire.Type, expr, fv string) {
	e := g.e
	e.pf("if %s != 0 {", fv)
	e.indent++
	sub, pexpr := g.scope("", false), ""
	switch {
	case pointerFree(s.Sub):
		g.room(expr+" == nil", e.goName[t.Elem], "1")
	case usesOld(s.Sub):
		pv := e.name("p")
		g.readOld(pv, "*"+e.goName[t.Elem], expr)
		sub, pexpr = g.scope(pv, true), "(*"+pv+")"
	}
	printSteps(sub, e, s.Sub, t.Elem, pexpr)
	sub.flush()
	e.indent--
	e.pf("}")
}

// chain renders a list as decodeProg's OpChain reads it: per set flag,
// once the rest of a link and the flag after it can still arrive, the
// node the link holds is decoded over or a fresh one allocated, and the
// walk goes on from that node's link; a 0 flag clears the link it ends.
func (g *decodeGen) chain(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	if g.sizing {
		g.sizeChain(s, t, expr)
		return
	}
	lv, pv := e.name("l"), e.name("p")
	e.pf("%s := &%s", lv, expr)
	e.pf("for {")
	e.indent++
	fv := g.flag()
	e.pf("if %s == 0 {", fv)
	e.pf("\t*%s = nil", lv)
	e.pf("\tbreak")
	e.pf("}")
	g.overflow("len(body)-pos < %d", s.ElemMin)
	e.pf("%s := *%s", pv, lv)
	e.pf("if %s == nil {", pv)
	e.pf("\t%s = new(%s)", pv, e.goName[t.Elem])
	e.pf("\t*%s = %s", lv, pv)
	e.pf("}")
	sub := g.elems()
	printSteps(sub, e, s.Sub, t.Elem, "(*"+pv+")")
	sub.flush()
	e.pf("%s = &%s", lv, link(t, "(*"+pv+")"))
	e.indent--
	e.pf("}")
}

// sizeChain is chain's pre-pass: the parts of every node's program,
// read, where the decode reuses them, through the nodes the list held.
func (g *decodeGen) sizeChain(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	sub, pexpr, ov := g.scope("", false), "", ""
	if usesOld(s.Sub) {
		ov = e.name("o")
		g.readOld(ov, "*"+e.goName[t.Elem], expr)
		sub, pexpr = g.scope(ov, true), "(*"+ov+")"
	}
	e.pf("for {")
	e.indent++
	fv := g.flag()
	e.pf("if %s == 0 {", fv)
	e.pf("\tbreak")
	e.pf("}")
	g.overflow("len(body)-pos < %d", s.ElemMin)
	printSteps(sub, e, s.Sub, t.Elem, pexpr)
	sub.flush()
	if ov != "" {
		e.pf("if %s != nil {", ov)
		e.pf("\t%s = %s", ov, link(t, "(*"+ov+")"))
		e.pf("}")
	}
	e.indent--
	e.pf("}")
}

// flag renders the read of an optional's or a link's 4-byte flag and
// returns its variable.
func (g *decodeGen) flag() string {
	fv := g.e.name("f")
	g.overflow("pos+4 > len(body)")
	g.e.pf("%s := binary.BigEndian.Uint32(body[pos:])", fv)
	g.e.pf("pos += 4")
	return fv
}

// readOld declares the pre-pass local lv, of type typ, holding the old
// value expr, or its zero value where the value decoded over is fresh.
func (g *decodeGen) readOld(lv, typ, expr string) {
	if !g.nilable {
		g.e.pf("%s := %s", lv, expr)
		return
	}
	g.e.pf("var %s %s", lv, typ)
	g.e.pf("if %s != nil {", g.ref)
	g.e.pf("\t%s = %s", lv, expr)
	g.e.pf("}")
}

// alloc renders the ensureSlice-equivalent: a backing array with room
// for the count is kept (so a zero count leaves nil nil and non-nil
// empty), only a larger count allocates — from the slab, as n elements
// of elem, in a slab decoder.
func (g *decodeGen) alloc(t *wire.Type, expr, nv, elem string) {
	e := g.e
	e.pf("if %s <= cap(%s) {", nv, expr)
	e.pf("\t%s = %s[:%s]", expr, expr, nv)
	e.pf("} else {")
	if elem != "" && g.slab {
		e.pf("\t%s = wire.Carve[%s](&slab, %s)", expr, elem, nv)
	} else {
		e.pf("\t%s = make(%s, %s)", expr, e.goName[t], nv)
	}
	e.pf("}")
}

func (g *decodeGen) slice(s wire.Step, t *wire.Type, expr string) {
	e := g.e
	nv := g.count(s.Bound)
	// Every element costs at least elemMin wire bytes, exactly that when
	// its size is static: one check rejects hostile counts before
	// allocation, as decodeProg's opSliceRun/OpSliceSub pre-check does.
	g.overflow("int64(%s)*%d > int64(len(body)-pos)", nv, s.ElemMin)
	var elem string
	if pointerFree(s.Sub) {
		elem = e.goName[t.Elem]
	}
	es, _ := wire.Sizes(s.Sub)
	if g.sizing {
		g.sizeSlice(s, t, expr, nv, elem, es)
		return
	}
	g.alloc(t, expr, nv, elem)
	if es == wire.VarWire {
		// Variable-size elements: per-element checks do the rest.
		sv := e.name("s")
		e.pf("%s := %s", sv, expr)
		iv := e.name("i")
		e.pf("for %s := range %s {", iv, sv)
		printElems(g.elems(), e, s, t, fmt.Sprintf("%s[%s]", sv, iv))
		return
	}
	// Fixed-size elements: the check above was exact, so the element
	// loop runs unchecked.
	if width, ok := unitKernel(s.Sub); ok {
		// A run of scalar units: the kernel getRun loads through, which
		// takes the run's bytes off the front of the window.
		e.pf("wire.GetUnits%d(%s, body[pos:])", width, expr)
		e.pf("pos += %s * %d", nv, es)
		return
	}
	// Hoist the destination into a local (indexing the lvalue would
	// reload its header every iteration) and consume the source through
	// an advancing window: loads sit at constant offsets so each bounds
	// check is a length-vs-constant compare, the one shape the compiler
	// reliably keeps out of the loop-carried work. An indexed
	// body[pos+i*es:] instead re-derives the window per element —
	// multiplication the prove pass won't fold.
	sv := e.name("s")
	e.pf("%s := %s", sv, expr)
	bv := e.name("b")
	e.pf("%s := body[pos:]", bv)
	iv := e.name("i")
	e.pf("for %s := range %s {", iv, sv)
	e.indent++
	lb := &lineBuf{}
	emitAllFixed(e, lb, false, s.Sub, t.Elem, fmt.Sprintf("%s[%s]", sv, iv), bv, "", 0)
	e.lines(lb)
	e.pf("%s = %s[%d:]", bv, bv, es)
	e.indent--
	e.pf("}")
	e.pf("pos += %s * %d", nv, es)
}

// sizeSlice is slice's pre-pass, past the count nv: an array of
// pointer-free elements (elem) is a part; the elements of any other are
// walked for theirs, read through the old backing array where the
// decode reuses it.
func (g *decodeGen) sizeSlice(s wire.Step, t *wire.Type, expr, nv, elem string, es int) {
	e := g.e
	if elem != "" {
		g.room(nv+" > cap("+expr+")", elem, nv)
	}
	switch {
	case es != wire.VarWire:
		e.pf("pos += %s * %d", nv, es)
	case elem != "" || !usesOld(s.Sub):
		iv := e.name("i")
		e.pf("for %s := 0; %s < %s; %s++ {", iv, iv, nv, iv)
		printElems(g.scope("", false), e, s, t, "")
	default:
		sv, iv, rv := e.name("s"), e.name("i"), e.name("r")
		g.readOld(sv, e.goName[t], expr)
		e.pf("if %s > cap(%s) {", nv, sv)
		e.pf("\t%s = nil", sv)
		e.pf("} else {")
		e.pf("\t%s = %s[:%s]", sv, sv, nv)
		e.pf("}")
		e.pf("for %s := 0; %s < %s; %s++ {", iv, iv, nv, iv)
		e.pf("\tvar %s *%s", rv, e.goName[t.Elem])
		e.pf("\tif %s != nil {", sv)
		e.pf("\t\t%s = &%s[%s]", rv, sv, iv)
		e.pf("\t}")
		printElems(g.scope(rv, true), e, s, t, "(*"+rv+")")
	}
}
