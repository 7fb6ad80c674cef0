package wire

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"unsafe"

	"specrpc/internal/xdr"
)

// Mode selects which of the paper's §5 marshaling configurations a plan
// executes.
type Mode int

// Codec modes.
const (
	// Generic is the interpretive tree-walker: per-unit dispatch through
	// the XDR handle, the original Sun RPC cost profile.
	Generic Mode = iota + 1
	// Specialized is the flat compiled plan: fused runs, one bounds check
	// per run, direct stream access.
	Specialized
)

// String names the mode as the paper's tables do.
func (m Mode) String() string {
	switch m {
	case Generic:
		return "generic"
	case Specialized:
		return "specialized"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// node is the bound form of a Type used by the generic walker: the type
// tree annotated with the Go offsets resolved against the concrete struct
// layout. The walker still interprets — one dispatch and one handle call
// per leaf unit — which is what makes it the faithful generic baseline.
type node struct {
	t      *Type
	off    uintptr // offset within the enclosing value
	fields []node  // Struct
	elem   *node   // FixedArray / VarArray element (off 0 within element)
	stride uintptr // element size in Go memory for arrays
	sliceT reflect.Type
	ptrT   reflect.Type // Optional: the pointee type a decode allocates
	bound  uint32
	// minWire is the fewest wire bytes one VarArray element can occupy:
	// what a decoded count is checked against before it is allocated.
	minWire int
	// arms holds, for each of a Union's arms, the index of its member in
	// fields, or -1 for a void arm.
	arms []int
}

// op is one compiled instruction class of the flat plan. The four run
// classes come first: they are the fixed-size instructions, the ones
// whose wire size is static (op.fixed).
type op uint8

const (
	// opUnits moves n 4-byte big-endian units at off: fused runs of
	// int32/uint32/float32 fields and fixed arrays thereof.
	opUnits op = iota + 1
	// opUnits8 moves n 8-byte big-endian units at off: hyper/uhyper/double
	// runs.
	opUnits8
	// opBools moves n Go bools at off, each a 4-byte 0/1 wire unit.
	opBools
	// opBytes moves n raw bytes plus padding at off (fixed opaque): the
	// fused-memcpy run.
	opBytes
	// opString moves a counted string at off.
	opString
	// opOpaqueV moves counted raw bytes ([]byte) at off.
	opOpaqueV
	// opSliceRun moves a counted slice at off whose element flattens to
	// unitsPer units of run class run (e.g. []int32, []color, []bool,
	// []int64, or a []point whose fields fuse completely): the count,
	// then one run over the whole backing array.
	opSliceRun
	// opSliceSub moves a counted slice of composite elements: count, then
	// the sub-program per element advancing by stride.
	opSliceSub
	// opVecSub runs the sub-program n times advancing by stride (fixed
	// array of composite elements that did not fuse).
	opVecSub
	// opUnion runs the program of the arm selected by the 4-byte
	// discriminant at off, which an earlier run has already moved: the
	// dynamic test left in the residual code, over per-arm static
	// programs.
	opUnion
	// opOptional moves the 4-byte flag of the pointer at off, then, when
	// it is set, the sub-program against the pointee.
	opOptional
)

// instr is one step of a compiled plan. The offsets and counts are the
// "static" data of the paper's specialization: everything knowable from
// the type alone is folded in here, so executing the plan touches only
// the dynamic bytes.
type instr struct {
	op       op
	off      uintptr
	n        int     // unit/byte count (run classes, opVecSub)
	wire     int     // static wire bytes: the whole run (run classes), one element (opSliceRun), one element at its smallest (opSliceSub)
	bound    uint32  // decode limit for counted ops
	stride   uintptr // Go element size for slice/vector ops
	run      op      // run class of the fused element (opSliceRun)
	unitsPer int     // fused units per element (opSliceRun)
	sub      []instr
	sliceT   reflect.Type // concrete slice type for decode allocation
	ptrT     reflect.Type // opOptional: the pointee type for decode allocation
	arms     []armInstr   // opUnion
}

// armInstr is one arm of an opUnion instruction: the discriminant values
// that select it, whether it is the default, and its member's program,
// which runs against the union's own base pointer.
type armInstr struct {
	cases []uint32
	def   bool
	sub   []instr
}

// fixed reports whether o is a run class: a fixed-size instruction.
func (o op) fixed() bool { return o >= opUnits && o <= opBytes }

// memWidth is the Go-memory size of one unit of run class o.
func (o op) memWidth() uintptr {
	switch o {
	case opUnits:
		return 4
	case opUnits8:
		return 8
	default: // opBools, opBytes
		return 1
	}
}

// runWire reports the wire bytes n units of run class o occupy. It is the
// one answer to "what is the static wire size": every step.wire of the
// layout-free program and every instr.wire of the fused one is computed
// here or summed from it when built, and the executors, the fused view
// and the emitter only ever read the fields.
func runWire(o op, n int) int {
	switch o {
	case opUnits8:
		return 8 * n
	case opBytes:
		return n + xdr.Pad(n)
	default: // opUnits, opBools: one 4-byte unit each
		return 4 * n
	}
}

// Codec is a compiled marshal plan for one (wire.Type, Go type) pair in
// one mode. A codec is immutable after compilation but for one thing:
// the package rpcgen generated for its plan may hang emitted routines on
// it (RegisterCompiled), which it does from init, before the codec is in
// use. Past that it is safe for concurrent use. Most callers want the
// typed Plan[T] façade.
type Codec struct {
	mode    Mode
	t       *Type
	rt      reflect.Type
	root    node         // generic walker (also the fallback for foreign streams)
	prog    []instr      // flat plan (Specialized)
	emitted *emittedPair // rpcgen's routines for this plan, if registered
}

// Mode reports the configuration the codec was compiled for.
func (c *Codec) Mode() Mode { return c.mode }

// WireType returns the description the codec was compiled from.
func (c *Codec) WireType() *Type { return c.t }

// GoType returns the Go type the codec marshals.
func (c *Codec) GoType() reflect.Type { return c.rt }

// Instructions reports the length of the flat plan (0 for Generic): the
// live analog of the paper's Table 3 residual-code-size column.
func (c *Codec) Instructions() int { return len(c.prog) }

// Compile builds the codec marshaling Go values of type rt as described
// by t. It validates the two shapes against each other field by field and
// resolves every offset, stride, and run length now, so the marshal path
// does no reflection.
func Compile(t *Type, rt reflect.Type, mode Mode) (*Codec, error) {
	switch mode {
	case Generic, Specialized:
	default:
		return nil, fmt.Errorf("wire: unknown mode %d", int(mode))
	}
	if t == nil {
		return nil, fmt.Errorf("wire: nil type description")
	}
	if rt == nil {
		return nil, fmt.Errorf("wire: nil Go type")
	}
	c := &Codec{mode: mode, t: t, rt: rt}
	root, err := bind(t, rt, 0)
	if err != nil {
		return nil, err
	}
	c.root = root
	// lower is also the one verdict on the shape, so the walker refuses
	// what the plans refuse.
	steps, err := lower(t)
	if err != nil {
		return nil, err
	}
	if mode != Generic {
		c.prog = fuse(steps, &root)
	}
	return c, nil
}

// bind validates t against rt and resolves offsets, producing the bound
// node tree.
func bind(t *Type, rt reflect.Type, off uintptr) (node, error) {
	n := node{t: t, off: off, bound: effBound(t.Bound)}
	mismatch := func() (node, error) {
		return node{}, fmt.Errorf("wire: %s does not match Go type %s", t.Kind, rt)
	}
	switch t.Kind {
	case Int32:
		if rt.Kind() != reflect.Int32 {
			return mismatch()
		}
	case Uint32:
		if rt.Kind() != reflect.Uint32 {
			return mismatch()
		}
	case Bool:
		if rt.Kind() != reflect.Bool {
			return mismatch()
		}
	case Float32:
		if rt.Kind() != reflect.Float32 {
			return mismatch()
		}
	case Hyper:
		if rt.Kind() != reflect.Int64 {
			return mismatch()
		}
	case Uhyper:
		if rt.Kind() != reflect.Uint64 {
			return mismatch()
		}
	case Float64:
		if rt.Kind() != reflect.Float64 {
			return mismatch()
		}
	case String:
		if rt.Kind() != reflect.String {
			return mismatch()
		}
	case OpaqueFixed:
		if rt.Kind() != reflect.Array || rt.Elem().Kind() != reflect.Uint8 || rt.Len() != t.Len {
			return mismatch()
		}
	case OpaqueVar:
		if rt.Kind() != reflect.Slice || rt.Elem().Kind() != reflect.Uint8 {
			return mismatch()
		}
	case FixedArray:
		if rt.Kind() != reflect.Array || rt.Len() != t.Len {
			return mismatch()
		}
		elem, err := bind(t.Elem, rt.Elem(), 0)
		if err != nil {
			return node{}, fmt.Errorf("wire: array element: %w", err)
		}
		n.elem = &elem
		n.stride = rt.Elem().Size()
	case VarArray:
		if rt.Kind() != reflect.Slice {
			return mismatch()
		}
		elem, err := bind(t.Elem, rt.Elem(), 0)
		if err != nil {
			return node{}, fmt.Errorf("wire: array element: %w", err)
		}
		n.elem = &elem
		n.stride = rt.Elem().Size()
		n.sliceT = rt
		if n.minWire = t.Elem.minWireSize(); n.minWire == 0 {
			return node{}, errZeroSizeElem
		}
	case Optional:
		if rt.Kind() != reflect.Pointer {
			return mismatch()
		}
		elem, err := bind(t.Elem, rt.Elem(), 0)
		if err != nil {
			return node{}, fmt.Errorf("wire: optional: %w", err)
		}
		n.elem = &elem
		n.ptrT = rt.Elem()
	case Struct, Union:
		if rt.Kind() != reflect.Struct {
			return mismatch()
		}
		ms := t.members()
		if rt.NumField() != len(ms) {
			return node{}, fmt.Errorf("wire: %s %s has %d fields, Go type %s has %d",
				t.Kind, t.Name, len(ms), rt, rt.NumField())
		}
		n.fields = make([]node, len(ms))
		for i, f := range ms {
			gf := rt.Field(i)
			if !nameMatches(f.Name, gf.Name) {
				return node{}, fmt.Errorf("wire: %s %s field %d: wire name %q does not match Go field %q",
					t.Kind, t.Name, i, f.Name, gf.Name)
			}
			fn, err := bind(f.Type, gf.Type, off+gf.Offset)
			if err != nil {
				return node{}, fmt.Errorf("wire: %s %s field %s: %w", t.Kind, t.Name, f.Name, err)
			}
			n.fields[i] = fn
		}
		if t.Kind == Union {
			n.arms = t.armMember()
		}
	default:
		return node{}, fmt.Errorf("wire: unknown kind %d", uint8(t.Kind))
	}
	return n, nil
}

// nameMatches compares an IDL field name to a Go field name loosely:
// case and underscores are ignored, so "int_val" matches "IntVal".
func nameMatches(wireName, goName string) bool {
	if wireName == "" {
		return true
	}
	canon := func(s string) string {
		return strings.ToLower(strings.ReplaceAll(s, "_", ""))
	}
	return canon(wireName) == canon(goName)
}

// step is one instruction of the layout-free program lower builds from
// a Type: the shape's one walk, shared by both back ends. It holds what
// the shape alone decides and no Go offset, since offsets and the run
// fusion that follows from them belong to the GOARCH the program runs
// on. fuse resolves a program against a bound node into the
// interpreter's flat instructions; the emitter (emit.go) prints it as Go
// source that names fields by selector and leaves offsets to the
// compiler.
type step struct {
	op      op        // a run class (a scalar, or fixed opaque), opString, opOpaqueV, opVecSub (fixed array), opSliceSub (counted array), opUnion or opOptional
	path    []int     // member indices (Type.members) from the value the program runs against down to the step's field
	n       int       // units (run classes; bytes for fixed opaque) or elements (opVecSub)
	wire    int       // static wire bytes, or varWire when the value decides them
	bound   uint32    // declared limit of a counted step; 0 means none
	elemMin int       // array steps: the fewest wire bytes one element occupies; opUnion: the smallest arm
	sub     []step    // array steps: the element's program; opOptional: the pointee's
	arms    []armStep // opUnion
}

// armStep is one arm of a union step: its case values, whether it is the
// default, and its member's program, run against the union value (so
// its paths start at the union's members, like a struct's fields).
type armStep struct {
	cases []int64
	def   bool
	sub   []step
}

// varWire marks a step whose wire size depends on the value.
const varWire = -1

// lower builds the layout-free program of t: structs dissolve into
// their fields' steps, each named by path, and arrays carry their
// element's program. A union is its discriminant's step followed by a
// union step holding one program per arm; optional data is one step
// holding the pointee's program. Which arrays become runs is fuse's to
// decide. It refuses what Validate refuses.
func lower(t *Type) ([]step, error) {
	s := step{n: 1, wire: varWire, bound: t.Bound}
	switch t.Kind {
	case Int32, Uint32, Float32:
		s.op = opUnits
	case Hyper, Uhyper, Float64:
		s.op = opUnits8
	case Bool:
		s.op = opBools
	case OpaqueFixed:
		s.op, s.n = opBytes, t.Len
	case String:
		s.op = opString
	case OpaqueVar:
		s.op = opOpaqueV
	case Struct:
		var steps []step
		for i, f := range t.Fields {
			sub, err := lower(f.Type)
			if err != nil {
				return nil, fmt.Errorf("struct %s field %s: %w", t.Name, f.Name, err)
			}
			for _, fs := range sub {
				fs.path = append([]int{i}, fs.path...)
				steps = append(steps, fs)
			}
		}
		return steps, nil
	case Union:
		return lowerUnion(t)
	case Optional:
		sub, err := lower(t.Elem)
		if err != nil {
			return nil, fmt.Errorf("optional: %w", err)
		}
		s.op, s.sub = opOptional, sub
	case FixedArray, VarArray:
		sub, err := lower(t.Elem)
		if err != nil {
			return nil, err
		}
		elemWire, elemMin := sizes(sub)
		s.sub, s.elemMin = sub, elemMin
		switch {
		case t.Kind == FixedArray:
			s.op, s.n = opVecSub, t.Len
			if elemWire != varWire {
				s.wire = t.Len * elemWire
			}
		case elemMin == 0:
			return nil, errZeroSizeElem
		default:
			s.op = opSliceSub
		}
	default:
		return nil, fmt.Errorf("wire: cannot lower kind %s", t.Kind)
	}
	if s.op.fixed() {
		s.wire = runWire(s.op, s.n)
	}
	return []step{s}, nil
}

// lowerUnion lowers a union: the discriminant's run step, named by path
// [0], then the union step, whose arm programs name their member by its
// index in t.members(). It refuses a discriminant that is not a 4-byte
// integer, a case value the discriminant cannot hold, a value two arms
// list, and more than one default.
func lowerUnion(t *Type) ([]step, error) {
	if len(t.Fields) != 1 || t.Fields[0].Type == nil {
		return nil, fmt.Errorf("wire: union %s: want one discriminant", t.Name)
	}
	lo, hi := int64(math.MinInt32), int64(math.MaxInt32)
	switch t.Fields[0].Type.Kind {
	case Int32:
	case Uint32:
		lo, hi = 0, math.MaxUint32
	default:
		return nil, fmt.Errorf("wire: union %s: discriminant is %s, want int32 or uint32", t.Name, t.Fields[0].Type.Kind)
	}
	if len(t.Arms) == 0 {
		return nil, fmt.Errorf("wire: union %s has no arms", t.Name)
	}
	disc := step{op: opUnits, path: []int{0}, n: 1, wire: runWire(opUnits, 1)}
	u := step{op: opUnion, n: 1, wire: varWire, elemMin: -1}
	seen, defaults := make(map[int64]bool), 0
	member := t.armMember()
	for k, a := range t.Arms {
		switch {
		case a.Default && len(a.Cases) > 0:
			return nil, fmt.Errorf("wire: union %s: the default arm lists cases", t.Name)
		case a.Default:
			defaults++
		case len(a.Cases) == 0:
			return nil, fmt.Errorf("wire: union %s: arm %d lists no case", t.Name, k)
		}
		for _, c := range a.Cases {
			if c < lo || c > hi || seen[c] {
				return nil, fmt.Errorf("wire: union %s: case %d repeated or out of the discriminant's range", t.Name, c)
			}
			seen[c] = true
		}
		arm := armStep{cases: a.Cases, def: a.Default}
		if member[k] >= 0 {
			sub, err := lower(a.Field.Type)
			if err != nil {
				return nil, fmt.Errorf("union %s arm %s: %w", t.Name, a.Field.Name, err)
			}
			for _, fs := range sub {
				fs.path = append([]int{member[k]}, fs.path...)
				arm.sub = append(arm.sub, fs)
			}
		}
		if _, least := sizes(arm.sub); u.elemMin < 0 || least < u.elemMin {
			u.elemMin = least
		}
		u.arms = append(u.arms, arm)
	}
	if defaults > 1 {
		return nil, fmt.Errorf("wire: union %s has %d default arms", t.Name, defaults)
	}
	return []step{disc, u}, nil
}

// sizes reports a program's static wire size (varWire when it depends
// on the value) and the fewest wire bytes it can occupy: every counted
// item at its empty encoding, the 4-byte count, an optional at its
// 4-byte flag, and a union at its smallest arm (its discriminant is a
// step of its own).
func sizes(steps []step) (wire, least int) {
	for _, s := range steps {
		switch {
		case s.wire != varWire:
			least += s.wire
		case s.op == opVecSub:
			least += s.n * s.elemMin
		case s.op == opUnion:
			least += s.elemMin
		default:
			least += xdr.BytesPerUnit
		}
		if wire == varWire || s.wire == varWire {
			wire = varWire
		} else {
			wire += s.wire
		}
	}
	return wire, least
}

// fuse resolves a layout-free program against n, the bound node of the
// value it runs against, into the flat instruction array: each path
// becomes a Go offset on this GOARCH, and adjacent runs fuse by Go-memory
// contiguity.
func fuse(steps []step, n *node) []instr {
	var prog []instr
	for _, s := range steps {
		f := n
		for _, i := range s.path {
			f = &f.fields[i]
		}
		switch s.op {
		case opString, opOpaqueV:
			prog = append(prog, instr{op: s.op, off: f.off, bound: f.bound})
		case opVecSub:
			sub := fuse(s.sub, f.elem)
			if units, run, ok := fullyFused(sub, f.stride); ok {
				// The element fuses to contiguous units covering its whole
				// stride, so the array is one big run: loop bounds
				// resolved at compile time.
				appendRun(&prog, run, f.off, s.n*units)
				break
			}
			prog = append(prog, instr{op: opVecSub, off: f.off, n: s.n, stride: f.stride, sub: sub})
		case opSliceSub:
			sub := fuse(s.sub, f.elem)
			if units, run, ok := fullyFused(sub, f.stride); ok && run != opBytes {
				prog = append(prog, sliceRun(f.off, f.bound, run, units, f.sliceT))
				break
			}
			prog = append(prog, instr{
				op: opSliceSub, off: f.off, bound: f.bound, wire: s.elemMin,
				stride: f.stride, sub: sub, sliceT: f.sliceT,
			})
		case opUnion:
			// The arms' paths start at the union's members, whose offsets
			// bind already resolved against the same base pointer.
			arms := make([]armInstr, len(s.arms))
			for k, a := range s.arms {
				arms[k] = armInstr{def: a.def, sub: fuse(a.sub, f)}
				for _, c := range a.cases {
					arms[k].cases = append(arms[k].cases, uint32(c))
				}
			}
			prog = append(prog, instr{op: opUnion, off: f.fields[0].off, arms: arms})
		case opOptional:
			prog = append(prog, instr{op: opOptional, off: f.off, sub: fuse(s.sub, f.elem), ptrT: f.ptrT})
		default: // a run class
			appendRun(&prog, s.op, f.off, s.n)
		}
	}
	return prog
}

// appendRun appends a fixed-size run, fusing with the previous
// instruction when the two are the same class and contiguous in Go
// memory — the compile-time analog of the specializer coalescing
// adjacent stores.
func appendRun(prog *[]instr, o op, off uintptr, n int) {
	if k := len(*prog); k > 0 {
		prev := &(*prog)[k-1]
		if prev.op == o && prev.off+uintptr(prev.n)*o.memWidth() == off {
			// opBytes runs carry wire padding after them; only a run that
			// ends 4-byte aligned can absorb more bytes.
			if o != opBytes || prev.n%4 == 0 {
				prev.n += n
				prev.wire = runWire(o, prev.n)
				return
			}
		}
	}
	*prog = append(*prog, instr{op: o, off: off, n: n, wire: runWire(o, n)})
}

// sliceRun builds the counted-slice instruction for elements that fuse
// to unitsPer units of run class run.
func sliceRun(off uintptr, bound uint32, run op, unitsPer int, sliceT reflect.Type) instr {
	return instr{
		op: opSliceRun, off: off, bound: bound, run: run, unitsPer: unitsPer,
		wire: runWire(run, unitsPer), stride: sliceT.Elem().Size(), sliceT: sliceT,
	}
}

// fullyFused reports whether a compiled element program is a single run
// starting at offset 0 and covering the whole element stride, i.e. the
// element can be folded into its enclosing array's run.
func fullyFused(sub []instr, stride uintptr) (count int, o op, ok bool) {
	if len(sub) != 1 || sub[0].off != 0 {
		return 0, 0, false
	}
	in := sub[0]
	if !in.op.fixed() {
		return 0, 0, false
	}
	if uintptr(in.n)*in.op.memWidth() != stride {
		return 0, 0, false // Go padding inside the element: cannot fuse
	}
	if in.op == opBytes && in.n%4 != 0 {
		return 0, 0, false // wire padding between elements: cannot fuse
	}
	return in.n, in.op, true
}

// sliceHeader mirrors the runtime slice layout for direct header access.
// The plan only reads or writes headers of types whose layout is
// validated at compile time.
type sliceHeader struct {
	data unsafe.Pointer
	len  int
	cap  int
}

// stringHeader mirrors the runtime string layout.
type stringHeader struct {
	data unsafe.Pointer
	len  int
}
