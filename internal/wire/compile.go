package wire

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
	// what a decoded count is checked against before it is allocated. On
	// optional data, the fewest the pointee occupies: for a list's node,
	// what must remain after a set flag before the node is decoded.
	minWire int
	// arms holds, for each of a Union's arms, the index of its member in
	// fields, or -1 for a void arm.
	arms []int
}

// Op is the class of a step of Lower's program and of an instruction of
// the fused plan. The four run classes come first: they are the
// fixed-size ones, whose wire size is static (Op.fixed). Every class but
// opSliceRun, which only fuse makes, is a step class.
type Op uint8

const (
	// OpUnits moves n 4-byte big-endian units at off: fused runs of
	// int32/uint32/float32 fields and fixed arrays thereof.
	OpUnits Op = iota + 1
	// OpUnits8 moves n 8-byte big-endian units at off: hyper/uhyper/double
	// runs.
	OpUnits8
	// OpBools moves n Go bools at off, each a 4-byte 0/1 wire unit.
	OpBools
	// OpBytes moves n raw bytes plus padding at off (fixed opaque): the
	// fused-memcpy run.
	OpBytes
	// OpString moves a counted string at off.
	OpString
	// OpOpaqueV moves counted raw bytes ([]byte) at off.
	OpOpaqueV
	// opSliceRun moves a counted slice at off whose element flattens to
	// unitsPer units of run class run (e.g. []int32, []color, []bool,
	// []int64, or a []point whose fields fuse completely): the count,
	// then one run over the whole backing array.
	opSliceRun
	// OpSliceSub moves a counted slice of composite elements: count, then
	// the sub-program per element advancing by stride.
	OpSliceSub
	// OpVecSub runs the sub-program n times advancing by stride (fixed
	// array of composite elements that did not fuse).
	OpVecSub
	// OpUnion runs the program of the arm selected by the 4-byte
	// discriminant at off, which an earlier run has already moved: the
	// dynamic test left in the residual code, over per-arm static
	// programs.
	OpUnion
	// OpOptional moves the 4-byte flag of the pointer at off, then, when
	// it is set, the sub-program against the pointee.
	OpOptional
	// OpChain moves a linked list from its link at off: while the link is
	// set, a 1 flag and the sub-program (the node's fields) against the
	// node it points at, then that node's own link; a 0 flag ends it. One
	// loop over (flag, body), however long the list.
	OpChain
)

// instr is one step of a compiled plan. The offsets and counts are the
// "static" data of the paper's specialization: everything knowable from
// the type alone is folded in here, so executing the plan touches only
// the dynamic bytes.
type instr struct {
	op       Op
	off      uintptr
	n        int     // unit/byte count (run classes, OpVecSub)
	wire     int     // static wire bytes: the whole run (run classes), one element (opSliceRun), one element at its smallest (OpSliceSub), the rest of a link after its set flag at its smallest, next flag included (OpChain)
	bound    uint32  // decode limit for counted ops
	stride   uintptr // Go element size for slice/vector ops; OpChain: the link's offset in a node
	run      Op      // run class of the fused element (opSliceRun)
	unitsPer int     // fused units per element (opSliceRun)
	sub      []instr
	sliceT   reflect.Type // concrete slice type for decode allocation
	ptrT     reflect.Type // OpOptional, OpChain: the pointee type for decode allocation
	arms     []armInstr   // OpUnion
}

// armInstr is one arm of an OpUnion instruction: the discriminant values
// that select it, whether it is the default, and its member's program,
// which runs against the union's own base pointer.
type armInstr struct {
	cases []uint32
	def   bool
	sub   []instr
}

// fixed reports whether o is a run class: a fixed-size instruction.
func (o Op) fixed() bool { return o >= OpUnits && o <= OpBytes }

// memWidth is the Go-memory size of one unit of run class o.
func (o Op) memWidth() uintptr {
	switch o {
	case OpUnits:
		return 4
	case OpUnits8:
		return 8
	default: // OpBools, OpBytes
		return 1
	}
}

// runWire reports the wire bytes n units of run class o occupy. It is the
// one answer to "what is the static wire size": every Step.Wire of the
// layout-free program and every instr.wire of the fused one is computed
// here or summed from it when built, and the executors, the fused view
// and the emitter only ever read the fields.
func runWire(o Op, n int) int {
	switch o {
	case OpUnits8:
		return 8 * n
	case OpBytes:
		return n + xdr.Pad(n)
	default: // OpUnits, OpBools: one 4-byte unit each
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
	// Lower is also the one verdict on the shape, so the walker refuses
	// what the plans refuse.
	steps, err := Lower(t)
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
		n.minWire = t.Elem.minWireSize()
	case Struct, Union:
		if rt.Kind() != reflect.Struct {
			return mismatch()
		}
		ms := t.Members()
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
			if t.chain() && i == len(ms)-1 {
				if gf.Type.Kind() != reflect.Pointer || gf.Type.Elem() != rt {
					return node{}, fmt.Errorf("wire: struct %s field %s: a list's link binds to a pointer to %s, not %s", t.Name, f.Name, rt, gf.Type)
				}
				// The link's node is this struct at offset 0, linked below.
				n.fields[i] = node{t: f.Type, off: off + gf.Offset, ptrT: rt, minWire: t.minWireSize()}
				continue
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
		if t.chain() {
			// A node is bound at offset 0 in its own allocation; so is the
			// value itself when it is one, else it gets a node of its own.
			self := &n
			if off != 0 {
				at0, err := bind(t, rt, 0)
				if err != nil {
					return node{}, err
				}
				self = &at0
			}
			n.fields[len(ms)-1].elem = self
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

// Step is one instruction of the layout-free program Lower builds from
// a Type: the shape's one walk, shared by every back end. It holds what
// the shape alone decides and no Go offset, since offsets and the run
// fusion that follows from them belong to the GOARCH the program runs
// on. fuse resolves a program against a bound node into the
// interpreter's flat instructions, derivation (derive.go) rebuilds one
// from the specializer's residual, and rpcgen's emitter prints one as Go
// source that names fields by selector and leaves offsets to the
// compiler.
type Step struct {
	Op      Op        // a run class (a scalar, or fixed opaque), OpString, OpOpaqueV, OpVecSub (fixed array), OpSliceSub (counted array), OpUnion, OpOptional or OpChain
	Path    []int     // member indices (Type.Members) from the value the program runs against down to the step's field
	N       int       // units (run classes; bytes for fixed opaque) or elements (OpVecSub)
	Wire    int       // static wire bytes, or VarWire when the value decides them
	Bound   uint32    // declared limit of a counted step; 0 means none
	ElemMin int       // array steps: the fewest wire bytes one element occupies; OpUnion: the smallest arm; OpChain: the rest of a link after its set flag, the next flag included
	Sub     []Step    // array steps: the element's program; OpOptional: the pointee's; OpChain: a node's, its link left out
	Arms    []ArmStep // OpUnion
}

// ArmStep is one arm of a union step: its case values, whether it is the
// default, and its member's program, run against the union value (so
// its paths start at the union's members, like a struct's fields).
type ArmStep struct {
	Cases   []int64 // the discriminant values that select the arm
	Default bool    // the arm every value no other arm lists selects
	Sub     []Step  // the member's program; empty for a void arm
}

// VarWire is the Step.Wire of a step whose wire size depends on the
// value.
const VarWire = -1

// Lower builds the layout-free program of t: structs dissolve into
// their fields' steps, each named by path, and arrays carry their
// element's program. A union is its discriminant's step followed by a
// union step holding one program per arm; optional data is one step
// holding the pointee's program; a list node (ListT) is its fields'
// steps followed by one chain step holding them again, run against each
// node its link leads to, and optional data of a list node is that
// chain step alone, the link to the list's first node. Which arrays
// become runs is fuse's to decide. It refuses what Validate refuses.
func Lower(t *Type) ([]Step, error) {
	s := Step{N: 1, Wire: VarWire, Bound: t.Bound}
	switch t.Kind {
	case Int32, Uint32, Float32:
		s.Op = OpUnits
	case Hyper, Uhyper, Float64:
		s.Op = OpUnits8
	case Bool:
		s.Op = OpBools
	case OpaqueFixed:
		s.Op, s.N = OpBytes, t.Len
	case String:
		s.Op = OpString
	case OpaqueVar:
		s.Op = OpOpaqueV
	case Struct:
		fields := t.Fields
		if t.chain() {
			fields = fields[:len(fields)-1]
		}
		var steps []Step
		for i, f := range fields {
			sub, err := Lower(f.Type)
			if err != nil {
				return nil, fmt.Errorf("struct %s field %s: %w", t.Name, f.Name, err)
			}
			for _, fs := range sub {
				fs.Path = append([]int{i}, fs.Path...)
				steps = append(steps, fs)
			}
		}
		if len(fields) < len(t.Fields) {
			_, least := Sizes(steps)
			steps = append(steps, Step{Op: OpChain, Path: []int{len(fields)}, N: 1, Wire: VarWire,
				ElemMin: least + xdr.BytesPerUnit, Sub: slices.Clone(steps)})
		}
		return steps, nil
	case Union:
		return lowerUnion(t)
	case Optional:
		sub, err := Lower(t.Elem)
		if err != nil {
			return nil, fmt.Errorf("optional: %w", err)
		}
		if t.Elem.chain() {
			link := sub[len(sub)-1]
			link.Path = nil
			return []Step{link}, nil
		}
		s.Op, s.Sub = OpOptional, sub
	case FixedArray, VarArray:
		sub, err := Lower(t.Elem)
		if err != nil {
			return nil, err
		}
		elemWire, elemMin := Sizes(sub)
		s.Sub, s.ElemMin = sub, elemMin
		switch {
		case t.Kind == FixedArray:
			s.Op, s.N = OpVecSub, t.Len
			if elemWire != VarWire {
				s.Wire = t.Len * elemWire
			}
		case elemMin == 0:
			return nil, errZeroSizeElem
		default:
			s.Op = OpSliceSub
		}
	default:
		return nil, fmt.Errorf("wire: cannot lower kind %s", t.Kind)
	}
	if s.Op.fixed() {
		s.Wire = runWire(s.Op, s.N)
	}
	return []Step{s}, nil
}

// lowerUnion lowers a union: the discriminant's run step, named by path
// [0], then the union step, whose arm programs name their member by its
// index in t.Members(). It refuses a discriminant that is not a 4-byte
// integer, a case value the discriminant cannot hold, a value two arms
// list, and more than one default.
func lowerUnion(t *Type) ([]Step, error) {
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
	disc := Step{Op: OpUnits, Path: []int{0}, N: 1, Wire: runWire(OpUnits, 1)}
	u := Step{Op: OpUnion, N: 1, Wire: VarWire, ElemMin: -1}
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
		arm := ArmStep{Cases: a.Cases, Default: a.Default}
		if member[k] >= 0 {
			sub, err := Lower(a.Field.Type)
			if err != nil {
				return nil, fmt.Errorf("union %s arm %s: %w", t.Name, a.Field.Name, err)
			}
			for _, fs := range sub {
				fs.Path = append([]int{member[k]}, fs.Path...)
				arm.Sub = append(arm.Sub, fs)
			}
		}
		if _, least := Sizes(arm.Sub); u.ElemMin < 0 || least < u.ElemMin {
			u.ElemMin = least
		}
		u.Arms = append(u.Arms, arm)
	}
	if defaults > 1 {
		return nil, fmt.Errorf("wire: union %s has %d default arms", t.Name, defaults)
	}
	return []Step{disc, u}, nil
}

// Sizes reports a program's static wire size (VarWire when it depends
// on the value) and the fewest wire bytes it can occupy: every counted
// item at its empty encoding, the 4-byte count, an optional at its
// 4-byte flag (a list at the flag that ends it), and a union at its
// smallest arm (its discriminant is a step of its own).
func Sizes(steps []Step) (wire, least int) {
	for _, s := range steps {
		switch {
		case s.Wire != VarWire:
			least += s.Wire
		case s.Op == OpVecSub:
			least += s.N * s.ElemMin
		case s.Op == OpUnion:
			least += s.ElemMin
		default:
			least += xdr.BytesPerUnit
		}
		if wire == VarWire || s.Wire == VarWire {
			wire = VarWire
		} else {
			wire += s.Wire
		}
	}
	return wire, least
}

// fuse resolves a layout-free program against n, the bound node of the
// value it runs against, into the flat instruction array: each path
// becomes a Go offset on this GOARCH, and adjacent runs fuse by Go-memory
// contiguity.
func fuse(steps []Step, n *node) []instr {
	var prog []instr
	for _, s := range steps {
		f := n
		for _, i := range s.Path {
			f = &f.fields[i]
		}
		switch s.Op {
		case OpString, OpOpaqueV:
			prog = append(prog, instr{op: s.Op, off: f.off, bound: f.bound})
		case OpVecSub:
			sub := fuse(s.Sub, f.elem)
			if units, run, ok := fullyFused(sub, f.stride); ok {
				// The element fuses to contiguous units covering its whole
				// stride, so the array is one big run: loop bounds
				// resolved at compile time.
				appendRun(&prog, run, f.off, s.N*units)
				break
			}
			prog = append(prog, instr{op: OpVecSub, off: f.off, n: s.N, stride: f.stride, sub: sub})
		case OpSliceSub:
			sub := fuse(s.Sub, f.elem)
			if units, run, ok := fullyFused(sub, f.stride); ok && run != OpBytes {
				prog = append(prog, sliceRun(f.off, f.bound, run, units, f.sliceT))
				break
			}
			prog = append(prog, instr{
				op: OpSliceSub, off: f.off, bound: f.bound, wire: s.ElemMin,
				stride: f.stride, sub: sub, sliceT: f.sliceT,
			})
		case OpUnion:
			// The arms' paths start at the union's members, whose offsets
			// bind already resolved against the same base pointer.
			arms := make([]armInstr, len(s.Arms))
			for k, a := range s.Arms {
				arms[k] = armInstr{def: a.Default, sub: fuse(a.Sub, f)}
				for _, c := range a.Cases {
					arms[k].cases = append(arms[k].cases, uint32(c))
				}
			}
			prog = append(prog, instr{op: OpUnion, off: f.fields[0].off, arms: arms})
		case OpOptional:
			prog = append(prog, instr{op: OpOptional, off: f.off, sub: fuse(s.Sub, f.elem), ptrT: f.ptrT})
		case OpChain:
			node := f.elem
			prog = append(prog, instr{op: OpChain, off: f.off, wire: s.ElemMin, sub: fuse(s.Sub, node),
				ptrT: f.ptrT, stride: node.fields[len(node.fields)-1].off})
		default: // a run class
			appendRun(&prog, s.Op, f.off, s.N)
		}
	}
	return prog
}

// appendRun appends a fixed-size run, fusing with the previous
// instruction when the two are the same class and contiguous in Go
// memory — the compile-time analog of the specializer coalescing
// adjacent stores.
func appendRun(prog *[]instr, o Op, off uintptr, n int) {
	if k := len(*prog); k > 0 {
		prev := &(*prog)[k-1]
		if prev.op == o && prev.off+uintptr(prev.n)*o.memWidth() == off {
			// OpBytes runs carry wire padding after them; only a run that
			// ends 4-byte aligned can absorb more bytes.
			if o != OpBytes || prev.n%4 == 0 {
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
func sliceRun(off uintptr, bound uint32, run Op, unitsPer int, sliceT reflect.Type) instr {
	return instr{
		op: opSliceRun, off: off, bound: bound, run: run, unitsPer: unitsPer,
		wire: runWire(run, unitsPer), stride: sliceT.Elem().Size(), sliceT: sliceT,
	}
}

// fullyFused reports whether a compiled element program is a single run
// starting at offset 0 and covering the whole element stride, i.e. the
// element can be folded into its enclosing array's run.
func fullyFused(sub []instr, stride uintptr) (count int, o Op, ok bool) {
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
	if in.op == OpBytes && in.n%4 != 0 {
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
