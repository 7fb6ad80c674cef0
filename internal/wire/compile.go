package wire

import (
	"fmt"
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
	bound  uint32
	// minWire is the fewest wire bytes one VarArray element can occupy:
	// what a decoded count is checked against before it is allocated.
	minWire int
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
)

// instr is one step of a compiled plan. The offsets and counts are the
// "static" data of the paper's specialization: everything knowable from
// the type alone is folded in here, so executing the plan touches only
// the dynamic bytes.
type instr struct {
	op       op
	off      uintptr
	n        int     // unit/byte count (run classes, opVecSub)
	wire     int     // static wire bytes: the whole run (run classes), one element (opSliceRun)
	bound    uint32  // decode limit for counted ops
	stride   uintptr // Go element size for slice/vector ops
	run      op      // run class of the fused element (opSliceRun)
	unitsPer int     // fused units per element (opSliceRun)
	sub      []instr
	sliceT   reflect.Type // concrete slice type for decode allocation
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
// flat program's one answer to "what is the static wire size": every
// instr.wire is computed here, when the instruction is built, and the
// executors and the fused view only ever read the field. (The Type
// tree's answer is Type.wireSize.)
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
	if mode != Generic {
		prog, err := flatten(root, 0)
		if err != nil {
			return nil, err
		}
		c.prog = prog
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
	case Struct:
		if rt.Kind() != reflect.Struct {
			return mismatch()
		}
		if rt.NumField() != len(t.Fields) {
			return node{}, fmt.Errorf("wire: struct %s has %d fields, Go type %s has %d",
				t.Name, len(t.Fields), rt, rt.NumField())
		}
		n.fields = make([]node, len(t.Fields))
		for i, f := range t.Fields {
			gf := rt.Field(i)
			if !nameMatches(f.Name, gf.Name) {
				return node{}, fmt.Errorf("wire: struct %s field %d: wire name %q does not match Go field %q",
					t.Name, i, f.Name, gf.Name)
			}
			fn, err := bind(f.Type, gf.Type, off+gf.Offset)
			if err != nil {
				return node{}, fmt.Errorf("wire: struct %s field %s: %w", t.Name, f.Name, err)
			}
			n.fields[i] = fn
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

// flatten compiles a bound node into the linear instruction array,
// fusing adjacent fixed-size runs. base is the offset of the node within
// the pointer the program will run against.
func flatten(n node, base uintptr) ([]instr, error) {
	var prog []instr
	if err := flattenInto(&prog, n, base); err != nil {
		return nil, err
	}
	return prog, nil
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

func flattenInto(prog *[]instr, n node, base uintptr) error {
	off := base + n.off
	switch n.t.Kind {
	case Int32, Uint32, Float32:
		appendRun(prog, opUnits, off, 1)
	case Hyper, Uhyper, Float64:
		appendRun(prog, opUnits8, off, 1)
	case Bool:
		appendRun(prog, opBools, off, 1)
	case String:
		*prog = append(*prog, instr{op: opString, off: off, bound: n.bound})
	case OpaqueFixed:
		appendRun(prog, opBytes, off, n.t.Len)
	case OpaqueVar:
		*prog = append(*prog, instr{op: opOpaqueV, off: off, bound: n.bound})
	case Struct:
		for _, f := range n.fields {
			if err := flattenInto(prog, f, base); err != nil {
				return err
			}
		}
	case FixedArray:
		sub, err := flatten(*n.elem, 0)
		if err != nil {
			return err
		}
		if units, run, ok := fullyFused(sub, n.stride); ok {
			// The element flattens to contiguous units covering its whole
			// stride, so the array is one big run: loop bounds resolved at
			// compile time.
			appendRun(prog, run, off, n.t.Len*units)
			return nil
		}
		*prog = append(*prog, instr{op: opVecSub, off: off, n: n.t.Len, stride: n.stride, sub: sub})
	case VarArray:
		sub, err := flatten(*n.elem, 0)
		if err != nil {
			return err
		}
		if units, run, ok := fullyFused(sub, n.stride); ok && run != opBytes {
			*prog = append(*prog, sliceRun(off, n.bound, run, units, n.sliceT))
			return nil
		}
		*prog = append(*prog, instr{
			op: opSliceSub, off: off, bound: n.bound,
			stride: n.stride, sub: sub, sliceT: n.sliceT,
		})
	default:
		return fmt.Errorf("wire: cannot flatten kind %s", n.t.Kind)
	}
	return nil
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
