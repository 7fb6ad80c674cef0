package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"unsafe"

	"specrpc/internal/xdr"
)

// Marshal encodes, decodes, or frees the value at p according to the
// handle mode, exactly like a generated xdr_* routine. p must point at a
// value of the codec's Go type.
func (c *Codec) Marshal(x *xdr.XDR, p unsafe.Pointer) error {
	switch x.Op {
	case xdr.Encode:
		return c.Encode(x, p)
	case xdr.Decode:
		return c.Decode(x, p)
	case xdr.Free:
		return walk(x, &c.root, p)
	default:
		return xdr.ErrBadOp
	}
}

// Encode serializes the value at p into x's stream.
func (c *Codec) Encode(x *xdr.XDR, p unsafe.Pointer) error {
	if c.mode != Generic {
		// The compiled plan bypasses the Stream interface when the stream
		// is one it can address directly — which is every stream the live
		// transport encodes into. Anything else falls back to the walker,
		// which is correct (if interpretive) against any stream.
		if bs, ok := x.Stream.(*xdr.BufStream); ok {
			return encodeProg(bs, c.prog, p)
		}
	}
	return walk(x, &c.root, p)
}

// Decode deserializes from x's stream into the value at p.
func (c *Codec) Decode(x *xdr.XDR, p unsafe.Pointer) error {
	if c.mode != Generic {
		if ms, ok := x.Stream.(*xdr.MemStream); ok {
			return decodeProg(ms, c.prog, p)
		}
	}
	return walk(x, &c.root, p)
}

// DecodeBody decodes one value straight out of body into the value at
// p, with no caller-supplied handle: the fused message paths hand the
// raw argument or result bytes here after locating them at fixed
// offsets. The stream state lives on the stack, so the hot decode is
// allocation-free; Generic-mode codecs fall back to the interpretive
// walker over the same bytes.
func (c *Codec) DecodeBody(body []byte, p unsafe.Pointer) error {
	if c.mode != Generic {
		// The stream stays on the stack: decodeProg never retains it, and
		// keeping the interface boxing confined to the generic fallback
		// below is what lets escape analysis prove that.
		var ms xdr.MemStream
		ms.SetBuffer(body)
		return decodeProg(&ms, c.prog, p)
	}
	return c.decodeBodyGeneric(body, p)
}

// decodeBodyGeneric is the interpretive fallback of DecodeBody; the
// walker needs a full XDR handle, whose Stream interface forces the
// stream to the heap — which is why it lives in its own frame.
func (c *Codec) decodeBodyGeneric(body []byte, p unsafe.Pointer) error {
	var ms xdr.MemStream
	ms.SetBuffer(body)
	x := xdr.XDR{Op: xdr.Decode, Stream: &ms}
	return walk(&x, &c.root, p)
}

// encodeBodyGeneric is its encode twin: the walker appending one value
// behind whatever bs already holds, the body of a whole-message codec
// on the generic rung.
func (c *Codec) encodeBodyGeneric(bs *xdr.BufStream, p unsafe.Pointer) error {
	x := xdr.XDR{Op: xdr.Encode, Stream: bs}
	return walk(&x, &c.root, p)
}

// ---------------------------------------------------------------------------
// Generic codec: the interpretive tree-walker.
//
// walk is deliberately structured like the original generic stubs: one
// recursive routine serving encode, decode, and free, dispatching on the
// handle mode at every leaf and moving one unit at a time through the
// Stream interface with its per-unit bounds check. This is the baseline
// the paper's measurements start from.

func walk(x *xdr.XDR, n *node, p unsafe.Pointer) error {
	q := unsafe.Add(p, n.off)
	switch n.t.Kind {
	case Int32:
		return x.Long((*int32)(q))
	case Uint32:
		return x.Uint32((*uint32)(q))
	case Bool:
		return x.Bool((*bool)(q))
	case Float32:
		return x.Float32((*float32)(q))
	case Hyper:
		return x.Hyper((*int64)(q))
	case Uhyper:
		return x.Uint64((*uint64)(q))
	case Float64:
		return x.Float64((*float64)(q))
	case String:
		return x.String((*string)(q), n.bound)
	case OpaqueFixed:
		if n.t.Len == 0 {
			return nil
		}
		return x.Opaque(unsafe.Slice((*byte)(q), n.t.Len))
	case OpaqueVar:
		return x.Bytes((*[]byte)(q), n.bound)
	case Struct:
		for i := range n.fields {
			if err := walk(x, &n.fields[i], p); err != nil {
				return err
			}
		}
		return nil
	case FixedArray:
		for i := 0; i < n.t.Len; i++ {
			if err := walk(x, n.elem, unsafe.Add(q, uintptr(i)*n.stride)); err != nil {
				return err
			}
		}
		return nil
	case VarArray:
		return walkVarArray(x, n, q)
	case Union:
		// The discriminant first, in every handle mode, then the arm its
		// value (now in memory, on decode too) selects.
		if err := walk(x, &n.fields[0], p); err != nil {
			return err
		}
		d := *(*uint32)(unsafe.Add(p, n.fields[0].off))
		k, ok := armOf(n.t.Arms, d)
		if !ok {
			return xdr.ErrBadUnion
		}
		if m := n.arms[k]; m >= 0 {
			return walk(x, &n.fields[m], p)
		}
		return nil
	case Optional:
		return walkOptional(x, n, (*unsafe.Pointer)(q))
	default:
		return fmt.Errorf("wire: cannot marshal kind %s", n.t.Kind)
	}
}

// armOf reports which of arms the discriminant d selects: the arm that
// lists it, else the default.
func armOf(arms []Arm, d uint32) (int, bool) {
	def := -1
	for k, a := range arms {
		if a.Default {
			def = k
		}
		for _, c := range a.Cases {
			if uint32(c) == d {
				return k, true
			}
		}
	}
	return def, def >= 0
}

// walkOptional is xdr.Optional over a bound pointer: the flag as an
// xdr.Bool (any nonzero value on the wire means the data follows), a
// decode that reuses a non-nil pointee and clears the pointer on a zero
// flag, and a free that clears it. Optional data of a list node — a
// list's link, or a pointer to its first node — is walked as one loop:
// each set flag moves the fields of the node it leads to, and the walk
// goes on from that node's link. There a decode checks, before it takes
// a node, that the rest of the link and the flag after it can still
// arrive (the allocation rule beside ensureSlice), and an encode fails
// with xdr.ErrCycle on a list that leads back into itself (nextSlow).
func walkOptional(x *xdr.XDR, n *node, pp *unsafe.Pointer) error {
	body, list := unsafe.Slice(n.elem, 1), n.t.Elem.chain()
	var next uintptr
	if list {
		last := len(n.elem.fields) - 1
		body, next = n.elem.fields[:last], n.elem.fields[last].off
	}
	slow := *pp
	for k := 0; ; k++ {
		follows := *pp != nil
		if list && follows && x.Op == xdr.Encode {
			var cyclic bool
			if slow, cyclic = nextSlow(*pp, slow, k, next); cyclic {
				return xdr.ErrCycle
			}
		}
		switch x.Op {
		case xdr.Encode, xdr.Decode:
			if err := x.Bool(&follows); err != nil {
				return err
			}
		case xdr.Free:
		default:
			return xdr.ErrBadOp
		}
		if !follows {
			*pp = nil
			return nil
		}
		if ms, ok := x.Stream.(*xdr.MemStream); list && x.Op == xdr.Decode && (!ok || ms.Remaining() < n.minWire) {
			return xdr.ErrOverflow
		}
		if *pp == nil {
			*pp = reflect.New(n.ptrT).UnsafePointer()
		}
		cur := *pp
		for i := range body {
			if err := walk(x, &body[i], cur); err != nil {
				return err
			}
		}
		if x.Op == xdr.Free {
			*pp = nil
		}
		if !list {
			return nil
		}
		pp = (*unsafe.Pointer)(unsafe.Add(cur, next))
	}
}

// nextSlow is one step of the tortoise-and-hare check every encoder of
// a list makes, in O(1) memory: p is the k-th node, slow the node the
// check has reached, which moves one node for every two of p's; the
// list loops back on itself exactly when p meets it. next is the link's
// offset in a node.
//
//specrpc:hotpath
func nextSlow(p, slow unsafe.Pointer, k int, next uintptr) (unsafe.Pointer, bool) {
	if k == 0 {
		return slow, false
	}
	if k&1 == 0 {
		slow = *(*unsafe.Pointer)(unsafe.Add(slow, next))
	}
	return slow, p == slow
}

func walkVarArray(x *xdr.XDR, n *node, q unsafe.Pointer) error {
	h := (*sliceHeader)(q)
	switch x.Op {
	case xdr.Encode:
		cnt := uint32(h.len)
		if cnt > n.bound {
			return xdr.ErrTooBig
		}
		if err := x.Uint32(&cnt); err != nil {
			return err
		}
		for i := 0; i < h.len; i++ {
			if err := walk(x, n.elem, unsafe.Add(h.data, uintptr(i)*n.stride)); err != nil {
				return err
			}
		}
		return nil
	case xdr.Decode:
		var cnt uint32
		if err := x.Uint32(&cnt); err != nil {
			return err
		}
		if cnt > n.bound {
			return xdr.ErrTooBig
		}
		// The allocation rule (see ensureSlice): a count the stream's
		// remaining bytes cannot satisfy fails before anything is
		// allocated, and a stream that cannot say what is left vouches
		// for none.
		ms, ok := x.Stream.(*xdr.MemStream)
		if !ok || int64(cnt)*int64(n.minWire) > int64(ms.Remaining()) {
			return xdr.ErrOverflow
		}
		total := int(cnt)
		data := ensureSlice(q, n.sliceT, total, n.stride)
		for i := 0; i < total; i++ {
			if err := walk(x, n.elem, unsafe.Add(data, uintptr(i)*n.stride)); err != nil {
				return err
			}
		}
		return nil
	case xdr.Free:
		for i := 0; i < h.len; i++ {
			if err := walk(x, n.elem, unsafe.Add(h.data, uintptr(i)*n.stride)); err != nil {
				return err
			}
		}
		h.data, h.len, h.cap = nil, 0, 0
		return nil
	default:
		return xdr.ErrBadOp
	}
}

// ensureSlice makes the slice at dst hold exactly cnt elements and
// returns the data pointer. A backing array with room for cnt is kept —
// the elements are decoded over, so a destination that is decoded into
// again and again (a server's per-procedure argument value) stops
// allocating once it has seen its largest message — and only a larger
// count allocates. A zero count therefore leaves a nil slice nil and a
// non-nil one empty. Every decoder follows the same rule
// (ensureSlicePtrFree, decodeProg's OpOpaqueV, the emitted routines), so
// the engines agree on reused destinations as they do on fresh ones.
// Allocation goes through reflect so element types carrying pointers
// (strings, nested slices) stay visible to the garbage collector.
//
// The allocation rule, for every decoder in the tree that allocates from
// a count read off the wire: a decoder never allocates more than the
// bytes that can still arrive could fill. Every decode reads memory —
// an xdr.MemStream over the datagram, record or reply the transports
// hand it — so the count times the element's smallest wire size is
// checked against Remaining before the allocation: decodeProg's
// opSliceRun and OpSliceSub, the emitted routines, walkVarArray,
// xdr.Bytes and xdr.String all do, and xdr.Array, whose element size it
// cannot know, allocates no more elements up front than Remaining holds
// units. A stream that cannot say what is left vouches for no count, so
// a counted decode over it is refused before it allocates. The rule has
// teeth only where an element costs wire bytes, so a counted array whose
// element costs none is refused when it is described (errZeroSizeElem),
// not here.
func ensureSlice(dst unsafe.Pointer, sliceT reflect.Type, cnt int, stride uintptr) unsafe.Pointer {
	h := (*sliceHeader)(dst)
	if cnt <= h.cap {
		h.len = cnt
		return h.data
	}
	ms := reflect.MakeSlice(sliceT, cnt, cnt)
	reflect.NewAt(sliceT, dst).Elem().Set(ms)
	return h.data
}

// ---------------------------------------------------------------------------
// Specialized codec: the flat plan executors.
//
// Each fixed-size instruction is one run: one growth or bounds check
// sized by the instruction's precomputed wire bytes, then direct
// big-endian stores or loads over the window through putRun/getRun —
// the same kernels the fused whole-message prefix (fused.go) stores
// through, so the two cannot disagree about a run's bytes.

// errBadInstruction reports a corrupted plan. A plan is built once by
// Compile/DeriveCodec, so this is an internal invariant, not an input
// error — and the hot executors must not pay fmt.Errorf's allocation to
// report it.
var errBadInstruction = errors.New("wire: bad instruction in plan")

//specrpc:hotpath
func encodeProg(bs *xdr.BufStream, prog []instr, p unsafe.Pointer) error {
	for i := range prog {
		in := &prog[i]
		q := unsafe.Add(p, in.off)
		switch in.op {
		case OpUnits, OpUnits8, OpBools, OpBytes:
			putRun(bs.Extend(in.wire), in.op, q, in.n)
		case OpString:
			h := (*stringHeader)(q)
			if uint32(h.len) > in.bound {
				return xdr.ErrTooBig
			}
			encCounted(bs, h.data, h.len)
		case OpOpaqueV:
			h := (*sliceHeader)(q)
			if uint32(h.len) > in.bound {
				return xdr.ErrTooBig
			}
			encCounted(bs, h.data, h.len)
		case opSliceRun:
			h := (*sliceHeader)(q)
			if uint32(h.len) > in.bound {
				return xdr.ErrTooBig
			}
			w := bs.Extend(4 + h.len*in.wire)
			binary.BigEndian.PutUint32(w, uint32(h.len))
			putRun(w[4:], in.run, h.data, h.len*in.unitsPer)
		case OpSliceSub:
			h := (*sliceHeader)(q)
			if uint32(h.len) > in.bound {
				return xdr.ErrTooBig
			}
			binary.BigEndian.PutUint32(bs.Extend(4), uint32(h.len))
			for j := 0; j < h.len; j++ {
				if err := encodeProg(bs, in.sub, unsafe.Add(h.data, uintptr(j)*in.stride)); err != nil {
					return err
				}
			}
		case OpVecSub:
			for j := 0; j < in.n; j++ {
				if err := encodeProg(bs, in.sub, unsafe.Add(q, uintptr(j)*in.stride)); err != nil {
					return err
				}
			}
		case OpUnion:
			sub, err := selectArm(in.arms, *(*uint32)(q))
			if err != nil {
				return err
			}
			if err := encodeProg(bs, sub, p); err != nil {
				return err
			}
		case OpOptional:
			elem := *(*unsafe.Pointer)(q)
			w := bs.Extend(4)
			if elem == nil {
				binary.BigEndian.PutUint32(w, 0)
				break
			}
			binary.BigEndian.PutUint32(w, 1)
			if err := encodeProg(bs, in.sub, elem); err != nil {
				return err
			}
		case OpChain:
			node := *(*unsafe.Pointer)(q)
			slow := node
			for k := 0; node != nil; k++ {
				var cyclic bool
				if slow, cyclic = nextSlow(node, slow, k, in.stride); cyclic {
					return xdr.ErrCycle
				}
				binary.BigEndian.PutUint32(bs.Extend(4), 1)
				if err := encodeProg(bs, in.sub, node); err != nil {
					return err
				}
				node = *(*unsafe.Pointer)(unsafe.Add(node, in.stride))
			}
			binary.BigEndian.PutUint32(bs.Extend(4), 0)
		default:
			return errBadInstruction
		}
	}
	return nil
}

// selectArm returns the program of the arm the discriminant d selects:
// the arm that lists it, else the default, else xdr.ErrBadUnion.
//
//specrpc:hotpath
func selectArm(arms []armInstr, d uint32) ([]instr, error) {
	def := -1
	for k := range arms {
		a := &arms[k]
		if a.def {
			def = k
		}
		for _, c := range a.cases {
			if c == d {
				return a.sub, nil
			}
		}
	}
	if def < 0 {
		return nil, xdr.ErrBadUnion
	}
	return arms[def].sub, nil
}

// putRun stores n units of run class o from src into w, which the
// caller reserved at runWire(o, n) bytes: the residual loop of the
// specialized stub — no per-unit dispatch or check, just the byte-order
// store, which for unit runs is the kernel of units.go that the emitted
// routines call too — and, for fixed opaque data, one memcpy plus
// explicit padding (the window may be recycled dirty memory).
//
//specrpc:hotpath
func putRun(w []byte, o Op, src unsafe.Pointer, n int) {
	switch o {
	case OpUnits:
		putUnits32(w, unsafe.Slice((*uint32)(src), n))
	case OpUnits8:
		putUnits64(w, unsafe.Slice((*uint64)(src), n))
	case OpBools:
		for j := 0; j < n; j++ {
			var u uint32
			if *(*byte)(unsafe.Add(src, j)) != 0 {
				u = 1
			}
			binary.BigEndian.PutUint32(w[4*j:], u)
		}
	case OpBytes:
		copy(w, unsafe.Slice((*byte)(src), n))
		for j := n; j < len(w); j++ {
			w[j] = 0
		}
	}
}

// encCounted writes a 4-byte count, n raw bytes, and padding.
//
//specrpc:hotpath
func encCounted(bs *xdr.BufStream, src unsafe.Pointer, n int) {
	pad := xdr.Pad(n)
	w := bs.Extend(4 + n + pad)
	binary.BigEndian.PutUint32(w, uint32(n))
	if n > 0 {
		copy(w[4:], unsafe.Slice((*byte)(src), n))
	}
	for j := 4 + n; j < 4+n+pad; j++ {
		w[j] = 0
	}
}

//specrpc:hotpath
func decodeProg(ms *xdr.MemStream, prog []instr, p unsafe.Pointer) error {
	for i := range prog {
		in := &prog[i]
		q := unsafe.Add(p, in.off)
		switch in.op {
		case OpUnits, OpUnits8, OpBools, OpBytes:
			b, err := ms.Take(in.wire)
			if err != nil {
				return err
			}
			getRun(b, in.op, q, in.n)
		case OpString:
			cnt, err := decCount(ms, in.bound)
			if err != nil {
				return err
			}
			b, err := ms.Take(cnt + xdr.Pad(cnt))
			if err != nil {
				return err
			}
			*(*string)(q) = string(b[:cnt])
		case OpOpaqueV:
			cnt, err := decCount(ms, in.bound)
			if err != nil {
				return err
			}
			b, err := ms.Take(cnt + xdr.Pad(cnt))
			if err != nil {
				return err
			}
			dst := (*[]byte)(q)
			if cnt <= cap(*dst) {
				*dst = (*dst)[:cnt]
			} else {
				*dst = make([]byte, cnt)
			}
			copy(*dst, b[:cnt])
		case opSliceRun:
			cnt, err := decCount(ms, in.bound)
			if err != nil {
				return err
			}
			// Reject counts the remaining bytes cannot possibly satisfy
			// before allocating, so a hostile length prefix cannot force a
			// huge allocation.
			if int64(cnt)*int64(in.wire) > int64(ms.Remaining()) {
				return xdr.ErrOverflow
			}
			data := ensureSlicePtrFree(q, cnt, in.stride)
			b, err := ms.Take(cnt * in.wire)
			if err != nil {
				return err
			}
			getRun(b, in.run, data, cnt*in.unitsPer)
		case OpSliceSub:
			cnt, err := decCount(ms, in.bound)
			if err != nil {
				return err
			}
			// Every element costs at least in.wire bytes (Compile refuses
			// elements that cost none): reject hostile counts against
			// that before allocating.
			if int64(cnt)*int64(in.wire) > int64(ms.Remaining()) {
				return xdr.ErrOverflow
			}
			data := ensureSlice(q, in.sliceT, cnt, in.stride)
			for j := 0; j < cnt; j++ {
				if err := decodeProg(ms, in.sub, unsafe.Add(data, uintptr(j)*in.stride)); err != nil {
					return err
				}
			}
		case OpVecSub:
			for j := 0; j < in.n; j++ {
				if err := decodeProg(ms, in.sub, unsafe.Add(q, uintptr(j)*in.stride)); err != nil {
					return err
				}
			}
		case OpUnion:
			// An earlier run decoded the discriminant into the value.
			sub, err := selectArm(in.arms, *(*uint32)(q))
			if err != nil {
				return err
			}
			if err := decodeProg(ms, sub, p); err != nil {
				return err
			}
		case OpOptional:
			b, err := ms.Take(4)
			if err != nil {
				return err
			}
			pp := (*unsafe.Pointer)(q)
			if binary.BigEndian.Uint32(b) == 0 {
				*pp = nil
				break
			}
			if *pp == nil {
				*pp = reflect.New(in.ptrT).UnsafePointer()
			}
			if err := decodeProg(ms, in.sub, *pp); err != nil {
				return err
			}
		case OpChain:
			// A node the list held is decoded over, a fresh one taken once
			// the rest of its link can still arrive, and the link a 0 flag
			// ends is cleared.
			for pp := (*unsafe.Pointer)(q); ; {
				b, err := ms.Take(4)
				if err != nil {
					return err
				}
				if binary.BigEndian.Uint32(b) == 0 {
					*pp = nil
					break
				}
				if ms.Remaining() < in.wire {
					return xdr.ErrOverflow
				}
				if *pp == nil {
					*pp = reflect.New(in.ptrT).UnsafePointer()
				}
				if err := decodeProg(ms, in.sub, *pp); err != nil {
					return err
				}
				pp = (*unsafe.Pointer)(unsafe.Add(*pp, in.stride))
			}
		default:
			return errBadInstruction
		}
	}
	return nil
}

//specrpc:hotpath
func decCount(ms *xdr.MemStream, bound uint32) (int, error) {
	b, err := ms.Take(4)
	if err != nil {
		return 0, err
	}
	cnt := binary.BigEndian.Uint32(b)
	if cnt > bound {
		return 0, xdr.ErrTooBig
	}
	n := int(cnt)
	if n < 0 {
		return 0, xdr.ErrOverflow // a count no 32-bit host can hold
	}
	return n, nil
}

// getRun is putRun's inverse: it loads n units of run class o out of b —
// runWire(o, n) bytes the caller already bounds-checked — into dst.
//
//specrpc:hotpath
func getRun(b []byte, o Op, dst unsafe.Pointer, n int) {
	switch o {
	case OpUnits:
		getUnits32(unsafe.Slice((*uint32)(dst), n), b)
	case OpUnits8:
		getUnits64(unsafe.Slice((*uint64)(dst), n), b)
	case OpBools:
		for j := 0; j < n; j++ {
			*(*bool)(unsafe.Add(dst, j)) = binary.BigEndian.Uint32(b[4*j:]) != 0
		}
	case OpBytes:
		copy(unsafe.Slice((*byte)(dst), n), b)
	}
}

// ensureSlicePtrFree is ensureSlice for element types the compiler proved
// pointer-free (unit and bool runs): the backing array is allocated as
// raw 8-byte-aligned storage without reflection, keeping the hot decode
// path cheap. The slice header written is a valid header for the field's
// own (pointer-free) element type, so the GC tracks the backing array
// through the field as usual.
//
//specrpc:hotpath
func ensureSlicePtrFree(dst unsafe.Pointer, cnt int, stride uintptr) unsafe.Pointer {
	h := (*sliceHeader)(dst)
	if cnt <= h.cap {
		h.len = cnt
		return h.data
	}
	words := (uintptr(cnt)*stride + 7) / 8
	backing := make([]uint64, words)
	h.data, h.len, h.cap = unsafe.Pointer(&backing[0]), cnt, cnt
	return h.data
}
