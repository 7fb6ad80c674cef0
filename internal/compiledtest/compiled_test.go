package compiledtest

// Differential checks for the rpcgen-emitted compiled codecs: across
// random identities, XIDs, and values covering every wire kind the
// emitter handles, the straight-line routines must produce exactly the
// bytes of the fused whole-call codec AND the generic plan walker, and
// their decoder must agree with the plan executor on arbitrary (often
// hostile) body bytes — same accept/reject decision, same value on
// accept. These are the guarantees that let the client and server
// swap a compiled codec in for the interpreter sight unseen.
//
// The file doubles as the CI genstubs differential: the Makefile
// regenerates stubs.go from rich.x into a scratch package, copies this
// test alongside, and runs it there.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/testutil"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// genericSample is the interpretive tree-walker over the generated
// description, the third decoder of the hostile-count leg; fusedSample
// is a second specialized plan over it with nothing registered, which
// is what puts the fused reference codecs on the fused rung.
var (
	genericSample = wire.MustPlan[Sample](wireTypeSample, wire.Generic)
	fusedSample   = wire.MustPlan[Sample](wireTypeSample, wire.Specialized)
)

// sampleCodecs builds the whole-message codecs of one Sample plan and
// fails unless the constructors put all three on the rung named.
func sampleCodecs(t testing.TB, ctmpl *rpcmsg.CallTemplate, rtmpl *rpcmsg.ReplyTemplate, proc uint32,
	p *wire.Plan[Sample], want wire.Rung) (*wire.CallCodec, *wire.ReplyCodec) {
	t.Helper()
	cc, err := wire.NewCallCodec(ctmpl, proc, p.Codec())
	if err != nil {
		t.Fatal(err)
	}
	rc := wire.NewReplyCodec(rtmpl, p.Codec())
	if cc.Rung() != want || rc.Rung() != want {
		t.Fatalf("call codec on the %v rung, reply codec on the %v rung; want %v", cc.Rung(), rc.Rung(), want)
	}
	return cc, rc
}

// fuzzSample derives a kitchen-sink Sample from the fuzzer's raw bytes,
// clamping every variable-size field to its wire bound so the encoders
// are exercised on values the bounds admit. Deterministic, so a crash
// reproduces from its corpus entry.
func fuzzSample(a int32, h int64, flag bool, name string, raw []byte) Sample {
	take := func(n int) []byte {
		if len(raw) < n {
			n = len(raw)
		}
		b := raw[:n]
		raw = raw[n:]
		return b
	}
	ints := func(n int) []int32 {
		b := take(n * 4)
		out := make([]int32, len(b)/4)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out
	}
	if len(name) > 32 {
		name = name[:32]
	}
	v := Sample{
		A: a, B: uint32(a) ^ 0x5a5a5a5a, Flag: flag,
		F: float32(a) / 3, D: float64(h) / 5, H: h, Uh: uint64(h) * 7,
		Kind: Color(a & 3), Name: name,
	}
	copy(v.Tag[:], take(10))
	v.At = Point{X: a ^ 1, Y: a ^ 2}
	v.Corners = [3]Point{{a, int32(h)}, {int32(h >> 32), a}, {^a, -a}}
	copy(v.Window[:], ints(5))
	v.Data = append([]byte(nil), take(64)...)
	v.Nums = Numbers(ints(20))
	v.Payload = Blob(append([]byte(nil), take(100)...))
	for _, p := range ints(7) {
		v.Pts = append(v.Pts, Point{X: p, Y: ^p})
	}
	for i, b := range take(4) {
		s := name
		if len(s) > 16 {
			s = s[:16]
		}
		if len(s) > i*4 {
			s = s[:i*4]
		}
		v.Words = append(v.Words, Word(s))
		v.Bits = append(v.Bits, b&1 == 1)
	}
	return v
}

// FuzzCompiledCodec: the three marshaling engines — generic plan
// walker, fused whole-message codec, compiled straight-line routine —
// must be byte-identical on the wire for calls and replies, the
// compiled decoder must agree with the plan executor on arbitrary
// bodies, and no decoder may allocate on the word of a count alone.
func FuzzCompiledCodec(f *testing.F) {
	f.Add(uint32(1), uint32(0x20000100), uint32(2), uint32(4),
		int32(rpcmsg.AuthNone), []byte{}, int32(5), int64(-9), true, "hello", []byte{1, 2, 3, 4, 5})
	f.Add(uint32(0xffffffff), uint32(0), uint32(9), uint32(0),
		int32(rpcmsg.AuthSys), []byte{1, 2, 3}, int32(-1), int64(1)<<40, false, "", make([]byte, 300))
	// A body whose nums count is the full bound with one element behind it.
	hostile := append(make([]byte, 108+4+4), 0, 0, 0x07, 0xd0, 0, 0, 0, 1)
	f.Add(uint32(7), uint32(0x20000100), uint32(2), uint32(4),
		int32(rpcmsg.AuthNone), []byte{}, int32(1), int64(2), true, "x", hostile)
	// lookup_result bodies: a shape whose Next flag is 2 (any nonzero
	// flag means "follows"), and a discriminant only the default arm
	// takes.
	shape := binary.BigEndian.AppendUint32(make([]byte, 4+36), 3)
	shape = append(shape, 't', 'r', 'i', 0, 0, 0, 0, 2, 0, 0, 0, 7, 0xff, 0xff, 0xff, 0xf8)
	shape = append(shape, make([]byte, 20)...)
	f.Add(uint32(8), uint32(0x20000100), uint32(2), uint32(1),
		int32(rpcmsg.AuthNone), []byte{}, int32(4), int64(-3), true, "tri", shape)
	f.Add(uint32(9), uint32(0x20000100), uint32(2), uint32(1),
		int32(rpcmsg.AuthNone), []byte{}, int32(-5), int64(3), false, "", []byte{0x80, 0, 0, 0})

	f.Fuzz(func(t *testing.T, xid, prog, vers, proc uint32,
		credFlavor int32, credBody []byte, a int32, h int64, flag bool, name string, raw []byte) {
		cred := rpcmsg.OpaqueAuth{Flavor: rpcmsg.AuthFlavor(credFlavor), Body: credBody}
		ctmpl, err := rpcmsg.NewCallTemplate(prog, vers, cred, rpcmsg.None())
		if err != nil {
			t.Skip() // auth the generic encoder also rejects: no template, no codecs
		}
		rtmpl, err := rpcmsg.NewReplyTemplate(cred)
		if err != nil {
			t.Skip()
		}
		v := fuzzSample(a, h, flag, name, raw)

		// Call side: generic walker vs fused vs compiled.
		ref := xdr.NewBufEncode(nil)
		ref.SetBuffer(ctmpl.AppendCall(nil, xid, proc))
		if err := planSample.Encode(xdr.NewEncoder(ref), &v); err != nil {
			t.Fatalf("reference encode: %v", err)
		}
		fc, frc := sampleCodecs(t, ctmpl, rtmpl, proc, fusedSample, wire.RungFused)
		fb := xdr.NewBufEncode(nil)
		if err := fc.Append(fb, xid, unsafe.Pointer(&v)); err != nil {
			t.Fatalf("fused encode: %v", err)
		}
		cc, rc := sampleCodecs(t, ctmpl, rtmpl, proc, planSample, wire.RungCompiled)
		cb := xdr.NewBufEncode(nil)
		if err := cc.Append(cb, xid, unsafe.Pointer(&v)); err != nil {
			t.Fatalf("compiled encode: %v", err)
		}
		if !bytes.Equal(fb.Buffer(), ref.Buffer()) {
			t.Fatalf("fused call differs from walker\n got %x\nwant %x", fb.Buffer(), ref.Buffer())
		}
		if !bytes.Equal(cb.Buffer(), ref.Buffer()) {
			t.Fatalf("compiled call differs from walker\n got %x\nwant %x", cb.Buffer(), ref.Buffer())
		}

		// Reply side: same three engines under the success header.
		rref := xdr.NewBufEncode(nil)
		rref.SetBuffer(rtmpl.AppendReply(nil, xid))
		if err := planSample.Encode(xdr.NewEncoder(rref), &v); err != nil {
			t.Fatalf("reference reply encode: %v", err)
		}
		for name, codec := range map[string]*wire.ReplyCodec{"fused": frc, "compiled": rc} {
			rb := xdr.NewBufEncode(nil)
			if err := codec.Append(rb, xid, unsafe.Pointer(&v)); err != nil {
				t.Fatalf("%s reply encode: %v", name, err)
			}
			if !bytes.Equal(rb.Buffer(), rref.Buffer()) {
				t.Fatalf("%s reply differs from walker\n got %x\nwant %x", name, rb.Buffer(), rref.Buffer())
			}
		}

		// Compiled reply decode recovers the value the walker encoded.
		var got Sample
		handled, err := rc.DecodeReply(rref.Buffer(), unsafe.Pointer(&got))
		if !handled || err != nil {
			t.Fatalf("compiled DecodeReply handled=%v err=%v", handled, err)
		}
		re := xdr.NewBufEncode(nil)
		if err := planSample.Encode(xdr.NewEncoder(re), &got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re.Buffer(), rref.Buffer()[rtmpl.Len():]) {
			t.Fatalf("compiled-decoded value re-encodes differently")
		}
		checkCarved[Sample](t, planSample.Codec().BodyDecoder(), rref.Buffer()[rtmpl.Len():])
		checkCarved[Sample](t, planSample.Codec().BodyDecoder(), raw)

		// Decode differential on arbitrary body bytes: the plan executor
		// and the compiled decoder must make the same accept/reject
		// decision, and on accept produce the same value — including
		// nil-vs-empty slice identity and buffer-reuse behavior, which is
		// why each decoder runs twice into the same target.
		body := raw
		var pv, cv Sample
		decode := planSample.Codec().BodyDecoder()
		var perr error
		for pass := 0; pass < 2; pass++ {
			perr = planSample.Codec().DecodeBody(body, unsafe.Pointer(&pv))
			cerr := decode(body, unsafe.Pointer(&cv))
			if (perr == nil) != (cerr == nil) {
				t.Fatalf("pass %d: decode disagreement: plan=%v compiled=%v", pass, perr, cerr)
			}
			if perr == nil && !reflect.DeepEqual(pv, cv) {
				t.Fatalf("pass %d: decoded values differ\nplan:     %+v\ncompiled: %+v", pass, pv, cv)
			}
		}

		// Unions and optional data: shape and lookup_result against the
		// closures rpcgen generated for them before they had plans.
		lr := fuzzLookup(a, h, flag, name)
		other := fuzzLookup(^a, -h, !flag, name[len(name)/2:])
		checkAgainstClosure(t, ctmpl, rtmpl, xid, lookupEngines(), closureLookupResult, &lr, &other, body)
		checkAgainstClosure(t, ctmpl, rtmpl, xid, shapeEngines(), closureShape, &lr.S, &other.S, body)

		// Hostile counts: on a body every engine rejects, none allocated
		// more than a constant times the body's length — a count is paid
		// for only once the bytes behind it are known to be there (the
		// allocation rule beside wire's ensureSlice).
		engines := map[string]func(v *Sample) error{
			"generic":  func(v *Sample) error { return genericSample.Codec().DecodeBody(body, unsafe.Pointer(v)) },
			"plan":     func(v *Sample) error { return planSample.Codec().DecodeBody(body, unsafe.Pointer(v)) },
			"compiled": func(v *Sample) error { return decode(body, unsafe.Pointer(v)) },
		}
		for name, dec := range engines {
			var err error
			got := testutil.AllocBytes(func() {
				var fresh Sample
				err = dec(&fresh)
			})
			if (err == nil) != (perr == nil) {
				t.Fatalf("%s decode into a fresh value: %v; the plan executor into a used one: %v", name, err, perr)
			}
			if err != nil && got > 4096+8*uint64(len(body)) {
				t.Fatalf("%s decode allocated %d bytes rejecting a %d-byte body", name, got, len(body))
			}
		}

		// Reused destination: a server decodes every call of a procedure
		// into one value, so two different messages go into one target,
		// shorter after longer and longer after shorter. Both engines
		// must leave exactly what a decode into a fresh value leaves — no
		// stale tail, no stale element — up to the one defined difference:
		// a backing array is kept, so a zero count against a field that
		// held something leaves it empty, not nil (a nil field stays nil).
		w := fuzzSample(^a, -h, !flag, name[:len(name)/2], raw[len(raw)/2:])
		var msgs [2][]byte
		var fresh [2]Sample
		for i, val := range []*Sample{&v, &w} {
			e := xdr.NewBufEncode(nil)
			if err := planSample.Encode(xdr.NewEncoder(e), val); err != nil {
				t.Fatalf("encode message %d: %v", i, err)
			}
			msgs[i] = e.Buffer()
			if err := planSample.Codec().DecodeBody(msgs[i], unsafe.Pointer(&fresh[i])); err != nil {
				t.Fatalf("decode message %d: %v", i, err)
			}
		}
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			var pr, cr Sample
			for _, i := range order {
				if err := planSample.Codec().DecodeBody(msgs[i], unsafe.Pointer(&pr)); err != nil {
					t.Fatalf("plan decode of message %d into a used value: %v", i, err)
				}
				if err := decode(msgs[i], unsafe.Pointer(&cr)); err != nil {
					t.Fatalf("compiled decode of message %d into a used value: %v", i, err)
				}
			}
			want := expectReused(fresh[order[0]], fresh[order[1]])
			if !reflect.DeepEqual(pr, want) {
				t.Fatalf("plan decode into a used value\n got %+v\nwant %+v", pr, want)
			}
			if !reflect.DeepEqual(cr, want) {
				t.Fatalf("compiled decode into a used value\n got %+v\nwant %+v", cr, want)
			}
		}
	})
}

// checkCarved decodes body into a fresh value, when the decoder
// accepts it, and holds the value to testutil.CheckCarved: the parts
// the compiled decoder carves from one slab have cap == len, are
// aligned, and do not overlap each other or a string.
func checkCarved[T any](t *testing.T, decode func([]byte, unsafe.Pointer) error, body []byte) {
	t.Helper()
	var fresh T
	if decode(body, unsafe.Pointer(&fresh)) != nil {
		return
	}
	if err := testutil.CheckCarved(&fresh); err != nil {
		t.Fatalf("decode of %x: %v", body, err)
	}
}

// expectReused is what decoding a message over prior must leave, given
// what it leaves in a fresh value: the same, except that a slice field
// the message leaves empty keeps prior's backing array — non-nil where
// prior's was.
func expectReused(prior, fresh Sample) Sample {
	pv, fv := reflect.ValueOf(&prior).Elem(), reflect.ValueOf(&fresh).Elem()
	for i := 0; i < fv.NumField(); i++ {
		if f := fv.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 && !pv.Field(i).IsNil() {
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		}
	}
	return fresh
}

// mixArg is a Mix argument with every variable-length field filled, the
// shape of the repo benchmark's Mix op.
func mixArg() *Sample {
	v := fuzzSample(7, -12345, true, "a name of some length", bytes.Repeat([]byte{0xa5, 3, 9}, 100))
	v.Words = []Word{"w", "two", "three", "four4"}
	v.Bits = []bool{true, false, true}
	return &v
}

// TestSlabHostileBodies feeds the decoders of sample and lookup_result
// bodies whose counts pass their bounds but overrun the body: every
// truncation of a full message — among them a words count whose
// elements are cut short — and the message with one 4-byte unit
// replaced by a count at a declared bound. On each body the walker
// refuses with ErrOverflow, the fused interpreter and the compiled
// decoder refuse with the same error, the compiled decoder's pre-pass
// sizes no slab, and its decode allocates no more than the body could
// fill: an array header of four strings (64 bytes) and each part at
// twice its wire size, for the allocator's rounding.
func TestSlabHostileBodies(t *testing.T) {
	lr := fuzzLookup(0, 5, true, "a label")
	checkHostile(t, []rungPlan[Sample]{
		{"generic", genericSample, wire.RungGeneric},
		{"fused", fusedSample, wire.RungFused},
		{"compiled", planSample, wire.RungCompiled},
	}, mixArg(), compiledSlabSample, []uint32{32, 64, 2000, 1024, 7, 4, 16, 8})
	checkHostile(t, lookupEngines(), &lr, compiledSlabLookupResult, []uint32{255, 1})
}

func checkHostile[T any](t *testing.T, engines []rungPlan[T], v *T, slab func([]byte, *T) int, bounds []uint32) {
	t.Helper()
	e := xdr.NewBufEncode(nil)
	if err := engines[0].plan.Encode(xdr.NewEncoder(e), v); err != nil {
		t.Fatal(err)
	}
	full := e.Buffer()
	var bodies [][]byte
	for k := range full {
		bodies = append(bodies, full[:k])
	}
	for at := 0; at+4 <= len(full); at += 4 {
		for _, n := range bounds {
			b := bytes.Clone(full)
			binary.BigEndian.PutUint32(b[at:], n)
			bodies = append(bodies, b)
		}
	}
	tested := 0
	for _, body := range bodies {
		var ref T
		if err := engines[0].plan.Codec().DecodeBody(body, unsafe.Pointer(&ref)); !errors.Is(err, xdr.ErrOverflow) {
			continue // not an overrun: the count landed on no count, or fits
		}
		tested++
		for _, en := range engines[1:] {
			var got T
			if err := en.plan.Codec().BodyDecoder()(body, unsafe.Pointer(&got)); !errors.Is(err, xdr.ErrOverflow) {
				t.Fatalf("%s decode of %x: %v, want %v as the walker", en.name, body, err, xdr.ErrOverflow)
			}
		}
		var fresh T
		if n := slab(body, &fresh); n != 0 {
			t.Fatalf("pre-pass of %x sizes a slab of %d bytes", body, n)
		}
		if n := slab(body, v); n != 0 {
			t.Fatalf("pre-pass of %x over a used value sizes a slab of %d bytes", body, n)
		}
		decode := engines[2].plan.Codec().BodyDecoder()
		into := new(T)
		got := testutil.AllocBytes(func() {
			*into = fresh
			_ = decode(body, unsafe.Pointer(into))
		})
		if limit := 64 + 2*uint64(len(body)); got > limit {
			t.Fatalf("compiled decode of a %d-byte body it refuses allocated %d bytes, more than %d", len(body), got, limit)
		}
	}
	if tested < len(full) {
		t.Fatalf("only %d overrunning bodies out of %d", tested, len(bodies))
	}
}

// TestCompiledRegistered pins that every plan the generator emitted a
// compiled routine for actually carries one — the silent failure mode
// would be running on the interpreter forever — and that the routines
// belong to that plan alone: a second plan over the same description is
// served by the fused interpreter.
func TestCompiledRegistered(t *testing.T) {
	tmpl, err := rpcmsg.NewCallTemplate(0x20000100, 2, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		t.Fatal(err)
	}
	rungs := func(c *wire.Codec) [2]wire.Rung {
		cc, err := wire.NewCallCodec(tmpl, 4, c)
		if err != nil {
			t.Fatal(err)
		}
		return [2]wire.Rung{cc.Rung(), wire.NewReplyCodec(nil, c).Rung()}
	}
	for name, c := range map[string]*wire.Codec{
		"planPoint":             planPoint.Codec(),
		"planSample":            planSample.Codec(),
		"planNumbers":           planNumbers.Codec(),
		"planBlob":              planBlob.Codec(),
		"planWord":              planWord.Codec(),
		"planShapeProgV2SumRes": planShapeProgV2SumRes.Codec(),
	} {
		if got := rungs(c); got != [2]wire.Rung{wire.RungCompiled, wire.RungCompiled} {
			t.Errorf("%s: call and reply codecs on the %v rungs, want compiled", name, got)
		}
	}
	if got := rungs(fusedSample.Codec()); got != [2]wire.Rung{wire.RungFused, wire.RungFused} {
		t.Errorf("a fresh plan over wireTypeSample: call and reply codecs on the %v rungs, want fused", got)
	}
}

// TestCompiledAllocs pins the hot-path allocation story: once the
// output buffer has grown to size and the target's slices match the
// incoming counts, a compiled append and a compiled decode run
// allocation-free. A value with non-empty strings must allocate on
// decode — strings are immutable — but only once: its name and every
// word share one slab.
func TestCompiledAllocs(t *testing.T) {
	tmpl, err := rpcmsg.NewCallTemplate(0x20000100, 2, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := sampleCodecs(t, tmpl, nil, 4, planSample, wire.RungCompiled)
	decode := planSample.Codec().BodyDecoder()
	v := fuzzSample(7, -12345, true, "", bytes.Repeat([]byte{0xa5}, 300))
	v.Name = ""
	for i := range v.Words {
		v.Words[i] = ""
	}
	bs := xdr.NewBufEncode(nil)
	if err := cc.Append(bs, 99, unsafe.Pointer(&v)); err != nil {
		t.Fatal(err)
	}
	buf := bs.Buffer()
	if n := testing.AllocsPerRun(100, func() {
		bs.SetBuffer(buf[:0])
		if err := cc.Append(bs, 99, unsafe.Pointer(&v)); err != nil {
			t.Fatal(err)
		}
		buf = bs.Buffer()
	}); n != 0 {
		t.Errorf("compiled append: %v allocs/op, want 0", n)
	}

	body := buf[tmpl.Len():]
	var got Sample
	if err := decode(body, unsafe.Pointer(&got)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := decode(body, unsafe.Pointer(&got)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("compiled decode: %v allocs/op, want 0", n)
	}

	v.Name = "a name"
	v.Words = []Word{"one", "", "three"}
	bs.SetBuffer(buf[:0])
	if err := cc.Append(bs, 99, unsafe.Pointer(&v)); err != nil {
		t.Fatal(err)
	}
	body = bs.Buffer()[tmpl.Len():]
	if err := decode(body, unsafe.Pointer(&got)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := decode(body, unsafe.Pointer(&got)); err != nil {
			t.Fatal(err)
		}
	}); n != 1 || got.Name != v.Name || len(got.Words) != 3 || got.Words[2] != "three" {
		t.Errorf("compiled decode over a value, non-empty strings: %v allocs/op, want 1", n)
	}
}

// closureShape and closureLookupResult are the marshalers rpcgen
// generated for shape and lookup_result while unions and optional data
// had no plan: the xdr closures every rung must accept, reject and
// produce exactly as.
func closureShape(x *xdr.XDR, v *Shape) error {
	if err := v.Kind.Marshal(x); err != nil {
		return err
	}
	if err := xdr.Vector(x, v.Corners[:], func(x *xdr.XDR, v *Point) error { return v.Marshal(x) }); err != nil {
		return err
	}
	if err := x.String(&v.Label, 255); err != nil {
		return err
	}
	if err := xdr.Optional(x, &v.Next, func(x *xdr.XDR, v *Point) error { return v.Marshal(x) }); err != nil {
		return err
	}
	if err := x.Uint64(&v.Stamp); err != nil {
		return err
	}
	if err := x.Float64(&v.Weight); err != nil {
		return err
	}
	return x.Bool(&v.Visible)
}

func closureLookupResult(x *xdr.XDR, v *LookupResult) error {
	d := int32(v.Status)
	if err := x.Enum(&d); err != nil {
		return err
	}
	v.Status = int32(d)
	switch d {
	case 0:
		return closureShape(x, &v.S)
	case 1, 2:
		return x.Long(&v.ErrnoVal)
	default:
		return nil
	}
}

// rungPlan is one engine over a root type: a plan and the rung its
// whole-message codecs must land on.
type rungPlan[T any] struct {
	name string
	plan *wire.Plan[T]
	rung wire.Rung
}

// lookupEngines and shapeEngines are the three rungs over the two
// types: the walker, a second specialized plan with nothing registered,
// and the package plan carrying the emitted routines.
func lookupEngines() []rungPlan[LookupResult] {
	return []rungPlan[LookupResult]{
		{"generic", wire.MustPlan[LookupResult](wireTypeLookupResult, wire.Generic), wire.RungGeneric},
		{"fused", wire.MustPlan[LookupResult](wireTypeLookupResult, wire.Specialized), wire.RungFused},
		{"compiled", planLookupResult, wire.RungCompiled},
	}
}

func shapeEngines() []rungPlan[Shape] {
	return []rungPlan[Shape]{
		{"generic", wire.MustPlan[Shape](wireTypeShape, wire.Generic), wire.RungGeneric},
		{"fused", wire.MustPlan[Shape](wireTypeShape, wire.Specialized), wire.RungFused},
		{"compiled", planShape, wire.RungCompiled},
	}
}

// fuzzLookup derives a lookup_result on any arm: a%4 is 0 (a shape,
// with Next set when flag is), 1 or 2 (an errno), or negative or 3, a
// discriminant only the void default arm takes.
func fuzzLookup(a int32, h int64, flag bool, name string) LookupResult {
	lr := LookupResult{Status: a % 4}
	switch lr.Status {
	case 0:
		if len(name) > 255 {
			name = name[:255]
		}
		lr.S = Shape{Kind: Color(a >> 2), Label: name, Stamp: uint64(h), Weight: float64(h) / 7, Visible: flag}
		for i := range lr.S.Corners {
			lr.S.Corners[i] = Point{X: a + int32(i), Y: int32(h) - int32(i)}
		}
		if flag {
			lr.S.Next = &Point{X: a, Y: int32(h >> 32)}
		}
	case 1, 2:
		lr.ErrnoVal = int32(h)
	}
	return lr
}

// checkAgainstClosure holds every rung of a type to its closure: the
// same call and reply bytes for v, the same verdict and value decoding
// body into a fresh destination and into one that held v, and on two
// messages decoded into one destination, in both orders, the same value
// — arms and pointees the later message leaves alone included.
func checkAgainstClosure[T any](t *testing.T, ctmpl *rpcmsg.CallTemplate, rtmpl *rpcmsg.ReplyTemplate, xid uint32,
	engines []rungPlan[T], closure func(*xdr.XDR, *T) error, v, other *T, body []byte) {
	t.Helper()
	encode := func(v *T) []byte {
		b := xdr.NewBufEncode(nil)
		if err := closure(xdr.NewEncoder(b), v); err != nil {
			t.Fatalf("closure encode: %v", err)
		}
		return b.Buffer()
	}
	decode := func(body []byte, v *T) error {
		return closure(xdr.NewDecoder(xdr.NewMemDecode(body)), v)
	}
	want := encode(v)
	for _, en := range engines {
		cc, err := wire.NewCallCodec(ctmpl, 1, en.plan.Codec())
		if err != nil {
			t.Fatal(err)
		}
		rc := wire.NewReplyCodec(rtmpl, en.plan.Codec())
		if cc.Rung() != en.rung || rc.Rung() != en.rung {
			t.Fatalf("%s: call codec on the %v rung, reply codec on the %v rung", en.name, cc.Rung(), rc.Rung())
		}
		cb, rb := xdr.NewBufEncode(nil), xdr.NewBufEncode(nil)
		if err := cc.Append(cb, xid, unsafe.Pointer(v)); err != nil {
			t.Fatalf("%s call encode: %v", en.name, err)
		}
		if err := rc.Append(rb, xid, unsafe.Pointer(v)); err != nil {
			t.Fatalf("%s reply encode: %v", en.name, err)
		}
		if !bytes.Equal(cb.Buffer()[ctmpl.Len():], want) || !bytes.Equal(rb.Buffer()[rtmpl.Len():], want) {
			t.Fatalf("%s bytes differ from the closure's\ncall  %x\nreply %x\nwant  %x",
				en.name, cb.Buffer()[ctmpl.Len():], rb.Buffer()[rtmpl.Len():], want)
		}
	}
	msgs := [2][]byte{want, encode(other)}
	for _, used := range []bool{false, true} {
		// Into a fresh destination, then into one the first message
		// filled.
		var ref T
		if used {
			if err := decode(msgs[0], &ref); err != nil {
				t.Fatalf("closure decode of a good message: %v", err)
			}
		}
		werr := decode(body, &ref)
		for _, en := range engines {
			var got T
			if used {
				if err := en.plan.Codec().BodyDecoder()(msgs[0], unsafe.Pointer(&got)); err != nil {
					t.Fatalf("%s decode of a good message: %v", en.name, err)
				}
			}
			err := en.plan.Codec().BodyDecoder()(body, unsafe.Pointer(&got))
			if (err == nil) != (werr == nil) || !errors.Is(err, werr) {
				t.Fatalf("%s decode: %v, closure %v", en.name, err, werr)
			}
			if err == nil && !testutil.Same(got, ref) {
				t.Fatalf("%s decoded %s, closure %s", en.name, testutil.Show(got), testutil.Show(ref))
			}
			if !used {
				checkCarved[T](t, en.plan.Codec().BodyDecoder(), body)
				checkCarved[T](t, en.plan.Codec().BodyDecoder(), want)
			}
		}
	}
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		var ref T
		for _, m := range order {
			if err := decode(msgs[m], &ref); err != nil {
				t.Fatalf("closure decode of message %d: %v", m, err)
			}
		}
		for _, en := range engines {
			var got T
			for _, m := range order {
				if err := en.plan.Codec().BodyDecoder()(msgs[m], unsafe.Pointer(&got)); err != nil {
					t.Fatalf("%s decode of message %d into a used value: %v", en.name, m, err)
				}
			}
			if !testutil.Same(got, ref) {
				t.Fatalf("%s decode into a used value\n got %s\nwant %s", en.name, testutil.Show(got), testutil.Show(ref))
			}
		}
	}
}

// BenchmarkSampleDecode times the compiled decode of the repo
// benchmark's Mix argument into a fresh value, as a client decodes its
// result, and over a used one, as a server decodes its argument.
func BenchmarkSampleDecode(b *testing.B) {
	w := xdr.NewBufEncode(nil)
	if err := planSample.Encode(xdr.NewEncoder(w), mixArg()); err != nil {
		b.Fatal(err)
	}
	body := w.Buffer()
	decode := planSample.Codec().BodyDecoder()
	for _, fresh := range []bool{true, false} {
		b.Run(map[bool]string{true: "fresh", false: "over"}[fresh], func(b *testing.B) {
			b.ReportAllocs()
			into := new(Sample)
			for i := 0; i < b.N; i++ {
				if fresh {
					*into = Sample{}
				}
				if err := decode(body, unsafe.Pointer(into)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
