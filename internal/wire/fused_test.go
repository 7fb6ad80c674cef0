package wire

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

func testCallTemplate(t *testing.T) *rpcmsg.CallTemplate {
	t.Helper()
	tmpl, err := rpcmsg.NewCallTemplate(0x20000532, 1, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// templatePlusPlan is the reference two-pass encoding the fused codec
// replaces: template copy, then the plan appending behind it.
func templatePlusPlan(t *testing.T, tmpl *rpcmsg.CallTemplate, p *Plan[everything], xid, proc uint32, v *everything) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	bs.SetBuffer(tmpl.AppendCall(nil, xid, proc))
	if err := p.Encode(xdr.NewEncoder(bs), v); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), bs.Buffer()...)
}

func TestCallPlanMatchesTemplatePlusPlan(t *testing.T) {
	tmpl := testCallTemplate(t)
	v := sampleEverything()
	p := MustPlan[everything](everythingType(), Specialized)
	cp, err := NewCallPlan(tmpl, 7, p)
	if err != nil {
		t.Fatal(err)
	}
	want := templatePlusPlan(t, tmpl, p, 99, 7, &v)
	bs := xdr.NewBufEncode(nil)
	if err := cp.AppendCall(bs, 99, &v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Buffer(), want) {
		t.Errorf("fused call differs from template+plan\n got %x\nwant %x", bs.Buffer(), want)
	}
}

func TestCallPlanVoidArgs(t *testing.T) {
	tmpl := testCallTemplate(t)
	cc, err := NewCallCodec(tmpl, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := xdr.NewBufEncode(nil)
	if err := cc.Append(bs, 42, nil); err != nil {
		t.Fatal(err)
	}
	if want := tmpl.AppendCall(nil, 42, 3); !bytes.Equal(bs.Buffer(), want) {
		t.Errorf("void call differs from template\n got %x\nwant %x", bs.Buffer(), want)
	}
}

func TestReplyPlanMatchesTemplatePlusPlan(t *testing.T) {
	rtmpl := rpcmsg.MustReplyTemplate(rpcmsg.None())
	v := sampleEverything()
	p := MustPlan[everything](everythingType(), Specialized)
	rp, err := NewReplyPlan(rtmpl, p)
	if err != nil {
		t.Fatal(err)
	}
	ref := xdr.NewBufEncode(nil)
	ref.SetBuffer(rtmpl.AppendReply(nil, 5))
	if err := p.Encode(xdr.NewEncoder(ref), &v); err != nil {
		t.Fatal(err)
	}
	bs := xdr.NewBufEncode(nil)
	if err := rp.AppendReply(bs, 5, &v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Buffer(), ref.Buffer()) {
		t.Errorf("fused reply differs from template+plan\n got %x\nwant %x", bs.Buffer(), ref.Buffer())
	}

	// The decode side recovers the value straight from the raw reply.
	var got everything
	handled, err := rp.DecodeReply(bs.Buffer(), &got)
	if !handled || err != nil {
		t.Fatalf("DecodeReply handled=%v err=%v", handled, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("decode mismatch\n got %+v\nwant %+v", got, v)
	}
}

func TestReplyPlanHeaderOnly(t *testing.T) {
	rtmpl := rpcmsg.MustReplyTemplate(rpcmsg.None())
	rc := NewReplyCodec(rtmpl, nil)
	bs := xdr.NewBufEncode(nil)
	if err := rc.AppendHeader(bs, 11); err != nil {
		t.Fatal(err)
	}
	if want := rtmpl.AppendReply(nil, 11); !bytes.Equal(bs.Buffer(), want) {
		t.Errorf("header-only reply differs\n got %x\nwant %x", bs.Buffer(), want)
	}
}

func TestReplyPlanRejectsNonSuccess(t *testing.T) {
	p := MustPlan[everything](everythingType(), Specialized)
	rp, err := NewReplyPlan(nil, p) // decode-only
	if err != nil {
		t.Fatal(err)
	}
	// An accepted-but-failed reply must not be decoded: handled=false
	// sends the caller to the generic walk for the failure detail.
	bs := xdr.NewBufEncode(nil)
	rh := rpcmsg.ErrorReply(9, rpcmsg.GarbageArgs)
	if err := rh.Marshal(xdr.NewEncoder(bs)); err != nil {
		t.Fatal(err)
	}
	var got everything
	if handled, err := rp.DecodeReply(bs.Buffer(), &got); handled || err != nil {
		t.Fatalf("error reply: handled=%v err=%v", handled, err)
	}
	if handled, err := rp.DecodeReply([]byte{1, 2}, &got); handled || err != nil {
		t.Fatalf("short reply: handled=%v err=%v", handled, err)
	}
	// Appending through a decode-only codec is a programming error.
	if err := rp.rc.AppendHeader(xdr.NewBufEncode(nil), 1); err == nil {
		t.Error("decode-only codec accepted AppendHeader")
	}
}

// TestCallPlanFixedFusion verifies the single-reservation property
// against the fused view of the program: a fully fixed-size argument is
// all prefix — it folds into the header's bounds check with nothing left
// for the instruction walker — and the prefix stops at the first
// variable-sized instruction, sharing the codec's program either way.
func TestCallPlanFixedFusion(t *testing.T) {
	type pair struct {
		A int32
		B int32
	}
	pt := StructT("pair", F("a", Int32T()), F("b", Int32T()))
	p := MustPlan[pair](pt, Specialized)
	cc, err := NewCallCodec(testCallTemplate(t), 1, p.Codec())
	if err != nil {
		t.Fatal(err)
	}
	if b := cc.body; b.nfixed != len(b.prog) || b.nfixed != 1 || b.fixedWire != 8 {
		t.Errorf("pair did not fuse into the header reservation: %+v", b)
	}

	type mid struct {
		A    int32
		Flag bool
		H    int64
		Name string
		Z    int32
	}
	mt := StructT("mid", F("a", Int32T()), F("flag", BoolT()), F("h", HyperT()),
		F("name", StringT(0)), F("z", Int32T()))
	mc := MustPlan[mid](mt, Specialized).Codec()
	mcc, err := NewCallCodec(testCallTemplate(t), 1, mc)
	if err != nil {
		t.Fatal(err)
	}
	b := mcc.body
	if len(b.prog) != 5 || &b.prog[0] != &mc.prog[0] {
		t.Fatalf("fused body is not a view of the codec's %d-instruction program: %+v", len(mc.prog), b)
	}
	if b.nfixed != 3 || b.fixedWire != 4+4+8 || b.prog[b.nfixed].op != OpString {
		t.Errorf("prefix = %d instructions / %d bytes, want 3 / 16 stopping at the string", b.nfixed, b.fixedWire)
	}
	v := mid{A: -1, Flag: true, H: 1 << 40, Name: "abcde", Z: 7}
	bs, ref := xdr.NewBufEncode(nil), xdr.NewBufEncode(nil)
	if err := mcc.Append(bs, 9, unsafe.Pointer(&v)); err != nil {
		t.Fatal(err)
	}
	ref.SetBuffer(testCallTemplate(t).AppendCall(nil, 9, 1))
	if err := mc.Encode(xdr.NewEncoder(ref), unsafe.Pointer(&v)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs.Buffer(), ref.Buffer()) {
		t.Errorf("fused call differs from template+plan\n got %x\nwant %x", bs.Buffer(), ref.Buffer())
	}
}

// TestFusedEncodeAllocFree pins the whole fused path at zero
// allocations per operation once buffers are warm: one call encode, one
// reply encode, one reply decode.
func TestFusedEncodeAllocFree(t *testing.T) {
	tmpl := testCallTemplate(t)
	rtmpl := rpcmsg.MustReplyTemplate(rpcmsg.None())
	v := sampleEverything()
	p := MustPlan[everything](everythingType(), Specialized)
	cp, err := NewCallPlan(tmpl, 7, p)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplyPlan(rtmpl, p)
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 0, 4096)
	bs := xdr.NewBufEncode(buf)
	if n := testing.AllocsPerRun(200, func() {
		bs.SetBuffer(buf[:0])
		if err := cp.AppendCall(bs, 3, &v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused call encode: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(200, func() {
		bs.SetBuffer(buf[:0])
		if err := rp.AppendReply(bs, 3, &v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused reply encode: %v allocs/op, want 0", n)
	}

	bs.SetBuffer(buf[:0])
	if err := rp.AppendReply(bs, 3, &v); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), bs.Buffer()...)
	// Decode into a value whose slices already have the decoded shape,
	// so backing arrays are reused: the decode-side steady state of an
	// echo workload. String fields are the one irreducible cost — Go
	// strings are immutable, so every decode mints them fresh; this
	// type carries four (Name plus three Words).
	got := sampleEverything()
	if n := testing.AllocsPerRun(200, func() {
		handled, err := rp.DecodeReply(raw, &got)
		if !handled || err != nil {
			t.Fatal(handled, err)
		}
	}); n > 4 {
		t.Errorf("fused reply decode: %v allocs/op, want the 4 string mints only", n)
	}

	// A pointer-free result type — the live benchmark's int-array echo —
	// decodes with no allocations at all.
	ints := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	ip := MustPlan[[]int32](VarArrayT(0, Int32T()), Specialized)
	irp, err := NewReplyPlan(rtmpl, ip)
	if err != nil {
		t.Fatal(err)
	}
	bs.SetBuffer(buf[:0])
	if err := irp.AppendReply(bs, 4, &ints); err != nil {
		t.Fatal(err)
	}
	iraw := append([]byte(nil), bs.Buffer()...)
	igot := make([]int32, len(ints))
	if n := testing.AllocsPerRun(200, func() {
		handled, err := irp.DecodeReply(iraw, &igot)
		if !handled || err != nil {
			t.Fatal(handled, err)
		}
	}); n != 0 {
		t.Errorf("fused int-array decode: %v allocs/op, want 0", n)
	}
}
