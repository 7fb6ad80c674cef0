package xdr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func encodeBuf(t *testing.T, size int, fn func(x *XDR) error) []byte {
	t.Helper()
	buf := make([]byte, size)
	m := NewMemEncode(buf)
	x := NewEncoder(m)
	if err := fn(x); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return m.Buffer()
}

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{Encode, "XDR_ENCODE"},
		{Decode, "XDR_DECODE"},
		{Free, "XDR_FREE"},
		{Op(0), "XDR_INVALID"},
		{Op(42), "XDR_INVALID"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Op(%d).String() = %q, want %q", tt.op, got, tt.want)
		}
	}
}

func TestLongWireFormat(t *testing.T) {
	// XDR integers are big-endian; this is the htonl micro-layer.
	got := encodeBuf(t, 8, func(x *XDR) error {
		v := int32(0x01020304)
		return x.Long(&v)
	})
	want := []byte{1, 2, 3, 4}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire = %v, want %v", got, want)
	}
}

func TestLongNegativeWireFormat(t *testing.T) {
	got := encodeBuf(t, 8, func(x *XDR) error {
		v := int32(-2)
		return x.Long(&v)
	})
	want := []byte{0xff, 0xff, 0xff, 0xfe}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire = %v, want %v", got, want)
	}
}

func TestLongRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		buf := make([]byte, 4)
		enc := NewEncoder(NewMemEncode(buf))
		if err := enc.Long(&v); err != nil {
			return false
		}
		var got int32
		dec := NewDecoder(NewMemDecode(buf))
		if err := dec.Long(&got); err != nil {
			return false
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHyperRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		buf := make([]byte, 8)
		enc := NewEncoder(NewMemEncode(buf))
		if err := enc.Hyper(&v); err != nil {
			return false
		}
		var got int64
		dec := NewDecoder(NewMemDecode(buf))
		if err := dec.Hyper(&got); err != nil {
			return false
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalarRoundTrips(t *testing.T) {
	buf := make([]byte, 256)
	type payload struct {
		i   int
		u   uint32
		b   bool
		e   int32
		h   int64
		u64 uint64
		f32 float32
		f64 float64
		s   string
		by  []byte
	}
	in := payload{
		i: -7, u: 0xdeadbeef, b: true, e: 3, h: -1 << 40, u64: 1<<63 + 5,
		f32: 3.25, f64: -2.5e10, s: "hello xdr", by: []byte{9, 8, 7},
	}
	marshal := func(x *XDR, p *payload) error {
		if err := x.Int(&p.i); err != nil {
			return err
		}
		if err := x.Uint32(&p.u); err != nil {
			return err
		}
		if err := x.Bool(&p.b); err != nil {
			return err
		}
		if err := x.Enum(&p.e); err != nil {
			return err
		}
		if err := x.Hyper(&p.h); err != nil {
			return err
		}
		if err := x.Uint64(&p.u64); err != nil {
			return err
		}
		if err := x.Float32(&p.f32); err != nil {
			return err
		}
		if err := x.Float64(&p.f64); err != nil {
			return err
		}
		if err := x.String(&p.s, 64); err != nil {
			return err
		}
		return x.Bytes(&p.by, 64)
	}
	m := NewMemEncode(buf)
	if err := marshal(NewEncoder(m), &in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out payload
	if err := marshal(NewDecoder(NewMemDecode(m.Buffer())), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.i != in.i || out.u != in.u || out.b != in.b || out.e != in.e ||
		out.h != in.h || out.u64 != in.u64 || out.f32 != in.f32 ||
		out.f64 != in.f64 || out.s != in.s || !bytes.Equal(out.by, in.by) {
		t.Fatalf("round trip mismatch: got %+v want %+v", out, in)
	}
}

func TestStringPadding(t *testing.T) {
	// "abcde" = count 5 + 5 bytes + 3 pad = 12 bytes total.
	got := encodeBuf(t, 32, func(x *XDR) error {
		s := "abcde"
		return x.String(&s, 16)
	})
	if len(got) != 12 {
		t.Fatalf("encoded length = %d, want 12", len(got))
	}
	if got[9] != 0 || got[10] != 0 || got[11] != 0 {
		t.Fatalf("padding not zeroed: %v", got)
	}
}

func TestStringTooBig(t *testing.T) {
	buf := make([]byte, 64)
	s := "too long for the declared bound"
	err := NewEncoder(NewMemEncode(buf)).String(&s, 4)
	if !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
	// Decoding a forged oversized count must fail too.
	m := NewMemEncode(buf)
	n := uint32(1 << 20)
	if err := NewEncoder(m).Uint32(&n); err != nil {
		t.Fatal(err)
	}
	var out string
	err = NewDecoder(NewMemDecode(m.Buffer())).String(&out, 16)
	if !errors.Is(err, ErrTooBig) {
		t.Fatalf("decode err = %v, want ErrTooBig", err)
	}
}

func TestOverflowEncode(t *testing.T) {
	buf := make([]byte, 6) // room for one long, not two
	x := NewEncoder(NewMemEncode(buf))
	v := int32(1)
	if err := x.Long(&v); err != nil {
		t.Fatalf("first long: %v", err)
	}
	if err := x.Long(&v); !errors.Is(err, ErrOverflow) {
		t.Fatalf("second long err = %v, want ErrOverflow", err)
	}
}

func TestOverflowDecode(t *testing.T) {
	x := NewDecoder(NewMemDecode([]byte{0, 0, 0, 1}))
	var v int32
	if err := x.Long(&v); err != nil {
		t.Fatalf("first long: %v", err)
	}
	if err := x.Long(&v); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
}

func TestFreeMode(t *testing.T) {
	x := NewFreer()
	v := int32(7)
	if err := x.Long(&v); err != nil {
		t.Fatalf("free long: %v", err)
	}
	s := "data"
	if err := x.String(&s, 16); err != nil {
		t.Fatalf("free string: %v", err)
	}
	if s != "" {
		t.Fatalf("string not cleared by Free: %q", s)
	}
	b := []byte{1}
	if err := x.Bytes(&b, 16); err != nil {
		t.Fatalf("free bytes: %v", err)
	}
	if b != nil {
		t.Fatalf("bytes not cleared by Free: %v", b)
	}
}

func TestBadOp(t *testing.T) {
	x := &XDR{Op: Op(0)}
	var v int32
	if err := x.Long(&v); !errors.Is(err, ErrBadOp) {
		t.Fatalf("err = %v, want ErrBadOp", err)
	}
	var h int64
	if err := x.Hyper(&h); !errors.Is(err, ErrBadOp) {
		t.Fatalf("hyper err = %v, want ErrBadOp", err)
	}
	var s string
	if err := x.String(&s, 4); !errors.Is(err, ErrBadOp) {
		t.Fatalf("string err = %v, want ErrBadOp", err)
	}
}

func TestOpaqueAlignment(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(i + 1)
		}
		buf := make([]byte, 32)
		m := NewMemEncode(buf)
		if err := NewEncoder(m).Opaque(in); err != nil {
			t.Fatalf("n=%d encode: %v", n, err)
		}
		wantLen := n + Pad(n)
		if len(m.Buffer()) != wantLen {
			t.Fatalf("n=%d wire len = %d, want %d", n, len(m.Buffer()), wantLen)
		}
		out := make([]byte, n)
		dec := NewDecoder(NewMemDecode(m.Buffer()))
		if err := dec.Opaque(out); err != nil {
			t.Fatalf("n=%d decode: %v", n, err)
		}
		if !bytes.Equal(in, out) {
			t.Fatalf("n=%d mismatch", n)
		}
	}
}

func TestArrayRoundTrip(t *testing.T) {
	f := func(in []int32) bool {
		buf := make([]byte, 4+4*len(in))
		m := NewMemEncode(buf)
		enc := NewEncoder(m)
		if err := Array(enc, &in, NoSizeLimit, (*XDR).Long); err != nil {
			return false
		}
		var out []int32
		dec := NewDecoder(NewMemDecode(m.Buffer()))
		if err := Array(dec, &out, NoSizeLimit, (*XDR).Long); err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrayMaxLen(t *testing.T) {
	in := []int32{1, 2, 3}
	buf := make([]byte, 64)
	err := Array(NewEncoder(NewMemEncode(buf)), &in, 2, (*XDR).Long)
	if !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	in := []int32{5, 6, 7, 8}
	buf := make([]byte, 16)
	m := NewMemEncode(buf)
	if err := Vector(NewEncoder(m), in, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	if len(m.Buffer()) != 16 { // no count word on the wire
		t.Fatalf("wire len = %d, want 16", len(m.Buffer()))
	}
	out := make([]int32, 4)
	if err := Vector(NewDecoder(NewMemDecode(m.Buffer())), out, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("element %d: got %d want %d", i, out[i], in[i])
		}
	}
}

func TestOptionalRoundTrip(t *testing.T) {
	buf := make([]byte, 32)
	v := int32(42)
	in := &v
	m := NewMemEncode(buf)
	if err := Optional(NewEncoder(m), &in, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	var out *int32
	if err := Optional(NewDecoder(NewMemDecode(m.Buffer())), &out, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	if out == nil || *out != 42 {
		t.Fatalf("out = %v, want 42", out)
	}

	// Nil pointer encodes as a zero flag and decodes back to nil.
	var nilIn *int32
	m2 := NewMemEncode(buf)
	if err := Optional(NewEncoder(m2), &nilIn, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	out = &v
	if err := Optional(NewDecoder(NewMemDecode(m2.Buffer())), &out, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Fatalf("out = %v, want nil", out)
	}
}

func TestOptionalFree(t *testing.T) {
	v := int32(1)
	p := &v
	if err := Optional(NewFreer(), &p, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Fatal("free did not clear pointer")
	}
}

func TestMemSetPos(t *testing.T) {
	buf := make([]byte, 16)
	m := NewMemEncode(buf)
	x := NewEncoder(m)
	v := int32(1)
	if err := x.Long(&v); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPos(0); err != nil {
		t.Fatal(err)
	}
	v = 2
	if err := x.Long(&v); err != nil {
		t.Fatal(err)
	}
	if m.Buffer()[3] != 2 {
		t.Fatalf("rewrite failed: %v", m.Buffer())
	}
	if err := m.SetPos(17); !errors.Is(err, ErrBadPos) {
		t.Fatalf("err = %v, want ErrBadPos", err)
	}
	if err := m.SetPos(-1); !errors.Is(err, ErrBadPos) {
		t.Fatalf("err = %v, want ErrBadPos", err)
	}
}

func TestMemReset(t *testing.T) {
	buf := make([]byte, 8)
	m := NewMemEncode(buf)
	x := NewEncoder(m)
	v := int32(1)
	if err := x.Long(&v); err != nil {
		t.Fatal(err)
	}
	if err := x.Long(&v); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if m.Pos() != 0 || m.Remaining() != 8 {
		t.Fatalf("after reset pos=%d handy=%d", m.Pos(), m.Remaining())
	}
}

func TestPad(t *testing.T) {
	tests := []struct{ n, want int }{{0, 0}, {1, 3}, {2, 2}, {3, 1}, {4, 0}, {5, 3}}
	for _, tt := range tests {
		if got := Pad(tt.n); got != tt.want {
			t.Errorf("Pad(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestXDRPosFreeHandle(t *testing.T) {
	if got := NewFreer().Pos(); got != 0 {
		t.Fatalf("free handle Pos = %d, want 0", got)
	}
}
