package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// everything exercises every wire kind, nesting, fusion breaks (bool,
// string) between fusible runs, and composite array elements.
type point struct {
	X int32
	Y int32
}

type everything struct {
	A       int32
	B       uint32
	Flag    bool
	F       float32
	H       int64
	UH      uint64
	D       float64
	Name    string
	Tag     [4]byte
	Blob    []byte
	Fixed   [3]int32
	Nums    []int32
	Pts     []point
	Corners [2]point
	Nested  point
	Words   []string
	Bools   []bool
	Longs   []int64
}

func everythingType() *Type {
	pt := StructT("point", F("x", Int32T()), F("y", Int32T()))
	return StructT("everything",
		F("a", Int32T()),
		F("b", Uint32T()),
		F("flag", BoolT()),
		F("f", Float32T()),
		F("h", HyperT()),
		F("uh", UhyperT()),
		F("d", Float64T()),
		F("name", StringT(64)),
		F("tag", OpaqueFixedT(4)),
		F("blob", OpaqueVarT(128)),
		F("fixed", FixedArrayT(3, Int32T())),
		F("nums", VarArrayT(1000, Int32T())),
		F("pts", VarArrayT(100, pt)),
		F("corners", FixedArrayT(2, pt)),
		F("nested", pt),
		F("words", VarArrayT(10, StringT(32))),
		F("bools", VarArrayT(50, BoolT())),
		F("longs", VarArrayT(50, HyperT())),
	)
}

func sampleEverything() everything {
	return everything{
		A: -7, B: 0xdeadbeef, Flag: true, F: 2.5, H: -1 << 40, UH: 1 << 60, D: -0.125,
		Name: "specialize", Tag: [4]byte{1, 2, 3, 4}, Blob: []byte{9, 8, 7, 6, 5},
		Fixed: [3]int32{10, 20, 30}, Nums: []int32{1, -2, 3, -4, 5},
		Pts:     []point{{1, 2}, {3, 4}, {5, 6}},
		Corners: [2]point{{7, 8}, {9, 10}},
		Nested:  point{11, 12},
		Words:   []string{"a", "bcd", "ef"},
		Bools:   []bool{true, false, true},
		Longs:   []int64{1 << 33, -5, 0},
	}
}

var modes = []Mode{Generic, Specialized}

// handwritten is the reference encoding via the micro-layered xdr calls
// a hand-written stub would make; every codec must match it byte for
// byte.
func handwritten(t *testing.T, v *everything) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	x := xdr.NewEncoder(bs)
	ptProc := func(x *xdr.XDR, p *point) error {
		if err := x.Long(&p.X); err != nil {
			return err
		}
		return x.Long(&p.Y)
	}
	var err error
	step := func(e error) {
		if err == nil {
			err = e
		}
	}
	step(x.Long(&v.A))
	step(x.Uint32(&v.B))
	step(x.Bool(&v.Flag))
	step(x.Float32(&v.F))
	step(x.Hyper(&v.H))
	step(x.Uint64(&v.UH))
	step(x.Float64(&v.D))
	step(x.String(&v.Name, 64))
	step(x.Opaque(v.Tag[:]))
	step(x.Bytes(&v.Blob, 128))
	step(xdr.Vector(x, v.Fixed[:], (*xdr.XDR).Long))
	step(xdr.Array(x, &v.Nums, 1000, (*xdr.XDR).Long))
	step(xdr.Array(x, &v.Pts, 100, ptProc))
	step(xdr.Vector(x, v.Corners[:], ptProc))
	step(ptProc(x, &v.Nested))
	step(xdr.Array(x, &v.Words, 10, func(x *xdr.XDR, s *string) error { return x.String(s, 32) }))
	step(xdr.Array(x, &v.Bools, 50, (*xdr.XDR).Bool))
	step(xdr.Array(x, &v.Longs, 50, (*xdr.XDR).Hyper))
	if err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return append([]byte(nil), bs.Buffer()...)
}

func encodeWith(t *testing.T, p *Plan[everything], v *everything) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	if err := p.Marshal(xdr.NewEncoder(bs), v); err != nil {
		t.Fatalf("%v encode: %v", p.Mode(), err)
	}
	return append([]byte(nil), bs.Buffer()...)
}

func TestCodecsMatchHandwrittenBytes(t *testing.T) {
	v := sampleEverything()
	want := handwritten(t, &v)
	for _, m := range modes {
		p := MustPlan[everything](everythingType(), m)
		got := encodeWith(t, p, &v)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: encoding differs from hand-written stub\n got %x\nwant %x", m, got, want)
		}
	}
}

func TestRoundTripAllModes(t *testing.T) {
	v := sampleEverything()
	for _, encM := range modes {
		for _, decM := range modes {
			enc := MustPlan[everything](everythingType(), encM)
			dec := MustPlan[everything](everythingType(), decM)
			wireBytes := encodeWith(t, enc, &v)
			var got everything
			if err := dec.Marshal(xdr.NewDecoder(xdr.NewMemDecode(wireBytes)), &got); err != nil {
				t.Fatalf("%v->%v decode: %v", encM, decM, err)
			}
			assertEverythingEqual(t, &got, &v)
		}
	}
}

func assertEverythingEqual(t *testing.T, got, want *everything) {
	t.Helper()
	if got.A != want.A || got.B != want.B || got.Flag != want.Flag || got.F != want.F ||
		got.H != want.H || got.UH != want.UH || got.D != want.D || got.Name != want.Name ||
		got.Tag != want.Tag || !bytes.Equal(got.Blob, want.Blob) ||
		got.Fixed != want.Fixed || got.Corners != want.Corners || got.Nested != want.Nested {
		t.Fatalf("scalar/fixed mismatch:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Nums) != len(want.Nums) || len(got.Pts) != len(want.Pts) ||
		len(got.Words) != len(want.Words) || len(got.Bools) != len(want.Bools) ||
		len(got.Longs) != len(want.Longs) {
		t.Fatalf("length mismatch:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.Nums {
		if got.Nums[i] != want.Nums[i] {
			t.Fatalf("Nums[%d] = %d, want %d", i, got.Nums[i], want.Nums[i])
		}
	}
	for i := range want.Pts {
		if got.Pts[i] != want.Pts[i] {
			t.Fatalf("Pts[%d] = %+v, want %+v", i, got.Pts[i], want.Pts[i])
		}
	}
	for i := range want.Words {
		if got.Words[i] != want.Words[i] {
			t.Fatalf("Words[%d] = %q, want %q", i, got.Words[i], want.Words[i])
		}
	}
	for i := range want.Bools {
		if got.Bools[i] != want.Bools[i] {
			t.Fatalf("Bools[%d] mismatch", i)
		}
	}
	for i := range want.Longs {
		if got.Longs[i] != want.Longs[i] {
			t.Fatalf("Longs[%d] mismatch", i)
		}
	}
}

// staticWire sums the precomputed wire bytes of a program made only of
// fixed-size instructions (runs, and vectors of them).
func staticWire(t *testing.T, prog []instr) int {
	t.Helper()
	total := 0
	for _, in := range prog {
		switch {
		case in.op.fixed():
			total += in.wire
		case in.op == OpVecSub:
			total += in.n * staticWire(t, in.sub)
		default:
			t.Fatalf("static-size type compiled to a variable-size instruction %s", in)
		}
	}
	return total
}

// staticSize is the static wire size Lower's steps give t, summed by
// sizes; ok is false when the size depends on the value.
func staticSize(t *testing.T, ty *Type) (int, bool) {
	t.Helper()
	steps, err := Lower(ty)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := Sizes(steps)
	return n, n != VarWire
}

// TestStaticWireSize checks the two static-size answers — Step.Wire on
// the layout-free program, instr.wire (runWire) on the fused one —
// against each other and against the length every codec actually
// encodes, for each static-size shape of the corpus; and that every
// counted kind, or anything containing one, reports "not static".
func TestStaticWireSize(t *testing.T) {
	pt := StructT("point", F("x", Int32T()), F("y", Int32T()))
	type padded struct {
		Tag     [5]byte
		Corners [2]point
		H       int64
		Flag    bool
		Grid    [2][3]bool
	}
	paddedT := StructT("padded",
		F("tag", OpaqueFixedT(5)),
		F("corners", FixedArrayT(2, pt)),
		F("h", HyperT()),
		F("flag", BoolT()),
		F("grid", FixedArrayT(2, FixedArrayT(3, BoolT()))),
	)
	static := []struct {
		ty   *Type
		v    any
		want int
	}{
		{Int32T(), int32(0), 4}, {Uint32T(), uint32(0), 4}, {BoolT(), false, 4}, {Float32T(), float32(0), 4},
		{HyperT(), int64(0), 8}, {UhyperT(), uint64(0), 8}, {Float64T(), float64(0), 8},
		{OpaqueFixedT(0), [0]byte{}, 0}, {OpaqueFixedT(1), [1]byte{}, 4},
		{OpaqueFixedT(4), [4]byte{}, 4}, {OpaqueFixedT(5), [5]byte{}, 8}, {OpaqueFixedT(10), [10]byte{}, 12},
		{FixedArrayT(3, Int32T()), [3]int32{}, 12},
		{FixedArrayT(2, FixedArrayT(3, BoolT())), [2][3]bool{}, 24},
		{FixedArrayT(3, OpaqueFixedT(5)), [3][5]byte{}, 24}, // padding between elements: a vector, not a run
		{FixedArrayT(3, OpaqueFixedT(8)), [3][8]byte{}, 24},
		{pt, point{}, 8}, {FixedArrayT(2, pt), [2]point{}, 16},
		{paddedT, padded{}, 8 + 16 + 8 + 4 + 24},
		{FixedArrayT(2, paddedT), [2]padded{}, 2 * 60},
	}
	for _, tc := range static {
		got, ok := staticSize(t, tc.ty)
		if !ok || got != tc.want {
			t.Errorf("%s %T: static size = %d, %v, want %d, true", tc.ty.Kind, tc.v, got, ok, tc.want)
		}
		pv := reflect.New(reflect.TypeOf(tc.v))
		for _, m := range modes {
			c, err := Compile(tc.ty, pv.Type().Elem(), m)
			if err != nil {
				t.Fatalf("%T: %v", tc.v, err)
			}
			bs := xdr.NewBufEncode(nil)
			if err := c.Encode(xdr.NewEncoder(bs), pv.UnsafePointer()); err != nil {
				t.Fatalf("%T %v: %v", tc.v, m, err)
			}
			if len(bs.Buffer()) != tc.want {
				t.Errorf("%T %v: encoded %d bytes, want %d", tc.v, m, len(bs.Buffer()), tc.want)
			}
			if m == Specialized {
				if n := staticWire(t, c.prog); n != tc.want {
					t.Errorf("%T: program covers %d static wire bytes, want %d\n%s", tc.v, n, tc.want, c.ProgString())
				}
			}
		}
	}
	counted := []*Type{
		StringT(0), StringT(8), OpaqueVarT(0), OpaqueVarT(8), VarArrayT(0, Int32T()), VarArrayT(4, pt),
		FixedArrayT(2, StringT(4)), FixedArrayT(2, VarArrayT(0, BoolT())),
		StructT("s", F("a", Int32T()), F("name", StringT(0))),
		StructT("s", F("blob", OpaqueVarT(0)), F("a", Int32T())),
		StructT("outer", F("in", StructT("s", F("nums", VarArrayT(0, HyperT()))))),
		everythingType(),
	}
	for _, ty := range counted {
		if n, ok := staticSize(t, ty); ok {
			t.Errorf("%s: static size = %d, true, want not static", ty.Kind, n)
		}
	}
}

func encodeInts(t *testing.T, p *Plan[[]int32], v []int32) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	if err := p.Marshal(xdr.NewEncoder(bs), &v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return append([]byte(nil), bs.Buffer()...)
}

// TestSpecializedEncodeAllocFree is the paper's claim on the live path:
// the compiled plan encodes through the pooled buffer without a single
// allocation.
func TestSpecializedEncodeAllocFree(t *testing.T) {
	v := sampleEverything()
	v.Words = nil // string slice encode is alloc-free too, but keep the
	// steady-state shape the transport sees: ints dominating
	p := MustPlan[everything](everythingType(), Specialized)
	bs := xdr.NewBufEncode(make([]byte, 0, 4096))
	x := xdr.NewEncoder(bs)
	if err := p.Marshal(x, &v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		bs.Reset()
		if err := p.Marshal(x, &v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("specialized encode allocates %.1f per op, want 0", allocs)
	}
}

func TestFusionCollapsesRuns(t *testing.T) {
	// point fuses into one 2-unit run; [2]point into one 4-unit run; a
	// struct of two contiguous int32 fields plus a fixed array fuses into
	// a single instruction.
	type flat struct {
		A int32
		B int32
		C [5]int32
	}
	ty := StructT("flat", F("a", Int32T()), F("b", Int32T()), F("c", FixedArrayT(5, Int32T())))
	c, err := Compile(ty, reflect.TypeOf(flat{}), Specialized)
	if err != nil {
		t.Fatal(err)
	}
	if c.Instructions() != 1 {
		t.Fatalf("flat struct compiled to %d instructions, want 1 fused run", c.Instructions())
	}
	// []point keeps a count but fuses its element: one instruction.
	pty := VarArrayT(0, StructT("point", F("x", Int32T()), F("y", Int32T())))
	pc, err := Compile(pty, reflect.TypeOf([]point(nil)), Specialized)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Instructions() != 1 {
		t.Fatalf("[]point compiled to %d instructions, want 1", pc.Instructions())
	}
}

func TestCompileMismatches(t *testing.T) {
	type s struct{ A int32 }
	cases := []struct {
		name string
		ty   *Type
	}{
		{"kind", StructT("s", F("a", Uint32T()))},
		{"fieldcount", StructT("s", F("a", Int32T()), F("b", Int32T()))},
		{"fieldname", StructT("s", F("zzz", Int32T()))},
	}
	for _, tc := range cases {
		if _, err := NewPlan[s](tc.ty, Specialized); err == nil {
			t.Errorf("%s: compile succeeded, want error", tc.name)
		}
	}
	if _, err := NewPlan[int32](Uint32T(), Generic); err == nil {
		t.Error("int32 vs uint32: compile succeeded, want error")
	}
}

func TestDecodeBoundsAndTruncation(t *testing.T) {
	ty := VarArrayT(4, Int32T())
	enc := MustPlan[[]int32](ty, Generic)
	over := []int32{1, 2, 3, 4, 5}
	bs := xdr.NewBufEncode(nil)
	if err := enc.Marshal(xdr.NewEncoder(bs), &over); !errors.Is(err, xdr.ErrTooBig) {
		t.Fatalf("encode over bound: %v, want ErrTooBig", err)
	}
	// A count larger than the bound must be rejected on decode in every
	// mode.
	loose := MustPlan[[]int32](VarArrayT(0, Int32T()), Specialized)
	bs = xdr.NewBufEncode(nil)
	if err := loose.Marshal(xdr.NewEncoder(bs), &over); err != nil {
		t.Fatal(err)
	}
	raw := bs.Buffer()
	for _, m := range modes {
		dec := MustPlan[[]int32](ty, m)
		var out []int32
		if err := dec.Marshal(xdr.NewDecoder(xdr.NewMemDecode(raw)), &out); !errors.Is(err, xdr.ErrTooBig) {
			t.Errorf("%v decode over bound: %v, want ErrTooBig", m, err)
		}
	}
	// Truncated input must surface ErrOverflow, not panic or over-read.
	for _, m := range modes {
		dec := MustPlan[[]int32](VarArrayT(0, Int32T()), m)
		for cut := 0; cut < len(raw); cut++ {
			var out []int32
			if err := dec.Marshal(xdr.NewDecoder(xdr.NewMemDecode(raw[:cut])), &out); err == nil {
				t.Errorf("%v: decode of %d/%d bytes succeeded", m, cut, len(raw))
			}
		}
	}
	// A hostile count with no data behind it fails without allocating for
	// it — the allocation rule (ensureSlice): in every mode, for elements
	// of fixed and of variable size, on a stream that knows what is left
	// and on one that does not (a foreign stream, which every mode walks
	// through the tree, and which no count is vouched for at all).
	hostile := []byte{0x3f, 0xff, 0xff, 0xff}
	whole := []byte{0, 0, 0, 1, 0, 0, 0, 0}
	for _, m := range modes {
		ints := MustPlan[[]int32](VarArrayT(0, Int32T()), m)
		words := MustPlan[[]string](VarArrayT(0, StringT(0)), m)
		for name, stream := range map[string]func() xdr.Stream{
			"MemStream":                      func() xdr.Stream { return xdr.NewMemDecode(hostile) },
			"foreign stream":                 func() xdr.Stream { return foreignStream{xdr.NewMemDecode(hostile)} },
			"foreign stream, data all there": func() xdr.Stream { return foreignStream{xdr.NewMemDecode(whole)} },
		} {
			for elem, decode := range map[string]func(x *xdr.XDR) error{
				"int32":  func(x *xdr.XDR) error { var out []int32; return ints.Marshal(x, &out) },
				"string": func(x *xdr.XDR) error { var out []string; return words.Marshal(x, &out) },
			} {
				var err error
				got := testutil.AllocBytes(func() { err = decode(xdr.NewDecoder(stream())) })
				if err == nil {
					t.Errorf("%v, []%s on a %s: count decoded", m, elem, name)
				}
				if got >= 1<<10 {
					t.Errorf("%v, []%s on a %s: allocated %d bytes for a count it cannot vouch for", m, elem, name, got)
				}
			}
		}
	}
	// Where the rule would be vacuous it is not needed: a counted array
	// whose element has no wire size — the one shape whose count nothing
	// that arrives can vouch for, so that these four bytes would buy a
	// billion iterations of a loop that reads nothing — is refused when
	// it is described, in both modes, bare and nested.
	type nothing struct{}
	type holder struct{ Pad [0]byte }
	type holders struct{ Hs []holder }
	holderT := StructT("holder", F("pad", OpaqueFixedT(0)))
	for _, m := range modes {
		if _, err := NewPlan[[]nothing](VarArrayT(0, StructT("nothing")), m); !errors.Is(err, errZeroSizeElem) {
			t.Errorf("%v: plan for a counted array of empty structs: %v", m, err)
		}
		if _, err := NewPlan[holders](StructT("holders", F("hs", VarArrayT(0, holderT))), m); !errors.Is(err, errZeroSizeElem) {
			t.Errorf("%v: plan for a struct holding a counted array of opaque[0] holders: %v", m, err)
		}
		if _, err := NewPlan[[][0]int32](VarArrayT(0, FixedArrayT(0, Int32T())), m); !errors.Is(err, errZeroSizeElem) {
			t.Errorf("%v: plan for a counted array of int[0]: %v", m, err)
		}
	}
}

func TestFreeModeZeroes(t *testing.T) {
	v := sampleEverything()
	p := MustPlan[everything](everythingType(), Generic)
	if err := p.Marshal(xdr.NewFreer(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Blob != nil || v.Nums != nil || v.Pts != nil || v.Name != "" || v.Words != nil {
		t.Fatalf("free left data: %+v", v)
	}
}

// foreignStream moves a stream's bytes without being a BufStream or a
// MemStream: a stream no plan has a fast path for.
type foreignStream struct{ xdr.Stream }

// TestFallbackStream drives the specialized plan against a stream it has
// no fast path for, exercising the generic fallback.
func TestFallbackStream(t *testing.T) {
	v := sampleEverything()
	p := MustPlan[everything](everythingType(), Specialized)
	bs := xdr.NewBufEncode(nil)
	if err := p.Marshal(xdr.NewEncoder(foreignStream{bs}), &v); err != nil {
		t.Fatal(err)
	}
	want := handwritten(t, &v)
	if !bytes.Equal(bs.Buffer(), want) {
		t.Fatalf("fallback bytes differ")
	}
}

// TestFusedBoolArraySlice pins a regression: a var-array whose element
// fuses to a multi-unit bool run ([][2]bool) must move len*unitsPer wire
// units, byte-identical across codecs.
func TestFusedBoolArraySlice(t *testing.T) {
	ty := VarArrayT(0, FixedArrayT(2, BoolT()))
	v := [][2]bool{{true, false}, {false, true}, {true, true}}
	var ref []byte
	for i, m := range modes {
		p := MustPlan[[][2]bool](ty, m)
		bs := xdr.NewBufEncode(nil)
		if err := p.Marshal(xdr.NewEncoder(bs), &v); err != nil {
			t.Fatalf("%v encode: %v", m, err)
		}
		got := append([]byte(nil), bs.Buffer()...)
		if wantLen := 4 + 4*2*len(v); len(got) != wantLen {
			t.Fatalf("%v: %d wire bytes, want %d", m, len(got), wantLen)
		}
		if i == 0 {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Fatalf("%v: bytes differ from generic\n got %x\nwant %x", m, got, ref)
		}
		var out [][2]bool
		if err := p.Marshal(xdr.NewDecoder(xdr.NewMemDecode(got)), &out); err != nil {
			t.Fatalf("%v decode: %v", m, err)
		}
		if len(out) != len(v) || out[0] != v[0] || out[2] != v[2] {
			t.Fatalf("%v: bad round trip: %v", m, out)
		}
	}
}

func TestDecodeReusesBacking(t *testing.T) {
	ty := VarArrayT(0, Int32T())
	p := MustPlan[[]int32](ty, Specialized)
	in := []int32{1, 2, 3}
	raw := encodeInts(t, p, in)
	out := make([]int32, 3)
	first := &out[0]
	if err := p.Marshal(xdr.NewDecoder(xdr.NewMemDecode(raw)), &out); err != nil {
		t.Fatal(err)
	}
	if &out[0] != first {
		t.Fatal("matching-length decode reallocated the slice")
	}
}

// TestCountBeyondInt: a count of 2³¹ or more in an unbounded field is
// short of data on every host, and every engine says so. On a 32-bit
// host such a count reads negative as an int, which a decoder must
// refuse rather than slice or allocate by.
func TestCountBeyondInt(t *testing.T) {
	pt := StructT("point", F("x", Int32T()), F("y", Int32T()))
	named := StructT("named", F("nm", StringT(0)), F("k", Int32T()))
	type namedV struct {
		Nm string
		K  int32
	}
	cases := []struct {
		ty *Type
		v  any
	}{
		{StringT(0), ""},
		{OpaqueVarT(0), []byte(nil)},
		{VarArrayT(0, Int32T()), []int32(nil)},
		{VarArrayT(0, HyperT()), []int64(nil)},
		{VarArrayT(0, pt), []point(nil)},
		{VarArrayT(0, named), []namedV(nil)},
	}
	for _, count := range []uint32{1 << 31, 0xa5030080, ^uint32(0)} {
		body := append(binary.BigEndian.AppendUint32(nil, count), make([]byte, 16)...)
		for _, tc := range cases {
			for _, m := range modes {
				c, err := Compile(tc.ty, reflect.TypeOf(tc.v), m)
				if err != nil {
					t.Fatal(err)
				}
				pv := reflect.New(reflect.TypeOf(tc.v))
				if err := c.DecodeBody(body, pv.UnsafePointer()); !errors.Is(err, xdr.ErrOverflow) {
					t.Errorf("%T %v, count %#x: %v, want %v", tc.v, m, count, err, xdr.ErrOverflow)
				}
			}
		}
	}
}
