package wire

// Derivation equivalence: the tempo-derived plan must be structurally
// identical to the hand compiler's output and byte-identical on the
// wire for every fully-compat type in the rpcgen corpus (rich.x,
// rmin.x, pmap). This is the reproduction result of ROADMAP item 3,
// front (a): the paper's binding-time analysis, not our compilation
// rules, produces the live codec shape.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"specrpc/internal/tempo/planext"
	"specrpc/internal/xdr"
)

// Corpus Go types, mirroring the generated stubs they stand in for
// (examples/rmin Pair, internal/pmap Mapping, compiledtest Point and
// Numbers, the quickstart []int32, and rich.x's word-subset pieces).
type (
	dPair    struct{ Int1, Int2 int32 }
	dPoint   struct{ X, Y int32 }
	dMapping struct{ Prog, Vers, Prot, Port uint32 }
	dWindow  struct{ Window [5]int32 }
	dMixed   struct {
		A    int32
		B    uint32
		Flag bool
		At   dPoint
		Win  [3]int32
		Nums []int32
		Bits []bool
	}
)

// derivedCorpus lists every corpus type inside the derivable word
// subset, with a generator producing in-bounds random values.
var derivedCorpus = []struct {
	name string
	t    *Type
	rt   reflect.Type
	gen  func(r *rand.Rand) any
}{
	{
		"rmin.pair",
		StructT("pair", F("int1", Int32T()), F("int2", Int32T())),
		reflect.TypeOf(dPair{}),
		func(r *rand.Rand) any { return &dPair{r.Int31(), -r.Int31()} },
	},
	{
		"rich.point",
		StructT("point", F("x", Int32T()), F("y", Int32T())),
		reflect.TypeOf(dPoint{}),
		func(r *rand.Rand) any { return &dPoint{r.Int31(), r.Int31()} },
	},
	{
		"pmap.mapping",
		StructT("mapping", F("prog", Uint32T()), F("vers", Uint32T()), F("prot", Uint32T()), F("port", Uint32T())),
		reflect.TypeOf(dMapping{}),
		func(r *rand.Rand) any { return &dMapping{r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()} },
	},
	{
		"rich.numbers",
		VarArrayT(2000, Int32T()),
		reflect.TypeOf([]int32(nil)),
		func(r *rand.Rand) any {
			v := make([]int32, r.Intn(50))
			for i := range v {
				v[i] = r.Int31()
			}
			return &v
		},
	},
	{
		"quickstart.ints",
		VarArrayT(4096, Int32T()),
		reflect.TypeOf([]int32(nil)),
		func(r *rand.Rand) any {
			v := make([]int32, r.Intn(20))
			for i := range v {
				v[i] = -r.Int31()
			}
			return &v
		},
	},
	{
		"rich.bits",
		VarArrayT(8, BoolT()),
		reflect.TypeOf([]bool(nil)),
		func(r *rand.Rand) any {
			v := make([]bool, r.Intn(9))
			for i := range v {
				v[i] = r.Intn(2) == 1
			}
			return &v
		},
	},
	{
		"rich.window",
		StructT("win", F("window", FixedArrayT(5, Int32T()))),
		reflect.TypeOf(dWindow{}),
		func(r *rand.Rand) any {
			var v dWindow
			for i := range v.Window {
				v.Window[i] = r.Int31()
			}
			return &v
		},
	},
	{
		"scalar.int32",
		Int32T(),
		reflect.TypeOf(int32(0)),
		func(r *rand.Rand) any { v := r.Int31(); return &v },
	},
	{
		"scalar.uint32",
		Uint32T(),
		reflect.TypeOf(uint32(0)),
		func(r *rand.Rand) any { v := r.Uint32(); return &v },
	},
	{
		"scalar.bool",
		BoolT(),
		reflect.TypeOf(false),
		func(r *rand.Rand) any { v := r.Intn(2) == 1; return &v },
	},
	{
		"mixed.word-subset",
		StructT("mixed",
			F("a", Int32T()), F("b", Uint32T()), F("flag", BoolT()),
			F("at", StructT("point", F("x", Int32T()), F("y", Int32T()))),
			F("win", FixedArrayT(3, Int32T())),
			F("nums", VarArrayT(2000, Int32T())),
			F("bits", VarArrayT(8, BoolT())),
		),
		reflect.TypeOf(dMixed{}),
		func(r *rand.Rand) any {
			v := dMixed{
				A: r.Int31(), B: r.Uint32(), Flag: r.Intn(2) == 1,
				At:   dPoint{r.Int31(), r.Int31()},
				Nums: make([]int32, r.Intn(10)),
				Bits: make([]bool, r.Intn(9)),
			}
			for i := range v.Win {
				v.Win[i] = r.Int31()
			}
			for i := range v.Nums {
				v.Nums[i] = r.Int31()
			}
			for i := range v.Bits {
				v.Bits[i] = r.Intn(2) == 1
			}
			return &v
		},
	},
}

// TestDerivedPlanStructuralEquality pins the strongest form of the
// reproduction claim: for every corpus type, the program lowered from
// the specializer's residual is instruction-for-instruction the program
// the hand compiler builds.
func TestDerivedPlanStructuralEquality(t *testing.T) {
	for _, tc := range derivedCorpus {
		hand, err := Compile(tc.t, tc.rt, Specialized)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		derived, err := DeriveCodec(tc.t, tc.rt, Specialized)
		if err != nil {
			t.Fatalf("%s: DeriveCodec: %v", tc.name, err)
		}
		if !reflect.DeepEqual(hand.prog, derived.prog) {
			t.Errorf("%s: derived program differs from hand-built\nhand:\n%sderived:\n%s",
				tc.name, hand.ProgString(), derived.ProgString())
		}
		if derived.Instructions() == 0 {
			t.Errorf("%s: derived codec has an empty program", tc.name)
		}
	}
}

// TestDerivedPlanDifferential round-trips random values through both
// codecs: byte-identical encodes, value-identical decodes of each
// other's bytes.
func TestDerivedPlanDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, tc := range derivedCorpus {
		hand, err := Compile(tc.t, tc.rt, Specialized)
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		derived, err := DeriveCodec(tc.t, tc.rt, Specialized)
		if err != nil {
			t.Fatalf("%s: DeriveCodec: %v", tc.name, err)
		}
		for pass := 0; pass < 50; pass++ {
			v := tc.gen(r)
			p := unsafe.Pointer(reflect.ValueOf(v).Pointer())

			hb, db := xdr.NewBufEncode(nil), xdr.NewBufEncode(nil)
			if err := hand.Encode(xdr.NewEncoder(hb), p); err != nil {
				t.Fatalf("%s: hand encode: %v", tc.name, err)
			}
			if err := derived.Encode(xdr.NewEncoder(db), p); err != nil {
				t.Fatalf("%s: derived encode: %v", tc.name, err)
			}
			if !bytes.Equal(hb.Buffer(), db.Buffer()) {
				t.Fatalf("%s: encode bytes differ\nhand:    %x\nderived: %x", tc.name, hb.Buffer(), db.Buffer())
			}

			// Cross-decode: the derived codec must accept the hand bytes
			// and reproduce the value, and vice versa.
			hv := reflect.New(tc.rt)
			dv := reflect.New(tc.rt)
			if err := hand.DecodeBody(db.Buffer(), unsafe.Pointer(hv.Pointer())); err != nil {
				t.Fatalf("%s: hand decode of derived bytes: %v", tc.name, err)
			}
			if err := derived.DecodeBody(hb.Buffer(), unsafe.Pointer(dv.Pointer())); err != nil {
				t.Fatalf("%s: derived decode of hand bytes: %v", tc.name, err)
			}
			if !reflect.DeepEqual(hv.Elem().Interface(), dv.Elem().Interface()) {
				t.Fatalf("%s: decoded values differ\nhand:    %+v\nderived: %+v",
					tc.name, hv.Elem().Interface(), dv.Elem().Interface())
			}
		}
	}
}

// TestDeriveUnsupportedFallsBack pins the failure mode: out-of-subset
// shapes (strings, opaque, 8-byte scalars, floats, arrays of
// composites) must return *planext.UnsupportedError — the explicit
// fall-back-to-Compile signal — never a silently wrong plan.
func TestDeriveUnsupportedFallsBack(t *testing.T) {
	point := StructT("point", F("x", Int32T()), F("y", Int32T()))
	cases := []struct {
		name string
		t    *Type
		rt   reflect.Type
	}{
		{"string", StringT(16), reflect.TypeOf("")},
		{"opaque-fixed", OpaqueFixedT(10), reflect.TypeOf([10]byte{})},
		{"opaque-var", OpaqueVarT(64), reflect.TypeOf([]byte(nil))},
		{"hyper", HyperT(), reflect.TypeOf(int64(0))},
		{"double", Float64T(), reflect.TypeOf(float64(0))},
		{"float", Float32T(), reflect.TypeOf(float32(0))},
		{"array-of-struct", FixedArrayT(3, point), reflect.TypeOf([3]dPoint{})},
		{"slice-of-struct", VarArrayT(7, point), reflect.TypeOf([]dPoint(nil))},
		{
			"struct-with-string",
			StructT("s", F("a", Int32T()), F("name", StringT(32))),
			reflect.TypeOf(struct {
				A    int32
				Name string
			}{}),
		},
		{"union", UnionT("u", F("d", Int32T()), Case("a", Int32T(), 1)), reflect.TypeOf(struct{ D, A int32 }{})},
		{"optional", OptionalT(Int32T()), reflect.TypeOf((*int32)(nil))},
	}
	for _, tc := range cases {
		_, err := DeriveCodec(tc.t, tc.rt, Specialized)
		if err == nil {
			t.Errorf("%s: DeriveCodec succeeded, want UnsupportedError", tc.name)
			continue
		}
		var ue *planext.UnsupportedError
		if !errors.As(err, &ue) {
			t.Errorf("%s: error %v is not *planext.UnsupportedError", tc.name, err)
		} else if k := tc.t.Kind; (k == Union || k == Optional) && !strings.Contains(ue.Reason, k.String()) {
			t.Errorf("%s: reason %q does not name the kind", tc.name, ue.Reason)
		}
		// The hand compiler must still take the type — fallback works.
		if _, cerr := Compile(tc.t, tc.rt, Specialized); cerr != nil {
			t.Errorf("%s: Compile fallback failed too: %v", tc.name, cerr)
		}
	}
}

// TestDeriveRejectsGenericMode pins that derivation refuses the
// walker mode — and every other value that is not Specialized —
// instead of returning a codec with no program.
func TestDeriveRejectsGenericMode(t *testing.T) {
	for _, m := range []Mode{Generic, 0, Specialized + 1} {
		if _, err := DeriveCodec(Int32T(), reflect.TypeOf(int32(0)), m); err == nil {
			t.Errorf("DeriveCodec(%v) succeeded, want error", m)
		}
	}
}

// TestDerivePlanTyped exercises the generic façade end to end.
func TestDerivePlanTyped(t *testing.T) {
	p, err := DerivePlan[dPair](StructT("pair", F("int1", Int32T()), F("int2", Int32T())), Specialized)
	if err != nil {
		t.Fatalf("DerivePlan: %v", err)
	}
	bs := xdr.NewBufEncode(nil)
	in := dPair{7, -9}
	if err := p.Encode(xdr.NewEncoder(bs), &in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out dPair
	if err := p.Decode(xdr.NewDecoder(xdr.NewMemDecode(bs.Buffer())), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// FuzzDerivedPlan is the differential fuzz target of the derivation
// pipeline: fuzzer-chosen values of the mixed word-subset corpus type
// must encode byte-identically and decode value- and error-identically
// through the hand-built and tempo-derived codecs, in both directions —
// including on arbitrary (often hostile) body bytes.
func FuzzDerivedPlan(f *testing.F) {
	mixed := derivedCorpus[len(derivedCorpus)-1]
	hand, err := Compile(mixed.t, mixed.rt, Specialized)
	if err != nil {
		f.Fatal(err)
	}
	derived, err := DeriveCodec(mixed.t, mixed.rt, Specialized)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int32(1), uint32(2), true, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int32(-1), uint32(0), false, []byte{})
	f.Fuzz(func(t *testing.T, a int32, b uint32, flag bool, raw []byte) {
		v := dMixed{A: a, B: b, Flag: flag, At: dPoint{a ^ 1, a ^ 2}}
		for i := range v.Win {
			v.Win[i] = a + int32(i)
		}
		nn := int(b % 10)
		v.Nums = make([]int32, nn)
		for i := range v.Nums {
			v.Nums[i] = a - int32(i)
		}
		v.Bits = make([]bool, int(uint32(a)%9))
		for i := range v.Bits {
			v.Bits[i] = (a>>i)&1 == 1
		}

		hb, db := xdr.NewBufEncode(nil), xdr.NewBufEncode(nil)
		if err := hand.Encode(xdr.NewEncoder(hb), unsafe.Pointer(&v)); err != nil {
			t.Fatalf("hand encode: %v", err)
		}
		if err := derived.Encode(xdr.NewEncoder(db), unsafe.Pointer(&v)); err != nil {
			t.Fatalf("derived encode: %v", err)
		}
		if !bytes.Equal(hb.Buffer(), db.Buffer()) {
			t.Fatalf("encode bytes differ\nhand:    %x\nderived: %x", hb.Buffer(), db.Buffer())
		}

		// Decode differential on arbitrary bytes: same accept/reject
		// decision, same value on accept.
		var hv, dv dMixed
		herr := hand.DecodeBody(raw, unsafe.Pointer(&hv))
		derr := derived.DecodeBody(raw, unsafe.Pointer(&dv))
		if (herr == nil) != (derr == nil) {
			t.Fatalf("decode disagreement on %x: hand=%v derived=%v", raw, herr, derr)
		}
		if herr == nil && !reflect.DeepEqual(hv, dv) {
			t.Fatalf("decoded values differ on %x\nhand:    %+v\nderived: %+v", raw, hv, dv)
		}
	})
}

// TestDerivedStepsMatchLower pins derivation before any Go layout
// enters: the steps regrouped from the specializer's residual are the
// layout-free program Lower builds from the same type. Neither side
// holds an offset, so the comparison is the same on every GOARCH.
func TestDerivedStepsMatchLower(t *testing.T) {
	for _, tc := range derivedCorpus {
		want, err := Lower(tc.t)
		if err != nil {
			t.Fatalf("%s: Lower: %v", tc.name, err)
		}
		shape, err := DeriveShape(tc.t)
		if err != nil {
			t.Fatalf("%s: DeriveShape: %v", tc.name, err)
		}
		got, err := deriveSteps(shape)
		if err != nil {
			t.Fatalf("%s: deriveSteps: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: derived steps differ from lower's\nlower:   %+v\nderived: %+v", tc.name, want, got)
		}
	}
}

// wordSubsetType builds a word-subset Type from b: int, unsigned int
// and bool scalars, fixed arrays of 0–5 and counted arrays bounded by
// 0, 1, 2, 8 or 2000 of them, and records of 0–3 fields nested up to
// three deep. It reports whether planext can probe the shape: a
// zero-length fixed array or an empty record anywhere in it cannot be.
func wordSubsetType(b []byte) (t *Type, derivable bool) {
	derivable = true
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	scalar := func() *Type { return []*Type{Int32T(), Uint32T(), BoolT()}[next()%3] }
	var gen func(depth int) *Type
	gen = func(depth int) *Type {
		switch next() % 4 {
		case 1:
			n := int(next() % 6)
			derivable = derivable && n > 0
			return FixedArrayT(n, scalar())
		case 2:
			return VarArrayT([]uint32{0, 1, 2, 8, 2000}[next()%5], scalar())
		case 3:
			if depth < 3 {
				n := int(next() % 4)
				derivable = derivable && n > 0
				fields := make([]Field, n)
				for i := range fields {
					fields[i] = F(fmt.Sprintf("f%d", i), gen(depth+1))
				}
				return StructT(fmt.Sprintf("r%d", depth), fields...)
			}
		}
		return scalar()
	}
	return gen(0), derivable
}

// FuzzDerivedSteps is TestDerivedStepsMatchLower over random word-subset
// shapes: every derivable one regroups to Lower's steps, and every
// other one is refused with *planext.UnsupportedError.
func FuzzDerivedSteps(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 1, 1, 3, 2, 4, 1})
	f.Add([]byte{3, 2, 3, 2, 3, 1, 1, 5, 2, 2, 1, 0, 1, 2})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{3, 0})
	f.Add([]byte{2, 1, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		wt, derivable := wordSubsetType(b)
		shape, err := DeriveShape(wt)
		if err != nil {
			t.Fatalf("shape from %x: DeriveShape: %v", b, err)
		}
		got, err := deriveSteps(shape)
		if !derivable {
			var ue *planext.UnsupportedError
			if !errors.As(err, &ue) {
				t.Fatalf("shape from %x: got steps %+v, error %v; want *planext.UnsupportedError", b, got, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("shape from %x: deriveSteps: %v", b, err)
		}
		want, err := Lower(wt)
		if err != nil {
			t.Fatalf("shape from %x: Lower: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shape from %x: derived steps differ from lower's\nlower:   %+v\nderived: %+v", b, want, got)
		}
	})
}

// TestRegroupRejects feeds regroup and schedulesAgree malformed
// residuals, one for each check they make. Each must be refused with
// an error, never turned into a program.
func TestRegroupRejects(t *testing.T) {
	word := &planext.Shape{Kind: planext.Word}
	fixed2 := &planext.Shape{Kind: planext.Fixed, Len: 2, Elem: word}
	counted := &planext.Shape{Kind: planext.Counted, Elem: word}
	rec := func(fields ...*planext.Shape) *planext.Shape {
		return &planext.Shape{Kind: planext.Record, Fields: fields}
	}
	fld := func(i int) planext.Step { return planext.Step{Field: i, Index: -1} }
	idx := func(j int) planext.Step { return planext.Step{Field: -1, Index: j} }
	cnt := func(i int) planext.Step { return planext.Step{Field: i, Index: -1, Count: true} }
	// linear lays the paths out as the probe stream does, 4 bytes apart.
	linear := func(paths ...[]planext.Step) *planext.Schedule {
		s := &planext.Schedule{Dir: planext.Encode, WireBytes: 4 * len(paths)}
		for i, p := range paths {
			s.Accesses = append(s.Accesses, planext.Access{Path: p, WireOff: 4 * i})
		}
		return s
	}
	nonLinear := linear([]planext.Step{fld(0)}, []planext.Step{fld(1)})
	nonLinear.Accesses[1].WireOff = 8

	cases := []struct {
		name  string
		shape *planext.Shape
		sched *planext.Schedule
	}{
		{"non-linear wire offsets", rec(word, word), nonLinear},
		{"count step mid-path", rec(counted),
			linear([]planext.Step{cnt(0), idx(0)}, []planext.Step{fld(0), idx(0)}, []planext.Step{fld(0), idx(1)})},
		{"index step mid-path", rec(fixed2),
			linear([]planext.Step{fld(0), idx(0), fld(0)}, []planext.Step{fld(0), idx(1)})},
		{"field step into a scalar", word, linear([]planext.Step{fld(0)})},
		{"field step into an array", rec(fixed2), linear([]planext.Step{fld(0), fld(0)}, []planext.Step{fld(0), idx(1)})},
		{"field out of range", rec(word), linear([]planext.Step{fld(1)})},
		{"malformed step", word, linear([]planext.Step{{Field: -1, Index: -1}})},
		{"index step into a scalar", rec(word), linear([]planext.Step{fld(0), idx(0)})},
		{"count word of a fixed array", rec(fixed2),
			linear([]planext.Step{cnt(0)}, []planext.Step{fld(0), idx(0)}, []planext.Step{fld(0), idx(1)})},
		{"probe group truncated", rec(counted),
			linear([]planext.Step{cnt(0)}, []planext.Step{fld(0), idx(0)})},
		{"probe group out of order", rec(counted),
			linear([]planext.Step{cnt(0)}, []planext.Step{fld(0), idx(1)}, []planext.Step{fld(0), idx(0)})},
		{"probe group not from element 0", rec(counted),
			linear([]planext.Step{cnt(0)}, []planext.Step{fld(0), idx(1)}, []planext.Step{fld(0), idx(2)})},
		{"root probe group truncated", counted, linear([]planext.Step{{Field: -1, Index: -1, Count: true}})},
		{"index into an empty fixed array", &planext.Shape{Kind: planext.Fixed, Elem: word},
			linear([]planext.Step{idx(0)})},
		{"fixed group not from element 0", fixed2, linear([]planext.Step{idx(1)}, []planext.Step{idx(0)})},
		{"fixed group out of order", &planext.Shape{Kind: planext.Fixed, Len: 3, Elem: word},
			linear([]planext.Step{idx(0)}, []planext.Step{idx(2)}, []planext.Step{idx(1)})},
		{"fixed group cut short", rec(fixed2), linear([]planext.Step{fld(0), idx(0)})},
		{"fixed group cut by a field", rec(fixed2, word),
			linear([]planext.Step{fld(0), idx(0)}, []planext.Step{fld(1)})},
		{"access resolves to a record", rec(rec(word)), linear([]planext.Step{fld(0)})},
		{"element resolves to a record", &planext.Shape{Kind: planext.Fixed, Len: 1, Elem: rec(word)},
			linear([]planext.Step{idx(0)})},
		{"access resolves to an array", rec(fixed2), linear([]planext.Step{fld(0)}, []planext.Step{fld(0)})},
	}
	for _, tc := range cases {
		steps, err := regroup(tc.sched, tc.shape)
		if err == nil || steps != nil {
			t.Errorf("%s: regroup = %+v, %v; want no steps and an error", tc.name, steps, err)
		}
	}

	// schedulesAgree: the two directions must move the same bytes
	// through the same accesses.
	enc := linear([]planext.Step{fld(0)}, []planext.Step{fld(1)})
	short := linear([]planext.Step{fld(0)})
	short.WireBytes = enc.WireBytes
	longer := linear([]planext.Step{fld(0)}, []planext.Step{fld(1)})
	longer.WireBytes = 12
	swapped := linear([]planext.Step{fld(1)}, []planext.Step{fld(0)})
	for name, dec := range map[string]*planext.Schedule{
		"fewer accesses": short, "more wire bytes": longer, "different access": swapped,
	} {
		if err := schedulesAgree(enc, dec); err == nil {
			t.Errorf("schedulesAgree(%s): no error", name)
		}
	}
	if err := schedulesAgree(enc, linear([]planext.Step{fld(0)}, []planext.Step{fld(1)})); err != nil {
		t.Errorf("schedulesAgree on equal schedules: %v", err)
	}
}
