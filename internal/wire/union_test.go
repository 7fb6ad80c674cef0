package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"specrpc/internal/xdr"
)

// uPoint, uRes and uHolder are the Go sides of the union and optional
// shapes below.
type uPoint struct{ X, Y int32 }

type uRes struct {
	Status int32
	Pt     uPoint
	Errno  int32
}

type uHolder struct {
	R    []uRes
	Next *uPoint
	Tail int32
}

func uTypes() (pt, res, holder *Type) {
	pt = StructT("point", F("x", Int32T()), F("y", Int32T()))
	res = UnionT("res", F("status", Int32T()),
		Case("pt", pt, 0),
		Case("errno", Int32T(), 1, -1),
		Default("", nil))
	holder = StructT("holder", F("r", VarArrayT(0, res)), F("next", OptionalT(pt)), F("tail", Int32T()))
	return pt, res, holder
}

// TestUnionOptionalBytes: every engine writes a union as its
// discriminant then the arm it selects, and optional data as a 0/1 flag
// then the pointee, exactly as the xdr layer's own routines do.
func TestUnionOptionalBytes(t *testing.T) {
	_, _, holder := uTypes()
	v := uHolder{R: []uRes{{Status: 0, Pt: uPoint{1, -2}}, {Status: -1, Errno: 5}, {Status: 9, Errno: 7}}, Next: &uPoint{3, 4}, Tail: 6}
	ref := xdr.NewBufEncode(nil)
	x := xdr.NewEncoder(ref)
	n := uint32(len(v.R))
	_ = x.Uint32(&n)
	for i := range v.R {
		r := &v.R[i]
		_ = x.Long(&r.Status)
		switch r.Status {
		case 0:
			_ = x.Long(&r.Pt.X)
			_ = x.Long(&r.Pt.Y)
		case 1, -1:
			_ = x.Long(&r.Errno)
		}
	}
	_ = xdr.Optional(x, &v.Next, func(x *xdr.XDR, p *uPoint) error {
		if err := x.Long(&p.X); err != nil {
			return err
		}
		return x.Long(&p.Y)
	})
	_ = x.Long(&v.Tail)
	for _, m := range []Mode{Generic, Specialized} {
		p := MustPlan[uHolder](holder, m)
		b := xdr.NewBufEncode(nil)
		if err := p.Encode(xdr.NewEncoder(b), &v); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(b.Buffer(), ref.Buffer()) {
			t.Fatalf("%v:\n got %x\nwant %x", m, b.Buffer(), ref.Buffer())
		}
		var got uHolder
		if err := p.Decode(xdr.NewDecoder(xdr.NewMemDecode(b.Buffer())), &got); err != nil {
			t.Fatalf("%v decode: %v", m, err)
		}
		if len(got.R) != 3 || got.R[0].Pt != v.R[0].Pt || got.R[1].Errno != 5 || got.R[2].Errno != 0 || *got.Next != *v.Next || got.Tail != 6 {
			t.Fatalf("%v decoded %+v", m, got)
		}
	}
}

// TestUnionOptionalMinWire: the walker's smallest wire size of a union
// (4 plus the smallest arm) and of optional data (the 4-byte flag) is
// the one Lower's counted step checks a count against.
func TestUnionOptionalMinWire(t *testing.T) {
	pt, res, _ := uTypes()
	wide := UnionT("wide", F("d", Uint32T()), Case("a", pt, 1), Case("b", HyperT(), 2))
	for _, tc := range []struct {
		t    *Type
		want int
	}{
		{res, 4},
		{wide, 12},
		{OptionalT(pt), 4},
		{StructT("s", F("o", OptionalT(HyperT())), F("w", wide)), 16},
	} {
		steps, err := Lower(VarArrayT(0, tc.t))
		if err != nil {
			t.Fatal(err)
		}
		if got := tc.t.minWireSize(); got != tc.want || steps[0].ElemMin != tc.want {
			t.Errorf("%s: minWireSize %d, Lower's ElemMin %d, want %d", tc.t.Kind, got, steps[0].ElemMin, tc.want)
		}
	}
}

// TestUnionValidate: Lower, and so Compile in either mode and the
// emitter, refuses the unions no closure could serve.
func TestUnionValidate(t *testing.T) {
	pt, _, _ := uTypes()
	for _, tc := range []struct {
		name string
		t    *Type
		want string
	}{
		{"bool discriminant", UnionT("u", F("d", BoolT()), Case("a", pt, 1)), "discriminant is bool"},
		{"float discriminant", UnionT("u", F("d", Float32T()), Case("a", pt, 1)), "discriminant is float32"},
		{"no arms", UnionT("u", F("d", Int32T())), "no arms"},
		{"repeated case", UnionT("u", F("d", Int32T()), Case("a", pt, 1), Case("", nil, 2, 1)), "case 1 repeated"},
		{"case past int32", UnionT("u", F("d", Int32T()), Case("a", pt, math.MaxInt32+1)), "out of the discriminant's range"},
		{"negative unsigned case", UnionT("u", F("d", Uint32T()), Case("a", pt, -1)), "out of the discriminant's range"},
		{"two defaults", UnionT("u", F("d", Int32T()), Default("", nil), Default("a", pt)), "2 default arms"},
		{"default with cases", UnionT("u", F("d", Int32T()), Arm{Cases: []int64{1}, Default: true}), "default arm lists cases"},
		{"arm without case", UnionT("u", F("d", Int32T()), Arm{}), "lists no case"},
	} {
		err := tc.t.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
	// The walker refuses what Lower refuses, though bind would take it.
	rep := UnionT("u", F("d", Int32T()), Case("a", pt, 1), Case("", nil, 1))
	if _, err := NewPlan[struct {
		D int32
		A uPoint
	}](rep, Generic); err == nil {
		t.Error("the walker took a union listing case 1 twice")
	}
}

// TestUnionOptionalFree: free mode releases the selected arm's data and
// clears optional data, as xdr.Optional does; an unknown discriminant
// with no default is ErrBadUnion there too.
func TestUnionOptionalFree(t *testing.T) {
	type named struct {
		Nm string
		K  int32
	}
	nt := StructT("named", F("nm", StringT(0)), F("k", Int32T()))
	ht := StructT("holder", F("u", UnionT("u", F("d", Int32T()), Case("nms", VarArrayT(0, StringT(0)), 1))), F("next", OptionalT(nt)))
	type wrapped struct {
		U struct {
			D   int32
			Nms []string
		}
		Next *named
	}
	p := MustPlan[wrapped](ht, Generic)
	v := wrapped{Next: &named{Nm: "x"}}
	v.U.D, v.U.Nms = 1, []string{"a"}
	if err := p.Marshal(xdr.NewFreer(), &v); err != nil || v.U.Nms != nil || v.Next != nil {
		t.Fatalf("free: %+v, %v", v, err)
	}
	v.U.D = 2
	if err := p.Marshal(xdr.NewFreer(), &v); !errors.Is(err, xdr.ErrBadUnion) {
		t.Fatalf("free of discriminant 2: %v, want %v", err, xdr.ErrBadUnion)
	}
}
