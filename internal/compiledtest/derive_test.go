package compiledtest

// Derivation differential for the rpcgen-emitted wire descriptions:
// for every generated type the tempo pipeline can specialize, the plan
// derived by binding-time analysis (wire.DeriveCodec — probe stub →
// specializer → residual schedule → lowering) must be
// instruction-identical and byte-identical to the hand-built MustPlan
// codec the stubs actually ship; for every type it cannot, the failure
// must be an explicit *planext.UnsupportedError, never a silently
// different plan.
//
// Like compiled_test.go, this file doubles as the CI genstubs
// differential: the Makefile regenerates stubs.go from rich.x into a
// scratch package, copies this test alongside, and runs it there — so
// the derivation claim is checked against freshly emitted descriptions,
// not just the committed ones.

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"specrpc/internal/tempo/planext"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// derivable lists the generated (wire type, hand plan, value factory)
// triples inside the probe subset: word scalars, fixed arrays, counted
// arrays of words, and nested records thereof.
func derivable(rng *rand.Rand) []struct {
	name string
	wt   *wire.Type
	hand *wire.Codec
	rt   reflect.Type
	val  func() unsafe.Pointer
} {
	return []struct {
		name string
		wt   *wire.Type
		hand *wire.Codec
		rt   reflect.Type
		val  func() unsafe.Pointer
	}{
		{"point", wireTypePoint, planPoint.Codec(), reflect.TypeOf(Point{}), func() unsafe.Pointer {
			return unsafe.Pointer(&Point{X: rng.Int31(), Y: -rng.Int31()})
		}},
		{"numbers", wireTypeNumbers, planNumbers.Codec(), reflect.TypeOf(Numbers(nil)), func() unsafe.Pointer {
			v := make(Numbers, rng.Intn(40))
			for i := range v {
				v[i] = rng.Int31()
			}
			return unsafe.Pointer(&v)
		}},
	}
}

// TestDerivedPlanMatchesGenerated: the analysis-derived codec equals the
// shipped hand-built one — same instruction program, same bytes out,
// same accept/reject and value in — for every derivable generated type.
func TestDerivedPlanMatchesGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range derivable(rng) {
		derived, err := wire.DeriveCodec(tc.wt, tc.rt, wire.Specialized)
		if err != nil {
			t.Errorf("%s: derivation failed: %v", tc.name, err)
			continue
		}
		hand, err := wire.Compile(tc.wt, tc.rt, wire.Specialized)
		if err != nil {
			t.Fatalf("%s: hand compile: %v", tc.name, err)
		}
		if d, h := derived.ProgString(), hand.ProgString(); d != h {
			t.Errorf("%s: derived program differs from hand-built\nderived:\n%s\nhand:\n%s", tc.name, d, h)
			continue
		}
		for pass := 0; pass < 25; pass++ {
			p := tc.val()
			hb := xdr.NewBufEncode(nil)
			if err := tc.hand.Encode(xdr.NewEncoder(hb), p); err != nil {
				t.Fatalf("%s: hand encode: %v", tc.name, err)
			}
			db := xdr.NewBufEncode(nil)
			if err := derived.Encode(xdr.NewEncoder(db), p); err != nil {
				t.Fatalf("%s: derived encode: %v", tc.name, err)
			}
			if !bytes.Equal(db.Buffer(), hb.Buffer()) {
				t.Fatalf("%s: derived bytes differ\n got %x\nwant %x", tc.name, db.Buffer(), hb.Buffer())
			}
			gotH := reflect.New(tc.rt)
			gotD := reflect.New(tc.rt)
			herr := tc.hand.DecodeBody(hb.Buffer(), gotH.UnsafePointer())
			derr := derived.DecodeBody(hb.Buffer(), gotD.UnsafePointer())
			if (herr == nil) != (derr == nil) {
				t.Fatalf("%s: decode disagreement: hand=%v derived=%v", tc.name, herr, derr)
			}
			if herr == nil && !reflect.DeepEqual(gotH.Elem().Interface(), gotD.Elem().Interface()) {
				t.Fatalf("%s: decoded values differ", tc.name)
			}
		}
	}
}

// TestDeriveFallbackExplicit: generated types outside the probe subset
// (strings, opaque bytes, the kitchen-sink record containing them, and
// the struct with optional data and the union, listed here so neither
// is refused silently) must fail derivation with the typed unsupported
// error — the explicit signal the caller needs to fall back to the hand
// compiler — naming the kind that is out.
func TestDeriveFallbackExplicit(t *testing.T) {
	for _, tc := range []struct {
		name string
		wt   *wire.Type
		rt   reflect.Type
		kind wire.Kind
	}{
		{"blob", wireTypeBlob, reflect.TypeOf(Blob(nil)), wire.OpaqueVar},
		{"word", wireTypeWord, reflect.TypeOf(Word("")), wire.String},
		{"sample", wireTypeSample, reflect.TypeOf(Sample{}), wire.Float32},
		{"shape", wireTypeShape, reflect.TypeOf(Shape{}), wire.Struct},
		{"lookup_result", wireTypeLookupResult, reflect.TypeOf(LookupResult{}), wire.Union},
	} {
		_, err := wire.DeriveCodec(tc.wt, tc.rt, wire.Specialized)
		if err == nil {
			t.Errorf("%s: derivation unexpectedly succeeded", tc.name)
			continue
		}
		var ue *planext.UnsupportedError
		if !errors.As(err, &ue) {
			t.Errorf("%s: error %v is not an UnsupportedError", tc.name, err)
		} else if !strings.Contains(ue.Reason, tc.kind.String()) {
			t.Errorf("%s: reason %q does not name %s", tc.name, ue.Reason, tc.kind)
		}
	}
	// shape is refused at its corners, an array of structs, before its
	// optional field is reached; the field alone is refused as what it is.
	_, err := wire.DeriveShape(wireTypeShape.Fields[3].Type)
	var ue *planext.UnsupportedError
	if !errors.As(err, &ue) || !strings.Contains(ue.Reason, wire.Optional.String()) {
		t.Errorf("shape.next: %v, want an UnsupportedError naming %s", err, wire.Optional)
	}
}
