//go:build !race

package layout

import (
	"math/rand"
	"testing"

	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// TestSlabAllocs pins that the pre-pass sizes each slab exactly, its
// alignment padding included: a compiled decode into a fresh value
// allocates one slab for all of its strings, opaques and pointer-free
// arrays — no part falls back to an allocation of its own — plus each
// array and pointee that holds pointers (testutil.CarvedAllocs). The
// arrays values put odd-length strings before nv, whose nested elements
// align to 8 on amd64 (to 4 on 386).
func TestSlabAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	raw := func() []byte {
		b := make([]byte, r.Intn(400))
		r.Read(b)
		return b
	}
	for i := 0; i < 100; i++ {
		a := fuzzArrays(raw())
		a.Sw = [2]W5{"abc", "de"}
		checkSlabAllocs(t, arraysEngines, &a)
		checkSlabAllocs(t, namesEngines, &Names{V: a.Ns})
		u := fuzzUnions(raw())
		checkSlabAllocs(t, unionsEngines, &u)
	}
}

func checkSlabAllocs[T any](t *testing.T, e engines[T], v *T) {
	t.Helper()
	w := xdr.NewBufEncode(nil)
	if err := e[0].plan.Encode(xdr.NewEncoder(w), v); err != nil {
		t.Fatal(err)
	}
	body := w.Buffer()
	var zero T
	into := new(T)
	if err := e[2].decode(body, into); err != nil {
		t.Fatal(err)
	}
	want := testutil.CarvedAllocs(into)
	if got := testing.AllocsPerRun(5, func() {
		*into = zero
		if err := e[2].decode(body, into); err != nil {
			t.Fatal(err)
		}
	}); got != float64(want) {
		t.Fatalf("compiled decode of %s: %v allocations, want %d", testutil.Show(*v), got, want)
	}
}
