package wire

import (
	"reflect"
	"testing"
	"unsafe"
)

// layoutNested is nested of rpcgen's layout.x: where hyper aligns to 4
// (386, mips) S starts at offset 4 and A runs straight into S.P; where it
// aligns to 8 (amd64, arm64) four bytes of padding part them.
type layoutNested struct {
	A int32
	S struct {
		P int32
		Q int64
	}
}

func nestedType() *Type {
	return StructT("nested", F("a", Int32T()), F("s", StructT("inner", F("p", Int32T()), F("q", HyperT()))))
}

// TestNestedLayout pins the host's half of the one lowering: the fused
// program belongs to the host, so it fuses a with s.p exactly where Go
// lays them out adjacent. The other half, the emitted source printed
// from the layout-free steps before fusion, is one text on every GOARCH
// (rpcgen's TestEmitNestedLayout).
func TestNestedLayout(t *testing.T) {
	c, err := Compile(nestedType(), reflect.TypeOf(layoutNested{}), Specialized)
	if err != nil {
		t.Fatal(err)
	}
	fused := c.prog[0].op == OpUnits && c.prog[0].n == 2
	if off := unsafe.Offsetof(layoutNested{}.S); fused != (off == 4) {
		t.Errorf("s at offset %d, a and s.p fused: %v\n%s", off, fused, c.ProgString())
	}
}
