package wire

// Regression pins for the specvet hotpath findings: the plan executors
// used to build their corrupted-plan error with fmt.Errorf, allocating
// a fresh formatted error on a path marked //specrpc:hotpath. The fix
// returns the package-level sentinels; these tests pin both the error
// identity and the zero-allocation property of the failure paths so the
// finding cannot quietly regress.

import (
	"errors"
	"testing"
	"unsafe"

	"specrpc/internal/xdr"
)

func TestBadInstructionSentinel(t *testing.T) {
	var v uint32
	bad := []instr{{op: 0xff}}

	bs := xdr.NewBufEncode(nil)
	if err := encodeProg(bs, bad, unsafe.Pointer(&v)); !errors.Is(err, errBadInstruction) {
		t.Fatalf("encodeProg on corrupted plan: err = %v, want errBadInstruction", err)
	}
	var ms xdr.MemStream
	ms.SetBuffer([]byte{0, 0, 0, 0})
	if err := decodeProg(&ms, bad, unsafe.Pointer(&v)); !errors.Is(err, errBadInstruction) {
		t.Fatalf("decodeProg on corrupted plan: err = %v, want errBadInstruction", err)
	}

	if n := testing.AllocsPerRun(100, func() {
		bs.SetBuffer(bs.Buffer()[:0])
		if encodeProg(bs, bad, unsafe.Pointer(&v)) == nil {
			t.Fatal("corrupted plan encoded")
		}
	}); n != 0 {
		t.Errorf("bad-instruction error path: %v allocs/op, want 0", n)
	}
}

func TestDecodeOnlyReplyCodecSentinel(t *testing.T) {
	p := MustPlan[uint32](Uint32T(), Specialized)
	rc := NewReplyCodec(nil, p.Codec())
	var v uint32
	bs := xdr.NewBufEncode(nil)
	if err := rc.Append(bs, 1, unsafe.Pointer(&v)); !errors.Is(err, errDecodeOnly) {
		t.Fatalf("Append on decode-only codec: err = %v, want errDecodeOnly", err)
	}
	if err := rc.AppendHeader(bs, 1); !errors.Is(err, errDecodeOnly) {
		t.Fatalf("AppendHeader on decode-only codec: err = %v, want errDecodeOnly", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if rc.Append(bs, 1, unsafe.Pointer(&v)) == nil {
			t.Fatal("decode-only codec appended")
		}
	}); n != 0 {
		t.Errorf("decode-only error path: %v allocs/op, want 0", n)
	}
}
