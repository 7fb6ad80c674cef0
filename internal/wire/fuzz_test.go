package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// The fused-codec differentials: across random identities, auth
// payloads, XIDs, procedures, and argument values covering every wire
// kind, a whole-message codec must produce exactly the bytes of the
// template-copy + plan pair it replaces, and the fused decode must
// recover a value that re-encodes to the same bytes. These are the
// wire-level guarantees the live transports rely on when they route
// typed calls through CallPlan/ReplyPlan.

// fuzzValue derives an everything value from the fuzzer's raw bytes,
// clamping every variable-size field to its wire bound. The mapping is
// deterministic, so a crash reproduces from its corpus entry.
func fuzzValue(a int32, h int64, flag bool, name string, raw []byte) everything {
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
	if len(name) > 64 {
		name = name[:64]
	}
	v := everything{
		A: a, B: uint32(a) ^ 0x5a5a5a5a, Flag: flag,
		F: float32(a) / 3, H: h, UH: uint64(h) * 7, D: float64(h) / 5,
		Name: name,
	}
	copy(v.Tag[:], take(4))
	v.Blob = append([]byte(nil), take(128)...)
	copy(v.Fixed[:], ints(3))
	v.Nums = ints(20)
	for _, p := range ints(8) {
		v.Pts = append(v.Pts, point{X: p, Y: ^p})
	}
	v.Corners = [2]point{{a, int32(h)}, {int32(h >> 32), a}}
	v.Nested = point{X: a ^ 1, Y: a ^ 2}
	for i, b := range take(3) {
		s := name
		if len(s) > i*8 {
			s = s[:i*8]
		}
		v.Words = append(v.Words, s)
		v.Bools = append(v.Bools, b&1 == 1)
		v.Longs = append(v.Longs, int64(b)<<i)
	}
	return v
}

// FuzzCallPlanFused: fused whole-call bytes == CallTemplate.AppendCall
// + plan Encode, across random identities and credential material.
func FuzzCallPlanFused(f *testing.F) {
	f.Add(uint32(1), uint32(0x20000532), uint32(1), uint32(2),
		int32(rpcmsg.AuthNone), []byte{}, int32(5), int64(-9), true, "hello", []byte{1, 2, 3, 4, 5})
	f.Add(uint32(0xffffffff), uint32(0), uint32(9), uint32(0),
		int32(rpcmsg.AuthSys), []byte{1, 2, 3}, int32(-1), int64(1)<<40, false, "", make([]byte, 200))

	p := MustPlan[everything](everythingType(), Specialized)
	f.Fuzz(func(t *testing.T, xid, prog, vers, proc uint32,
		credFlavor int32, credBody []byte, a int32, h int64, flag bool, name string, raw []byte) {
		cred := rpcmsg.OpaqueAuth{Flavor: rpcmsg.AuthFlavor(credFlavor), Body: credBody}
		tmpl, err := rpcmsg.NewCallTemplate(prog, vers, cred, rpcmsg.None())
		if err != nil {
			t.Skip() // auth the generic encoder also rejects: no template, no fusion
		}
		v := fuzzValue(a, h, flag, name, raw)
		cp, err := NewCallPlan(tmpl, proc, p)
		if err != nil {
			t.Fatal(err)
		}
		ref := xdr.NewBufEncode(nil)
		ref.SetBuffer(tmpl.AppendCall(nil, xid, proc))
		if err := p.Encode(xdr.NewEncoder(ref), &v); err != nil {
			t.Fatalf("reference encode: %v", err)
		}
		bs := xdr.NewBufEncode(nil)
		if err := cp.AppendCall(bs, xid, &v); err != nil {
			t.Fatalf("fused encode: %v", err)
		}
		if !bytes.Equal(bs.Buffer(), ref.Buffer()) {
			t.Fatalf("fused call differs from template+plan\n got %x\nwant %x", bs.Buffer(), ref.Buffer())
		}
	})
}

// FuzzReplyPlanFused: fused whole-reply bytes == ReplyTemplate.
// AppendReply + plan Encode across random verifiers, and the fused
// decode recovers a value that re-encodes to the same body.
func FuzzReplyPlanFused(f *testing.F) {
	f.Add(uint32(1), int32(rpcmsg.AuthNone), []byte{}, int32(5), int64(-9), true, "hello", []byte{1, 2, 3})
	f.Add(uint32(0xffffffff), int32(rpcmsg.AuthShort), []byte{9, 9}, int32(-1), int64(1)<<40, false, "", make([]byte, 200))

	p := MustPlan[everything](everythingType(), Specialized)
	f.Fuzz(func(t *testing.T, xid uint32,
		verfFlavor int32, verfBody []byte, a int32, h int64, flag bool, name string, raw []byte) {
		verf := rpcmsg.OpaqueAuth{Flavor: rpcmsg.AuthFlavor(verfFlavor), Body: verfBody}
		tmpl, err := rpcmsg.NewReplyTemplate(verf)
		if err != nil {
			t.Skip()
		}
		v := fuzzValue(a, h, flag, name, raw)
		rp, err := NewReplyPlan(tmpl, p)
		if err != nil {
			t.Fatal(err)
		}
		ref := xdr.NewBufEncode(nil)
		ref.SetBuffer(tmpl.AppendReply(nil, xid))
		if err := p.Encode(xdr.NewEncoder(ref), &v); err != nil {
			t.Fatalf("reference encode: %v", err)
		}
		bs := xdr.NewBufEncode(nil)
		if err := rp.AppendReply(bs, xid, &v); err != nil {
			t.Fatalf("fused encode: %v", err)
		}
		if !bytes.Equal(bs.Buffer(), ref.Buffer()) {
			t.Fatalf("fused reply differs from template+plan\n got %x\nwant %x", bs.Buffer(), ref.Buffer())
		}

		// Decode side: the fixed-offset path must accept this healthy
		// reply and recover a value that re-encodes identically.
		var got everything
		handled, err := rp.DecodeReply(bs.Buffer(), &got)
		if !handled || err != nil {
			t.Fatalf("DecodeReply handled=%v err=%v", handled, err)
		}
		re := xdr.NewBufEncode(nil)
		if err := p.Encode(xdr.NewEncoder(re), &got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re.Buffer(), ref.Buffer()[tmpl.Len():]) {
			t.Fatal("decoded value re-encodes differently")
		}
	})
}
