package server

import (
	"bytes"
	"errors"
	"testing"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// FuzzHandleCall feeds arbitrary bytes to the single dispatch path, over
// a server holding every kind of handler: closure, typed on a fused
// plan, typed on a Generic-mode plan, failing, panicking, and one-way.
// handleCall must never panic; it returns an error exactly when the
// reference header walk (CallHeader.Marshal) rejects the input; every
// reply it emits parses with ReplyHeader.Marshal, echoes the request's
// XID and leaves the caller's reserved prefix untouched; and it emits
// none only for a call the one-way handler received.
func FuzzHandleCall(f *testing.F) {
	// Bounded arrays throughout: an unbounded count would let the fuzzer
	// find the handlers' allocations instead of the dispatch path's bugs.
	const bound = 64
	plan := wire.MustPlan[[]int32](wire.VarArrayT(bound, wire.Int32T()), wire.Specialized)
	genPlan := wire.MustPlan[[]int32](wire.VarArrayT(bound, wire.Int32T()), wire.Generic)
	echo := func(arg *[]int32) (*[]int32, error) { return arg, nil }
	s := New()
	s.Register(testProg, testVers, procEcho, func(dec *xdr.XDR) (Marshal, error) {
		var arr []int32
		if err := xdr.Array(dec, &arr, bound, (*xdr.XDR).Long); err != nil {
			return nil, errors.Join(ErrGarbageArgs, err)
		}
		return func(enc *xdr.XDR) error { return xdr.Array(enc, &arr, bound, (*xdr.XDR).Long) }, nil
	})
	s.Register(testProg, testVers, procFail, func(*xdr.XDR) (Marshal, error) {
		return nil, errors.New("handler exploded")
	})
	s.Register(testProg, testVers, procPanic, func(*xdr.XDR) (Marshal, error) { panic("handler bug") })
	s.Register(testProg, testVers, procOneWay, func(*xdr.XDR) (Marshal, error) { return nil, ErrNoReply })
	RegisterTyped(s, testProg, testVers, 3, plan, plan, echo)
	RegisterTyped(s, testProg, testVers+2, 3, genPlan, genPlan, echo)

	arr := []int32{1, 2, 3}
	args := func(x *xdr.XDR) error { return xdr.Array(x, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long) }
	for _, c := range []struct{ vers, proc uint32 }{
		{testVers, procEcho}, {testVers, procFail}, {testVers, procPanic}, {testVers, procOneWay}, {testVers, 3},
		{testVers + 2, 3}, {testVers + 1, 3}, {testVers + 9, 3}, {testVers, 99},
	} {
		f.Add(buildCall(f, 7, c.vers, c.proc, args))
	}
	f.Add(buildCall(f, 7, testVers, 3, nil)) // header only: GARBAGE_ARGS
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0}) // xid + CALL, then truncated

	prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	f.Fuzz(func(t *testing.T, req []byte) {
		var ref rpcmsg.CallHeader
		refErr := ref.Marshal(xdr.NewDecoder(xdr.NewMemDecode(req)))

		out, err := s.handleCall(req, append(make([]byte, 0, 64), prefix...))
		if (err != nil) != (refErr != nil) {
			t.Fatalf("handleCall err=%v, reference header walk err=%v on %x", err, refErr, req)
		}
		if err != nil {
			return
		}
		if out == nil {
			if ref.Prog != testProg || ref.Vers != testVers || ref.Proc != procOneWay {
				t.Fatalf("no reply to a call for prog %#x vers %d proc %d: %x", ref.Prog, ref.Vers, ref.Proc, req)
			}
			return
		}
		if !bytes.HasPrefix(out, prefix) {
			t.Fatalf("reserved prefix clobbered: %x", out)
		}
		var rh rpcmsg.ReplyHeader
		if err := rh.Marshal(xdr.NewDecoder(xdr.NewMemDecode(out[len(prefix):]))); err != nil {
			t.Fatalf("reply does not parse: %v (%x)", err, out)
		}
		if rh.XID != ref.XID {
			t.Fatalf("reply xid %d, request xid %d", rh.XID, ref.XID)
		}
	})
}
