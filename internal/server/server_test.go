package server

import (
	"errors"
	"specrpc/internal/netsim"
	"sync/atomic"
	"testing"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

const (
	testProg = uint32(0x20000099)
	testVers = uint32(2)
	procEcho = uint32(1)
	procFail = uint32(2)
)

// echoProc decodes an int32 array and returns it unchanged.
func echoProc(dec *xdr.XDR) (Marshal, error) {
	var arr []int32
	if err := xdr.Array(dec, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil {
		return nil, errors.Join(ErrGarbageArgs, err)
	}
	return func(enc *xdr.XDR) error {
		return xdr.Array(enc, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
	}, nil
}

func newTestServer() *Server {
	s := New()
	s.Register(testProg, testVers, procEcho, echoProc)
	s.Register(testProg, testVers, procFail, func(dec *xdr.XDR) (Marshal, error) {
		return nil, errors.New("handler exploded")
	})
	return s
}

// buildCall marshals a call message for the test program.
func buildCall(t testing.TB, xid, vers, proc uint32, args func(x *xdr.XDR) error) []byte {
	t.Helper()
	buf := make([]byte, 4096)
	mem := xdr.NewMemEncode(buf)
	enc := xdr.NewEncoder(mem)
	h := rpcmsg.CallHeader{XID: xid, Prog: testProg, Vers: vers, Proc: proc,
		Cred: rpcmsg.None(), Verf: rpcmsg.None()}
	if err := h.Marshal(enc); err != nil {
		t.Fatal(err)
	}
	if args != nil {
		if err := args(enc); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), mem.Buffer()...)
}

func decodeReply(t *testing.T, raw []byte) (rpcmsg.ReplyHeader, *xdr.XDR) {
	t.Helper()
	dec := xdr.NewDecoder(xdr.NewMemDecode(raw))
	var rh rpcmsg.ReplyHeader
	if err := rh.Marshal(dec); err != nil {
		t.Fatalf("decode reply header: %v", err)
	}
	return rh, dec
}

func TestHandleCallSuccess(t *testing.T) {
	s := newTestServer()
	in := []int32{4, 5, 6}
	req := buildCall(t, 11, testVers, procEcho, func(x *xdr.XDR) error {
		return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
	out, err := s.handleCall(req, make([]byte, 0, 4096))
	if err != nil {
		t.Fatal(err)
	}
	rh, dec := decodeReply(t, out)
	if rh.XID != 11 || rh.AcceptStat != rpcmsg.Success {
		t.Fatalf("reply header %+v", rh)
	}
	var got []int32
	if err := xdr.Array(dec, &got, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Fatalf("echo result %v", got)
	}
}

func TestHandleCallProgUnavail(t *testing.T) {
	s := newTestServer()
	req := buildCall(t, 1, testVers, procEcho, nil)
	// Rewrite prog field (word index 3) to an unregistered program.
	req[15] = 0x01
	out, err := s.handleCall(req, make([]byte, 0, 1024))
	if err != nil {
		t.Fatal(err)
	}
	rh, _ := decodeReply(t, out)
	if rh.AcceptStat != rpcmsg.ProgUnavail {
		t.Fatalf("stat = %v, want PROG_UNAVAIL", rh.AcceptStat)
	}
}

func TestHandleCallProgMismatch(t *testing.T) {
	s := newTestServer()
	req := buildCall(t, 2, testVers+7, procEcho, nil)
	out, err := s.handleCall(req, make([]byte, 0, 1024))
	if err != nil {
		t.Fatal(err)
	}
	rh, _ := decodeReply(t, out)
	if rh.AcceptStat != rpcmsg.ProgMismatch {
		t.Fatalf("stat = %v, want PROG_MISMATCH", rh.AcceptStat)
	}
	if rh.Mismatch.Low != testVers || rh.Mismatch.High != testVers {
		t.Fatalf("mismatch range %+v, want [%d,%d]", rh.Mismatch, testVers, testVers)
	}
}

func TestHandleCallProcUnavail(t *testing.T) {
	s := newTestServer()
	req := buildCall(t, 3, testVers, 99, nil)
	out, err := s.handleCall(req, make([]byte, 0, 1024))
	if err != nil {
		t.Fatal(err)
	}
	rh, _ := decodeReply(t, out)
	if rh.AcceptStat != rpcmsg.ProcUnavail {
		t.Fatalf("stat = %v, want PROC_UNAVAIL", rh.AcceptStat)
	}
}

func TestHandleCallGarbageArgs(t *testing.T) {
	s := newTestServer()
	// Echo expects an array; send a truncated message (header only).
	req := buildCall(t, 4, testVers, procEcho, nil)
	out, err := s.handleCall(req, make([]byte, 0, 1024))
	if err != nil {
		t.Fatal(err)
	}
	rh, _ := decodeReply(t, out)
	if rh.AcceptStat != rpcmsg.GarbageArgs {
		t.Fatalf("stat = %v, want GARBAGE_ARGS", rh.AcceptStat)
	}
}

func TestHandleCallSystemErr(t *testing.T) {
	s := newTestServer()
	req := buildCall(t, 5, testVers, procFail, nil)
	out, err := s.handleCall(req, make([]byte, 0, 1024))
	if err != nil {
		t.Fatal(err)
	}
	rh, _ := decodeReply(t, out)
	if rh.AcceptStat != rpcmsg.SystemErr {
		t.Fatalf("stat = %v, want SYSTEM_ERR", rh.AcceptStat)
	}
}

func TestHandleCallBadHeader(t *testing.T) {
	s := newTestServer()
	if _, err := s.handleCall([]byte{1, 2, 3}, make([]byte, 64)); err == nil {
		t.Fatal("expected error for truncated header")
	}
}

func TestRegisterVersionRange(t *testing.T) {
	s := New()
	s.Register(testProg, 3, 1, echoProc)
	s.Register(testProg, 5, 1, echoProc)
	req := buildCall(t, 6, 4, procEcho, nil)
	out, err := s.handleCall(req, make([]byte, 0, 1024))
	if err != nil {
		t.Fatal(err)
	}
	rh, _ := decodeReply(t, out)
	// Version 4 is inside the advertised [3,5] range but has no handler:
	// the original svc dispatch reported PROC_UNAVAIL in that case.
	if rh.AcceptStat != rpcmsg.ProcUnavail {
		t.Fatalf("stat = %v", rh.AcceptStat)
	}

	req = buildCall(t, 7, 9, procEcho, nil)
	out, err = s.handleCall(req, make([]byte, 0, 1024))
	if err != nil {
		t.Fatal(err)
	}
	rh, _ = decodeReply(t, out)
	if rh.AcceptStat != rpcmsg.ProgMismatch || rh.Mismatch.Low != 3 || rh.Mismatch.High != 5 {
		t.Fatalf("stat = %v range %+v", rh.AcceptStat, rh.Mismatch)
	}
}

func TestReplyCache(t *testing.T) {
	peer := makePeerKey(netsim.Addr("peer"))
	other := makePeerKey(netsim.Addr("other"))
	c := newCallTable(2)
	k := func(p peerKey, xid uint32) cacheKey { return cacheKey{p, xid} }
	store(t, c, k(peer, 1), echoKey, []byte{1})
	store(t, c, k(peer, 2), echoKey, []byte{2})
	if _, st := c.begin(k(peer, 1), echoKey, nil); st != callCached {
		t.Fatal("entry 1 missing")
	}
	store(t, c, k(peer, 3), echoKey, []byte{3}) // evicts xid 1 (FIFO)
	if _, st := c.begin(k(peer, 1), echoKey, nil); st != callClaimed {
		t.Fatal("entry 1 should be evicted")
	}
	c.finish(k(peer, 1), []byte{1}) // evicts xid 2
	if got, st := c.begin(k(peer, 3), echoKey, nil); st != callCached || got[0] != 3 {
		t.Fatalf("entry 3: %v %v", got, st)
	}
	// Another call under the same key takes it over in place, without
	// eviction.
	fail := procKey{testProg, testVers, procFail}
	store(t, c, k(peer, 3), fail, []byte{9})
	if got, st := c.begin(k(peer, 3), fail, nil); st != callCached || got[0] != 9 {
		t.Fatalf("takeover failed: %v %v", got, st)
	}
	if _, st := c.begin(k(peer, 1), echoKey, nil); st != callCached {
		t.Fatal("takeover evicted entry 1")
	}
	// Keys are per-peer.
	if _, st := c.begin(k(other, 3), fail, nil); st != callClaimed {
		t.Fatal("cache leaked across peers")
	}
}

func TestHandlerExecutionCount(t *testing.T) {
	var count atomic.Int32
	s := New()
	s.Register(testProg, testVers, 1, func(dec *xdr.XDR) (Marshal, error) {
		count.Add(1)
		return func(*xdr.XDR) error { return nil }, nil
	})
	req := buildCall(t, 8, testVers, 1, nil)
	if _, err := s.handleCall(req, make([]byte, 0, 1024)); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1 {
		t.Fatalf("handler ran %d times", count.Load())
	}
}
