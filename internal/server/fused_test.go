package server

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// Every way of registering a procedure must be observationally
// identical: same replies byte for byte, for success and for every
// error outcome. These tests register the same echo through Register,
// through RegisterTyped with specialized plans, and through
// RegisterTyped with Generic-mode plans, then compare handleCall's
// output with a reference built by ReplyHeader.Marshal.

var (
	fusedTestPlan   = wire.MustPlan[[]int32](wire.VarArrayT(0, wire.Int32T()), wire.Specialized)
	genericTestPlan = wire.MustPlan[[]int32](wire.VarArrayT(0, wire.Int32T()), wire.Generic)
)

// newTypedServer registers the echo (and a failing proc) through the
// typed entry point over plan.
func newTypedServerOn(plan *wire.Plan[[]int32]) *Server {
	s := New()
	RegisterTyped(s, testProg, testVers, procEcho, plan, plan,
		func(arg *[]int32) (*[]int32, error) { return arg, nil })
	RegisterTyped(s, testProg, testVers, procFail, plan, plan,
		func(arg *[]int32) (*[]int32, error) { return nil, errors.New("handler exploded") })
	return s
}

func newTypedServer() *Server { return newTypedServerOn(fusedTestPlan) }

// newClosureServer is the same service through closure registrations.
func newClosureServer() *Server {
	s := New()
	s.Register(testProg, testVers, procEcho, func(dec *xdr.XDR) (Marshal, error) {
		var arr []int32
		if err := fusedTestPlan.Marshal(dec, &arr); err != nil {
			return nil, errors.Join(ErrGarbageArgs, err)
		}
		return func(enc *xdr.XDR) error { return fusedTestPlan.Marshal(enc, &arr) }, nil
	})
	s.Register(testProg, testVers, procFail, func(dec *xdr.XDR) (Marshal, error) {
		var arr []int32
		if err := fusedTestPlan.Marshal(dec, &arr); err != nil {
			return nil, errors.Join(ErrGarbageArgs, err)
		}
		return nil, errors.New("handler exploded")
	})
	return s
}

// referenceReply builds a reply the interpretive way: ReplyHeader.Marshal
// and, for a success, the results through the generic array marshaler.
func referenceReply(t *testing.T, rh rpcmsg.ReplyHeader, results []int32) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	enc := xdr.NewEncoder(bs)
	if err := rh.Marshal(enc); err != nil {
		t.Fatal(err)
	}
	if rh.AcceptStat == rpcmsg.Success {
		if err := xdr.Array(enc, &results, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil {
			t.Fatal(err)
		}
	}
	return bs.Buffer()
}

func TestTypedDispatchByteIdentical(t *testing.T) {
	servers := map[string]*Server{
		"closure":       newClosureServer(),
		"typed":         newTypedServer(),
		"typed-generic": newTypedServerOn(genericTestPlan),
	}
	// A second registered version makes the mismatch bounds distinct.
	for _, s := range servers {
		s.Register(testProg, testVers+3, procEcho, echoProc)
	}

	in := []int32{4, 5, 6, 7}
	inArgs := func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) }
	mismatch := rpcmsg.ErrorReply(16, rpcmsg.ProgMismatch)
	mismatch.Mismatch = rpcmsg.MismatchInfo{Low: testVers, High: testVers + 3}
	cases := []struct {
		name string
		req  []byte
		want rpcmsg.ReplyHeader
	}{
		{"success", buildCall(t, 11, testVers, procEcho, inArgs), rpcmsg.AcceptedReply(11)},
		// Truncated argument body: a count with no elements behind it.
		{"garbage", append(buildCall(t, 12, testVers, procEcho, nil), 0, 0, 0, 9),
			rpcmsg.ErrorReply(12, rpcmsg.GarbageArgs)},
		{"system-err", buildCall(t, 13, testVers, procFail, inArgs), rpcmsg.ErrorReply(13, rpcmsg.SystemErr)},
		{"proc-unavail", buildCall(t, 14, testVers, 99, nil), rpcmsg.ErrorReply(14, rpcmsg.ProcUnavail)},
		{"prog-unavail", func() []byte {
			b := buildCall(t, 15, testVers, procEcho, nil)
			b[15] = 0x42 // clobber prog
			return b
		}(), rpcmsg.ErrorReply(15, rpcmsg.ProgUnavail)},
		{"prog-mismatch", buildCall(t, 16, testVers+9, procEcho, nil), mismatch},
	}
	for _, tc := range cases {
		want := referenceReply(t, tc.want, in)
		for name, s := range servers {
			// A reserved prefix, as the stream path passes: the reply must
			// follow it and leave it alone, on the rewind paths too.
			prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF}
			got, err := s.handleCall(tc.req, append(make([]byte, 0, 4096), prefix...))
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, name, err)
			}
			if !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], want) {
				t.Errorf("%s/%s: reply differs from the reference\n got %x\nwant %x%x", tc.name, name, got, prefix, want)
			}
		}
	}
}

// TestTypedDispatchVoidResult: a handler returning a nil result replies
// with the bare success header on both paths.
func TestTypedDispatchVoidResult(t *testing.T) {
	s := New()
	RegisterTyped(s, testProg, testVers, 5, fusedTestPlan, fusedTestPlan,
		func(arg *[]int32) (*[]int32, error) { return nil, nil })
	req := buildCall(t, 21, testVers, 5, func(x *xdr.XDR) error {
		arr := []int32{1}
		return xdr.Array(x, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
	out, err := s.handleCall(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	rh, dec := decodeReply(t, out)
	if rh.XID != 21 || rh.AcceptStat != rpcmsg.Success {
		t.Fatalf("reply header %+v", rh)
	}
	if dec.Pos() != len(out) {
		t.Fatalf("void reply carries %d body bytes", len(out)-dec.Pos())
	}
}

// TestTypedArgumentsBelongToTheServer pins RegisterTyped's contract from
// the side a handler can get wrong: arguments are valid until the
// handler returns. The value, backing arrays included, is the
// procedure's own and the next call is decoded over it, so a slice a
// handler kept reads as a later call's argument — while a result that
// aliases the argument is safe, being encoded before the value is
// reused.
func TestTypedArgumentsBelongToTheServer(t *testing.T) {
	for name, plan := range map[string]*wire.Plan[[]int32]{"specialized": fusedTestPlan, "generic": genericTestPlan} {
		s := New()
		var kept []int32
		RegisterTyped(s, testProg, testVers, procEcho, plan, plan,
			func(arg *[]int32) (*[]int32, error) {
				kept = *arg // the bug: no copy
				return arg, nil
			})
		call := func(xid uint32, in []int32) []int32 {
			req := buildCall(t, xid, testVers, procEcho, func(x *xdr.XDR) error {
				return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
			})
			out, err := s.handleCall(req, nil)
			if err != nil {
				t.Fatal(err)
			}
			rh, dec := decodeReply(t, out)
			var got []int32
			if err := xdr.Array(dec, &got, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil || rh.XID != xid {
				t.Fatalf("%s: reply %+v, %v", name, rh, err)
			}
			return got
		}
		if got := call(1, []int32{1, 2, 3}); !slices.Equal(got, []int32{1, 2, 3}) || !slices.Equal(kept, got) {
			t.Fatalf("%s: first call echoed %v, handler kept %v", name, got, kept)
		}
		// The pool may drop a value between two calls (a collection; one
		// put in four under the race detector), so "the next call
		// overwrites it" is checked as "one of the next few does".
		overwritten := false
		for xid := uint32(2); xid < 100 && !overwritten; xid++ {
			prev, in := kept, []int32{-int32(xid), 8, 9}
			if got := call(xid, in); !slices.Equal(got, in) {
				t.Fatalf("%s: call %d echoed %v, want %v", name, xid, got, in)
			}
			overwritten = slices.Equal(prev, in)
		}
		if !overwritten {
			t.Fatalf("%s: in 98 calls no kept argument was overwritten by the call after it: arguments are not being reused", name)
		}
	}
}

// TestRegisterReplacesTypedHandler: the table holds one handler per
// triple, so re-registering through the other API replaces it — in
// either direction — instead of leaving a stale entry to shadow it.
func TestRegisterReplacesTypedHandler(t *testing.T) {
	req := buildCall(t, 51, testVers, procFail, func(x *xdr.XDR) error {
		arr := []int32{1}
		return xdr.Array(x, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
	stat := func(s *Server) rpcmsg.AcceptStat {
		out, err := s.handleCall(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		rh, _ := decodeReply(t, out)
		return rh.AcceptStat
	}
	s := newTypedServer() // procFail: SYSTEM_ERR
	s.Register(testProg, testVers, procFail, echoProc)
	if got := stat(s); got != rpcmsg.Success {
		t.Fatalf("after closure re-registration: %v, want the closure handler's SUCCESS", got)
	}
	RegisterTyped(s, testProg, testVers, procFail, fusedTestPlan, fusedTestPlan,
		func(arg *[]int32) (*[]int32, error) { return nil, errors.New("handler exploded") })
	if got := stat(s); got != rpcmsg.SystemErr {
		t.Fatalf("after typed re-registration: %v, want the typed handler's SYSTEM_ERR", got)
	}
}

// TestServeUDPTruncatedRequestDropped is the server half of the
// datagram-truncation regression: a request that fills the receive
// buffer exactly must be dropped and counted, never parsed. Before the
// fix the truncated prefix went through handleCall as if complete.
func TestServeUDPTruncatedRequestDropped(t *testing.T) {
	n := netsim.New()
	sep := n.Attach("server")
	s := newTypedServer()
	// Small datagram buffer so an oversized request is cheap to build.
	s.bufSize = 256
	go func() { _ = s.ServeUDP(sep) }()
	defer s.Close()

	cep := n.Attach("client")
	// An in-bounds request round-trips.
	in := []int32{1, 2, 3}
	req := buildCall(t, 31, testVers, procEcho, func(x *xdr.XDR) error {
		return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
	if _, err := cep.WriteTo(req, netsim.Addr("server")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if err := cep.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cep.ReadFrom(buf); err != nil {
		t.Fatalf("small request got no reply: %v", err)
	}

	// A buffer-filling request is dropped silently and counted.
	big := make([]int32, 200) // 40-byte header + 804 array bytes >> 256
	bigReq := buildCall(t, 32, testVers, procEcho, func(x *xdr.XDR) error {
		return xdr.Array(x, &big, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
	if _, err := cep.WriteTo(bigReq, netsim.Addr("server")); err != nil {
		t.Fatal(err)
	}
	if err := cep.SetReadDeadline(time.Now().Add(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cep.ReadFrom(buf); err == nil {
		t.Fatal("truncated request was answered")
	}
	if s.TruncatedDrops() == 0 {
		t.Fatal("truncation drop counter did not advance")
	}
}

// TestPeerKeySemantics: the allocation-free key must distinguish what
// the old peer-string key distinguished.
func TestPeerKeySemantics(t *testing.T) {
	u1 := makePeerKey(&net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 111})
	u1b := makePeerKey(&net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 111})
	u2 := makePeerKey(&net.UDPAddr{IP: net.IPv4(10, 0, 0, 2), Port: 111})
	u3 := makePeerKey(&net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 112})
	if u1 != u1b {
		t.Error("identical UDP peers compare unequal")
	}
	if u1 == u2 || u1 == u3 {
		t.Error("distinct UDP peers collide")
	}
	s1 := makePeerKey(netsim.Addr("client-a"))
	s2 := makePeerKey(netsim.Addr("client-b"))
	if s1 == s2 {
		t.Error("distinct sim peers collide")
	}
	if s1 != makePeerKey(netsim.Addr("client-a")) {
		t.Error("identical sim peers compare unequal")
	}
	long := netsim.Addr("a-peer-name-well-beyond-the-inline-window-capacity")
	l1, l2 := makePeerKey(long), makePeerKey(long)
	if l1 != l2 {
		t.Error("identical long peers compare unequal")
	}
	if l1 == s1 {
		t.Error("long and short peers collide")
	}
}

// TestPeerKeyAllocFree pins the per-datagram key construction and the
// call table's claim/finish cycle at zero allocations — the hot-path
// cost the peer+xid string key used to pay on every datagram.
func TestPeerKeyAllocFree(t *testing.T) {
	udp := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1).To4(), Port: 2049}
	sim := netsim.Addr("client")
	c := newCallTable(4)
	reply := make([]byte, 40)
	for _, tc := range []struct {
		name string
		addr net.Addr
	}{{"udp", udp}, {"sim", sim}} {
		addr := tc.addr
		xid := uint32(0)
		cycle := func() {
			k := cacheKey{makePeerKey(addr), xid}
			if _, st := c.begin(k, echoKey, nil); st != callClaimed {
				t.Fatal("claim refused")
			}
			c.finish(k, reply)
			xid++
		}
		for i := 0; i < 8; i++ {
			cycle() // fill the ring: every measured finish evicts
		}
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("%s: %v allocs per datagram key cycle, want 0", tc.name, n)
		}
	}
}

// TestExactBufSizeReplyBecomesSystemErr pins the reply-side bound as
// exclusive: a success reply that would exactly fill a peer's receive
// buffer would be dropped there as possibly truncated, so the server
// must replace it with SYSTEM_ERR just like a strictly-oversized one.
func TestExactBufSizeReplyBecomesSystemErr(t *testing.T) {
	n := netsim.New()
	sep := n.Attach("server")
	s := newTypedServer()
	s.bufSize = 512
	go func() { _ = s.ServeUDP(sep) }()
	defer s.Close()

	// A small request whose reply is 24-byte success header + 4-byte
	// count + 4*121 = exactly 512 bytes.
	big := make([]int32, 121)
	RegisterTyped(s, testProg, testVers, 6, fusedTestPlan, fusedTestPlan,
		func(arg *[]int32) (*[]int32, error) { return &big, nil })

	cep := n.Attach("client")
	in := []int32{}
	req := buildCall(t, 41, testVers, 6, func(x *xdr.XDR) error {
		return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
	if _, err := cep.WriteTo(req, netsim.Addr("server")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if err := cep.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	nr, _, err := cep.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	rh, _ := decodeReply(t, buf[:nr])
	if rh.XID != 41 || rh.AcceptStat != rpcmsg.SystemErr {
		t.Fatalf("reply header %+v, want SYSTEM_ERR", rh)
	}
}
