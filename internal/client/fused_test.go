package client

import (
	"errors"
	"sync"
	"testing"
	"time"

	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// These tests cover the fused whole-call path end to end on the live
// transports, plus the demux-path regressions this PR fixes: the XID
// collision after counter wrap and the silent truncation of
// buffer-filling datagrams.

const (
	fusedProg = uint32(0x20000777)
	fusedVers = uint32(1)
	fusedProc = uint32(1)
)

var (
	fusedArgPlan = wire.MustPlan[[]int32](wire.VarArrayT(0, wire.Int32T()), wire.Specialized)
	fusedGenPlan = wire.MustPlan[[]int32](wire.VarArrayT(0, wire.Int32T()), wire.Generic)
)

// newFusedSimPair builds a netsim network with an echo server
// registered through RegisterTyped and a UDP client attached to it.
func newFusedSimPair(t *testing.T, cfg Config) (*UDP, *server.Server) {
	t.Helper()
	n := netsim.New()
	srv := server.New()
	server.RegisterTyped(srv, fusedProg, fusedVers, fusedProc, fusedArgPlan, fusedArgPlan,
		func(arg *[]int32) (*[]int32, error) { return arg, nil })
	sep := n.Attach("server")
	go func() { _ = srv.ServeUDP(sep) }()
	cfg.Prog, cfg.Vers = fusedProg, fusedVers
	c := NewUDP(n.Attach("client"), netsim.Addr("server"), cfg)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return c, srv
}

// entryRung reports the rung proc's cached whole-call codecs for the
// plan pair run on; the two sides of one plan always share one.
func entryRung(t *testing.T, e *engine, proc uint32, plan *wire.Plan[[]int32]) wire.Rung {
	t.Helper()
	p, err := e.lookup(proc, plan.Codec(), plan.Codec())
	if err != nil {
		t.Fatal(err)
	}
	if p.call.Rung() != p.rep.Rung() {
		t.Fatalf("call on %v, reply on %v", p.call.Rung(), p.rep.Rung())
	}
	return p.call.Rung()
}

// TestCallTypedFusedRoundTrip drives typed calls over netsim and checks
// that they actually took the fused path: the per-procedure plan cache
// must hold a compiled whole-call codec afterwards.
func TestCallTypedFusedRoundTrip(t *testing.T) {
	c, _ := newFusedSimPair(t, Config{Timeout: 5 * time.Second})
	in := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	var out []int32
	for i := 0; i < 3; i++ {
		if err := CallTyped(c, fusedProc, fusedArgPlan, &in, fusedArgPlan, &out); err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) || out[0] != 3 || out[7] != 6 {
			t.Fatalf("bad echo: %v", out)
		}
	}
	if r := entryRung(t, &c.engine, fusedProc, fusedArgPlan); r != wire.RungFused {
		t.Fatalf("typed call over a hand-built specialized plan ran on the %v rung", r)
	}
}

// TestCallTypedGenericPlanFallsBack: interpretive-mode plans have no
// flat program to fuse, so CallTyped and RegisterTyped serve them on the
// generic rung of the same whole-message codecs — and still round-trip.
func TestCallTypedGenericPlanFallsBack(t *testing.T) {
	c, srv := newFusedSimPair(t, Config{Timeout: 5 * time.Second})
	server.RegisterTyped(srv, fusedProg, fusedVers, 2, fusedGenPlan, fusedGenPlan,
		func(arg *[]int32) (*[]int32, error) { return arg, nil })
	in := []int32{7, 8}
	var out []int32
	if err := CallTyped(c, 2, fusedGenPlan, &in, fusedGenPlan, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1] != 8 {
		t.Fatalf("bad echo: %v", out)
	}
	if r := entryRung(t, &c.engine, 2, fusedGenPlan); r != wire.RungGeneric {
		t.Fatalf("generic plan ran on the %v rung", r)
	}
}

// TestCallTypedPlanSwitchRecompiles: the fused cache keys on the plan
// pair in hand — a cached entry never serves a different pair, and
// switching plans on one procedure re-resolves instead of inheriting
// the first caller's decision, so a generic-plan call cannot
// permanently de-optimize a procedure.
func TestCallTypedPlanSwitchRecompiles(t *testing.T) {
	c, _ := newFusedSimPair(t, Config{Timeout: 5 * time.Second})
	in := []int32{1, 2, 3}
	var out []int32
	// First caller uses interpretive plans: an entry on the generic rung.
	if err := CallTyped(c, fusedProc, fusedGenPlan, &in, fusedGenPlan, &out); err != nil {
		t.Fatal(err)
	}
	if r := entryRung(t, &c.engine, fusedProc, fusedGenPlan); r != wire.RungGeneric {
		t.Fatalf("generic pair ran on the %v rung", r)
	}
	// A later caller with specialized plans must still get fusion.
	if err := CallTyped(c, fusedProc, fusedArgPlan, &in, fusedArgPlan, &out); err != nil {
		t.Fatal(err)
	}
	if r := entryRung(t, &c.engine, fusedProc, fusedArgPlan); r != wire.RungFused {
		t.Fatalf("specialized pair ran on the %v rung after a generic-plan call", r)
	}
	// And a distinct-but-equivalent specialized pair round-trips too.
	other := wire.MustPlan[[]int32](wire.VarArrayT(0, wire.Int32T()), wire.Specialized)
	if err := CallTyped(c, fusedProc, other, &in, other, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[2] != 3 {
		t.Fatalf("bad echo: %v", out)
	}
}

// TestFusedErrorRepliesSurface: non-success replies must carry full
// RFC detail through the fused path's interpretive fallback.
func TestFusedErrorRepliesSurface(t *testing.T) {
	c, _ := newFusedSimPair(t, Config{Timeout: 5 * time.Second})
	in := []int32{1}
	var out []int32
	err := CallTyped(c, uint32(99), fusedArgPlan, &in, fusedArgPlan, &out) // unregistered proc
	var rpcErr *RPCError
	if !errors.As(err, &rpcErr) || rpcErr.AcceptStat != rpcmsg.ProcUnavail {
		t.Fatalf("err = %v, want PROC_UNAVAIL", err)
	}
}

// TestXIDWrapCollision is the demux regression: when the 32-bit XID
// counter comes back around while a slow call from the previous epoch
// is still in flight, the second call must be fenced onto a fresh XID.
// Before the fix the second registration silently replaced the first
// call's reply slot, so the first reply was delivered to the wrong
// waiter (wrong results) and the first call timed out.
func TestXIDWrapCollision(t *testing.T) {
	n := netsim.New()
	sep := n.Attach("server")
	cep := n.Attach("client")
	// Seed the counter two below wrap so the collision crosses it.
	c := NewUDP(cep, netsim.Addr("server"), Config{
		Prog: fusedProg, Vers: fusedVers,
		FirstXID: ^uint32(0) - 1, Timeout: 5 * time.Second, Retransmit: 2 * time.Second,
	})
	defer c.Close()

	// Hand-rolled responder: hold the first request until the second
	// arrives, then answer them oldest-first so the first reply is the
	// one a collided slot would misdeliver.
	type pending struct {
		xid uint32
		arg uint32
	}
	reqs := make(chan pending, 2)
	go func() {
		buf := make([]byte, 2048)
		for i := 0; i < 2; i++ {
			nr, _, err := sep.ReadFrom(buf)
			if err != nil {
				return
			}
			xid, _, _, _, body, ok := rpcmsg.CallBody(buf[:nr])
			if !ok || len(body) < 4 {
				continue
			}
			reqs <- pending{xid: xid, arg: uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3])}
		}
	}()

	uintArg := func(v uint32) Marshal {
		return func(x *xdr.XDR) error { return x.Uint32(&v) }
	}
	call := func(arg uint32, got *uint32) error {
		return c.Call(fusedProc, uintArg(arg), func(x *xdr.XDR) error { return x.Uint32(got) })
	}

	var wg sync.WaitGroup
	var got1, got2 uint32
	var err1, err2 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		err1 = call(111, &got1)
	}()
	first := <-reqs

	// Simulate 2^32 intervening calls: rewind the counter so the next
	// call would claim the in-flight XID again.
	c.xid.Store(first.xid - 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		err2 = call(222, &got2)
	}()
	second := <-reqs
	if second.xid == first.xid {
		t.Fatalf("second call reused in-flight xid %#x", first.xid)
	}

	// Answer oldest-first.
	reply := func(p pending) {
		if _, err := sep.WriteTo(successReplyBytes(t, p.xid, p.arg), netsim.Addr("client")); err != nil {
			t.Error(err)
		}
	}
	reply(first)
	reply(second)
	wg.Wait()
	if err1 != nil || got1 != 111 {
		t.Errorf("first call: err=%v got=%d want 111", err1, got1)
	}
	if err2 != nil || got2 != 222 {
		t.Errorf("second call: err=%v got=%d want 222", err2, got2)
	}
}

// TestTruncatedReplyDropped is the datagram-truncation regression: a
// reply that fills the read buffer exactly is indistinguishable from a
// kernel-truncated one and must be discarded (counted), not parsed as
// if complete. Before the fix the truncated prefix reached the result
// unmarshaler and surfaced a bogus decode error (or worse, a wrong
// value); after it the call simply retransmits and times out.
func TestTruncatedReplyDropped(t *testing.T) {
	n := netsim.New()
	sep := n.Attach("server")
	cep := n.Attach("client")
	c := NewUDP(cep, netsim.Addr("server"), Config{
		Prog: fusedProg, Vers: fusedVers,
		BufSize: 512, Timeout: 400 * time.Millisecond, Retransmit: 100 * time.Millisecond,
	})
	defer c.Close()

	// Responder: answer every request with an 800-byte opaque result —
	// larger than the client's 512-byte datagram buffer, so every copy
	// of the reply arrives truncated.
	go func() {
		buf := make([]byte, 2048)
		for {
			nr, _, err := sep.ReadFrom(buf)
			if err != nil {
				return
			}
			xid, ok := rpcmsg.PeekXID(buf[:nr])
			if !ok {
				continue
			}
			bs := xdr.NewBufEncode(nil)
			enc := xdr.NewEncoder(bs)
			rh := rpcmsg.AcceptedReply(xid)
			if err := rh.Marshal(enc); err != nil {
				return
			}
			big := make([]byte, 800)
			if err := enc.Bytes(&big, xdr.NoSizeLimit); err != nil {
				return
			}
			if _, err := sep.WriteTo(bs.Buffer(), netsim.Addr("client")); err != nil {
				return
			}
		}
	}()

	var out []byte
	err := c.Call(fusedProc, Void, func(x *xdr.XDR) error { return x.Bytes(&out, xdr.NoSizeLimit) })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout (truncated replies must be dropped, not parsed)", err)
	}
	if c.TruncatedDrops() == 0 {
		t.Fatal("truncation drop counter did not advance")
	}
}

// TestExactBufSizeRequestRejected pins the send-side bound as
// exclusive: a request that would exactly fill the receiver's buffer
// is indistinguishable from a truncated one on arrival and is dropped
// there, so the client must fail it fast instead of burning the
// timeout retransmitting.
func TestExactBufSizeRequestRejected(t *testing.T) {
	c, _ := newFusedSimPair(t, Config{Timeout: 2 * time.Second, BufSize: 512})
	// 40-byte AUTH_NULL header + 4-byte count + 4*117 = exactly 512.
	in := make([]int32, 117)
	var out []int32
	err := CallTyped(c, fusedProc, fusedArgPlan, &in, fusedArgPlan, &out)
	if !errors.Is(err, xdr.ErrOverflow) {
		t.Fatalf("err = %v, want marshal overflow", err)
	}
	// One element fewer stays under the bound and round-trips.
	in = in[:116]
	if err := CallTyped(c, fusedProc, fusedArgPlan, &in, fusedArgPlan, &out); err != nil {
		t.Fatal(err)
	}
}
