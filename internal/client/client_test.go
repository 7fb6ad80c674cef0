package client

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Timeout != 5*time.Second {
		t.Fatalf("Timeout = %v", c.Timeout)
	}
	if c.Retransmit != 500*time.Millisecond {
		t.Fatalf("Retransmit = %v", c.Retransmit)
	}
	if c.BufSize != 8900 {
		t.Fatalf("BufSize = %d", c.BufSize)
	}
	if c.FirstXID == 0 {
		t.Fatal("FirstXID not seeded")
	}
	if c.Cred.Flavor != rpcmsg.AuthNone {
		t.Fatalf("Cred flavor = %d", c.Cred.Flavor)
	}
}

func TestConfigExplicitValuesKept(t *testing.T) {
	c := Config{Timeout: time.Second, Retransmit: time.Millisecond,
		BufSize: 128, FirstXID: 7}
	c.fill()
	if c.Timeout != time.Second || c.Retransmit != time.Millisecond ||
		c.BufSize != 128 || c.FirstXID != 7 {
		t.Fatalf("explicit config overridden: %+v", c)
	}
}

// TestNegativeBufSizeUDPCall: a negative BufSize takes the default like
// zero does, instead of panicking in the UDP reader when it slices the
// receive buffer.
func TestNegativeBufSizeUDPCall(t *testing.T) {
	spc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	s := server.New()
	defer s.Close()
	s.Register(1, 1, 1, func(dec *xdr.XDR) (server.Marshal, error) {
		var v uint32
		if err := dec.Uint32(&v); err != nil {
			return nil, server.ErrGarbageArgs
		}
		return func(x *xdr.XDR) error { v++; return x.Uint32(&v) }, nil
	})
	go func() { _ = s.ServeUDP(spc) }()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewUDP(conn, spc.LocalAddr(), Config{Prog: 1, Vers: 1, BufSize: -1, Timeout: 5 * time.Second})
	defer c.Close()
	arg, got := uint32(41), uint32(0)
	if err := c.Call(1,
		func(x *xdr.XDR) error { return x.Uint32(&arg) },
		func(x *xdr.XDR) error { return x.Uint32(&got) }); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != 42 {
		t.Fatalf("result = %d, want 42", got)
	}
}

func TestRPCErrorStrings(t *testing.T) {
	tests := []struct {
		err  RPCError
		want string
	}{
		{RPCError{Stat: rpcmsg.MsgAccepted, AcceptStat: rpcmsg.ProcUnavail},
			"PROC_UNAVAIL"},
		{RPCError{Stat: rpcmsg.MsgAccepted, AcceptStat: rpcmsg.ProgMismatch,
			Mismatch: rpcmsg.MismatchInfo{Low: 1, High: 3}},
			"server supports 1..3"},
		{RPCError{Stat: rpcmsg.MsgDenied, RejectStat: rpcmsg.AuthError,
			AuthStat: rpcmsg.AuthBadCred},
			"AUTH_ERROR"},
		{RPCError{Stat: rpcmsg.MsgDenied, RejectStat: rpcmsg.RPCMismatch,
			Mismatch: rpcmsg.MismatchInfo{Low: 2, High: 2}},
			"RPC_MISMATCH"},
	}
	for _, tt := range tests {
		if got := tt.err.Error(); !strings.Contains(got, tt.want) {
			t.Errorf("Error() = %q, want substring %q", got, tt.want)
		}
	}
}

func TestVoidMarshaler(t *testing.T) {
	if err := Void(nil); err != nil {
		t.Fatalf("Void = %v", err)
	}
}

// ---------------------------------------------------------------------------
// Call-path specialization: differential and allocation tests

// testEngine builds a bare engine — no transport behind it — for the
// encode-side tests, reserving prefix bytes like the transport that
// would own it.
func testEngine(cfg Config, prefix int) *engine {
	cfg.fill()
	e := new(engine)
	e.init(cfg, nil, traits{prefix: prefix}, 0)
	return e
}

// TestMarshalCallTemplateMatchesGeneric pins the tentpole property on
// the client: every request encoder — the closure path over the header
// template, and the whole-call codec on its fused and generic rungs —
// emits requests byte-identical to the reference
// (rpcmsg.CallHeader.Marshal followed by the argument marshaler), with
// and without a reserved record mark prefix.
func TestMarshalCallTemplateMatchesGeneric(t *testing.T) {
	sysCred, err := (&rpcmsg.SysCred{Stamp: 1, MachineName: "pc", UID: 2, GID: 3}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	arg := []int32{-1, 0x0EEDFACE, 7}
	args := func(x *xdr.XDR) error { return fusedGenPlan.Marshal(x, &arg) }
	for _, cred := range []rpcmsg.OpaqueAuth{rpcmsg.None(), sysCred} {
		cfg := Config{Prog: 0x20000099, Vers: 2, Cred: cred}
		bs := xdr.NewBufEncode(nil)
		enc := xdr.NewEncoder(bs)
		hdr := rpcmsg.CallHeader{XID: 77, Prog: cfg.Prog, Vers: cfg.Vers, Proc: 5,
			Cred: cred, Verf: rpcmsg.None()}
		if err := hdr.Marshal(enc); err != nil {
			t.Fatal(err)
		}
		if err := args(enc); err != nil {
			t.Fatal(err)
		}
		want := bs.Buffer()

		for _, prefix := range []int{0, xdr.RecordMarkLen} {
			e := testEngine(cfg, prefix)
			if e.tmplErr != nil {
				t.Fatalf("template compile failed for ordinary auth: %v", e.tmplErr)
			}
			reqs := map[string]callReq{"closure": {args: args}}
			for plan, rung := range map[*wire.Plan[[]int32]]wire.Rung{fusedArgPlan: wire.RungFused, fusedGenPlan: wire.RungGeneric} {
				p, err := e.lookup(5, plan.Codec(), plan.Codec())
				if err != nil {
					t.Fatal(err)
				}
				if r := procRung(t, e.snapshot(), 5); r != rung {
					t.Fatalf("%v-mode plan resolved to the %v rung", plan.Mode(), r)
				}
				reqs[rung.String()] = callReq{cc: p.call, argp: unsafe.Pointer(&arg)}
			}
			for name, r := range reqs {
				got, err := e.marshalReq(r, 77, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal((*got)[prefix:], want) {
					t.Errorf("%s, prefix %d: request diverged from the reference:\n got %x\nwant %x",
						name, prefix, (*got)[prefix:], want)
				}
				xdr.PutBuf(got)
			}
		}
	}
}

// TestOversizedCredFailsEveryCall: auth material the template compiler
// rejects — which the generic encoder rejects too — fails every call on
// both transports with the one stored error, wrapped as a header marshal
// failure, and puts nothing on the wire.
func TestOversizedCredFailsEveryCall(t *testing.T) {
	cfg := Config{Prog: 1, Vers: 1, Timeout: time.Second,
		Cred: rpcmsg.OpaqueAuth{Flavor: rpcmsg.AuthSys, Body: make([]byte, rpcmsg.MaxAuthBytes+1)}}
	arg := []int32{1}
	var res []int32
	check := func(t *testing.T, what string, err, first error) error {
		t.Helper()
		const want = "client: marshal call header: cred: rpcmsg: auth body exceeds 400 bytes"
		if !errors.Is(err, rpcmsg.ErrAuthTooBig) || err.Error() != want {
			t.Fatalf("%s = %v, want %q wrapping ErrAuthTooBig", what, err, want)
		}
		if first != nil && err != first {
			t.Fatalf("%s returned a fresh error %v, want the stored %v", what, err, first)
		}
		return err
	}
	calls := func(t *testing.T, c CtxCaller) error {
		first := check(t, "Call", c.Call(1, Void, Void), nil)
		check(t, "CallCtx", c.CallCtx(context.Background(), 1, Void, Void), first)
		check(t, "CallTyped", CallTyped(c, 1, fusedArgPlan, &arg, fusedArgPlan, &res), first)
		check(t, "CallTyped (generic plan)", CallTyped(c, 1, fusedGenPlan, &arg, fusedGenPlan, &res), first)
		return first
	}
	for _, tr := range conformanceTransports {
		t.Run(tr.name, func(t *testing.T) {
			p := &fakePeer{seen: make(chan struct{}, 1)}
			c := tr.dial(t, p, cfg)
			first := calls(t, c)
			if tc, ok := c.(*TCP); ok {
				check(t, "CallBatched", tc.CallBatched(1, Void), first)
				if err := tc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			st := c.Snapshot()
			if st.QueuedRecords != 0 {
				t.Fatalf("%d records queued", st.QueuedRecords)
			}
			if n, r := st.InFlight, p.requests.Load(); n != 0 || r != 0 {
				t.Fatalf("in flight %d, requests on the wire %d; want 0, 0", n, r)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Error-path coverage: the demux guards

// successReplyBytes builds an accepted-success reply carrying one uint32.
func successReplyBytes(t *testing.T, xid, result uint32) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	enc := xdr.NewEncoder(bs)
	rh := rpcmsg.AcceptedReply(xid)
	if err := rh.Marshal(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Uint32(&result); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), bs.Buffer()...)
}

func pooledCopy(b []byte) *[]byte {
	bp := xdr.GetBuf(len(b))
	*bp = append((*bp)[:0], b...)
	return bp
}

// TestDrainReply exercises the last-instant check Call makes before
// returning a transport error: a decodable reply already in the channel
// must win, an ill-formed one must not, an empty channel reports none.
func TestDrainReply(t *testing.T) {
	var got uint32
	dec := func(x *xdr.XDR) error { return x.Uint32(&got) }

	ch := make(chan *[]byte, 1)
	ch <- pooledCopy(successReplyBytes(t, 9, 1234))
	ok, err := drainReply(ch, &replySink{fn: dec})
	if !ok || err != nil || got != 1234 {
		t.Fatalf("success reply: ok=%v err=%v got=%d", ok, err, got)
	}

	ch <- pooledCopy([]byte{1, 2, 3})
	if ok, err := drainReply(ch, &replySink{fn: dec}); ok || err != nil {
		t.Fatalf("ill-formed reply: ok=%v err=%v", ok, err)
	}

	if ok, err := drainReply(ch, &replySink{fn: dec}); ok || err != nil {
		t.Fatalf("empty channel: ok=%v err=%v", ok, err)
	}

	// An error reply is still an answer: it must surface as *RPCError,
	// not be masked by the transport error.
	bs := xdr.NewBufEncode(nil)
	eh := rpcmsg.ErrorReply(9, rpcmsg.SystemErr)
	if err := eh.Marshal(xdr.NewEncoder(bs)); err != nil {
		t.Fatal(err)
	}
	ch <- pooledCopy(bs.Buffer())
	ok, err = drainReply(ch, &replySink{fn: Void})
	var rpcErr *RPCError
	if !ok || !errors.As(err, &rpcErr) || rpcErr.AcceptStat != rpcmsg.SystemErr {
		t.Fatalf("error reply: ok=%v err=%v", ok, err)
	}
}

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// TestUDPRetransmitAfterDrop: the first request datagram is dropped by
// the network; the call must retransmit after cfg.Retransmit and
// complete against the echoing responder.
func TestUDPRetransmitAfterDrop(t *testing.T) {
	var sends atomic.Int32
	n := netsim.New(netsim.WithFaults(func(from, to net.Addr, seq int, p []byte) netsim.Verdict {
		if to.String() == "server" && sends.Add(1) == 1 {
			return netsim.Drop
		}
		return netsim.Deliver
	}))
	sep := n.Attach("server")
	defer sep.Close()
	go func() {
		buf := make([]byte, 9000)
		for {
			nr, from, err := sep.ReadFrom(buf)
			if err != nil {
				return
			}
			dec := xdr.NewDecoder(xdr.NewMemDecode(buf[:nr]))
			var hdr rpcmsg.CallHeader
			if hdr.Marshal(dec) != nil {
				continue
			}
			var v uint32
			if dec.Uint32(&v) != nil {
				continue
			}
			if _, err := sep.WriteTo(successReplyBytes(t, hdr.XID, v+1), from); err != nil {
				return
			}
		}
	}()

	cep := n.Attach("client")
	c := NewUDP(cep, netsim.Addr("server"), Config{
		Prog: 1, Vers: 1,
		Timeout:    5 * time.Second,
		Retransmit: 20 * time.Millisecond,
	})
	defer c.Close()

	arg := uint32(41)
	var got uint32
	err := c.Call(1,
		func(x *xdr.XDR) error { return x.Uint32(&arg) },
		func(x *xdr.XDR) error { return x.Uint32(&got) })
	if err != nil {
		t.Fatalf("Call after dropped datagram: %v", err)
	}
	if got != 42 {
		t.Fatalf("result = %d, want 42", got)
	}
	if s := sends.Load(); s < 2 {
		t.Fatalf("saw %d request sends, want a retransmission", s)
	}
}
