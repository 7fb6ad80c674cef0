package server

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// Handler panic containment: a panicking Proc or typed handler is
// answered with SYSTEM_ERR (RFC 1057's "memory allocation failure or
// the like"), counted, and leaves its datagram worker or stream
// connection serving. Before the containment the panic unwound the
// worker goroutine and took the whole process — and this test — down.

const (
	procPanic      = uint32(7)
	procPanicTyped = uint32(8)
)

// newPanicServer registers the echo plus one panicking handler per
// registration API, counting executions.
func newPanicServer(runs *atomic.Int32) *Server {
	s := newTestServer()
	s.Register(testProg, testVers, procPanic, func(*xdr.XDR) (Marshal, error) {
		runs.Add(1)
		panic("closure handler bug")
	})
	RegisterTyped(s, testProg, testVers, procPanicTyped, fusedTestPlan, fusedTestPlan,
		func(arg *[]int32) (*[]int32, error) {
			runs.Add(1)
			return &[]int32{(*arg)[len(*arg)]}, nil // index out of range: a runtime panic
		})
	return s
}

func wantSystemErr(t *testing.T, what string, err error) {
	t.Helper()
	var re *client.RPCError
	if !errors.As(err, &re) || re.AcceptStat != rpcmsg.SystemErr {
		t.Fatalf("%s: err = %v, want SYSTEM_ERR", what, err)
	}
}

func echoOnce(t *testing.T, c client.Caller) {
	t.Helper()
	in := []int32{3, 1, 4}
	var out []int32
	err := c.Call(procEcho,
		func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) },
		func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
	if err != nil || len(out) != 3 || out[2] != 4 {
		t.Fatalf("echo after a handler panic: %v, %v", out, err)
	}
}

func TestHandlerPanicContainedUDP(t *testing.T) {
	var runs atomic.Int32
	n := netsim.New()
	// One worker: the panicking call and everything after it share it,
	// so a reply to the next call proves that worker survived.
	s := newPanicServer(&runs)
	s.workers = 1
	sep := n.Attach("server")
	go func() { _ = s.ServeUDP(sep) }()
	defer s.Close()

	cep := n.Attach("client")
	buf := make([]byte, 1024)
	for i, proc := range []uint32{procPanic, procPanicTyped} {
		xid := uint32(100 + i)
		req := buildCall(t, xid, testVers, proc, func(x *xdr.XDR) error {
			arr := []int32{1}
			return xdr.Array(x, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
		})
		// The call and a retransmission of it: both answered SYSTEM_ERR,
		// the second from the reply cache — the in-flight claim was
		// released and the reply cached like any other, so the handler
		// does not run (and panic) again.
		for send := 0; send < 2; send++ {
			if _, err := cep.WriteTo(req, netsim.Addr("server")); err != nil {
				t.Fatal(err)
			}
			if err := cep.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
			nr, _, err := cep.ReadFrom(buf)
			if err != nil {
				t.Fatalf("proc %d send %d: no reply: %v", proc, send, err)
			}
			rh, _ := decodeReply(t, buf[:nr])
			if rh.XID != xid || rh.AcceptStat != rpcmsg.SystemErr {
				t.Fatalf("proc %d send %d: reply %+v, want SYSTEM_ERR", proc, send, rh)
			}
		}
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("panicking handlers ran %d times, want once each", got)
	}
	if hits, panics := s.CacheHits(), s.HandlerPanics(); hits != 2 || panics != 2 {
		t.Fatalf("cache hits %d, handler panics %d; want 2, 2", hits, panics)
	}
	c := client.NewUDP(cep, netsim.Addr("server"), client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
	defer c.Close()
	echoOnce(t, c)
}

func TestHandlerPanicContainedTCP(t *testing.T) {
	var runs atomic.Int32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	s := newPanicServer(&runs)
	go func() { _ = s.ServeTCP(ln) }()
	defer s.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
	defer c.Close()

	arg := []int32{1}
	var res []int32
	wantSystemErr(t, "closure handler", c.Call(procPanic, client.Void, client.Void))
	wantSystemErr(t, "typed handler",
		client.CallTyped(c, procPanicTyped, fusedTestPlan, &arg, fusedTestPlan, &res))
	// The same connection (the client has no Redial) serves the next call.
	echoOnce(t, c)
	if runs, panics := runs.Load(), s.HandlerPanics(); runs != 2 || panics != 2 {
		t.Fatalf("handler runs %d, panics counted %d; want 2, 2", runs, panics)
	}
}
