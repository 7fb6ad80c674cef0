// Package integration exercises the full RPC stack — client, server,
// rpcmsg, xdr — over both the simulated network (with injected faults)
// and real loopback sockets.
package integration

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

const (
	prog     = uint32(0x20000001)
	vers     = uint32(1)
	procEcho = uint32(1)
	procSum  = uint32(2)
)

// newEchoServer registers an int32-array echo and a sum procedure and
// returns the server plus a counter of echo executions.
func newEchoServer() (*server.Server, *atomic.Int32) {
	var execs atomic.Int32
	s := server.New()
	s.Register(prog, vers, procEcho, func(dec *xdr.XDR) (server.Marshal, error) {
		execs.Add(1)
		var arr []int32
		if err := xdr.Array(dec, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil {
			return nil, errors.Join(server.ErrGarbageArgs, err)
		}
		return func(enc *xdr.XDR) error {
			return xdr.Array(enc, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
		}, nil
	})
	s.Register(prog, vers, procSum, func(dec *xdr.XDR) (server.Marshal, error) {
		var arr []int32
		if err := xdr.Array(dec, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil {
			return nil, errors.Join(server.ErrGarbageArgs, err)
		}
		var sum int32
		for _, v := range arr {
			sum += v
		}
		return func(enc *xdr.XDR) error { return enc.Long(&sum) }, nil
	})
	return s, &execs
}

func echoArgs(arr *[]int32) client.Marshal {
	return func(x *xdr.XDR) error {
		return xdr.Array(x, arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
	}
}

// startSimServer runs the echo server on a netsim endpoint.
func startSimServer(t *testing.T, n *netsim.Network) (*server.Server, *atomic.Int32) {
	t.Helper()
	s, execs := newEchoServer()
	ep := n.Attach("server")
	go func() { _ = s.ServeUDP(ep) }()
	t.Cleanup(func() { _ = s.Close() })
	return s, execs
}

func simClient(n *netsim.Network, name string, cfg client.Config) *client.UDP {
	cfg.Prog, cfg.Vers = prog, vers
	if cfg.FirstXID == 0 {
		cfg.FirstXID = 1000
	}
	return client.NewUDP(n.Attach(netsim.Addr(name)), netsim.Addr("server"), cfg)
}

func TestSimEchoRoundTrip(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New()
	startSimServer(t, n)
	c := simClient(n, "client", client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	in := []int32{10, -20, 30}
	var out []int32
	if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 10 || out[1] != -20 || out[2] != 30 {
		t.Fatalf("echo = %v", out)
	}
}

func TestSimSum(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New()
	startSimServer(t, n)
	c := simClient(n, "client", client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	in := []int32{1, 2, 3, 4}
	var sum int32
	err := c.Call(procSum, echoArgs(&in), func(x *xdr.XDR) error { return x.Long(&sum) })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

func TestSimRetransmitOnRequestLoss(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	// Drop the first request; the client must retransmit and succeed,
	// and the handler must run exactly once.
	n := netsim.New(netsim.WithFaults(netsim.DropFirst(1)))
	_, execs := startSimServer(t, n)
	c := simClient(n, "client", client.Config{
		Timeout: 3 * time.Second, Retransmit: 30 * time.Millisecond,
	})
	defer c.Close()

	in := []int32{7}
	var out []int32
	if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
		t.Fatal(err)
	}
	if out[0] != 7 {
		t.Fatalf("echo = %v", out)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1", got)
	}
}

func TestSimReplyLossServedFromCache(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	// Packet 0 = request (delivered), packet 1 = reply (dropped).
	// The retransmitted request must be answered from the reply cache
	// without re-executing the handler: at-most-once per XID.
	n := netsim.New(netsim.WithFaults(netsim.DropSeq(1)))
	_, execs := startSimServer(t, n)
	c := simClient(n, "client", client.Config{
		Timeout: 3 * time.Second, Retransmit: 30 * time.Millisecond,
	})
	defer c.Close()

	in := []int32{1, 2}
	var out []int32
	if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("echo = %v", out)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1 (reply cache miss?)", got)
	}
}

func TestSimDuplicatedPackets(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	// Every packet duplicated: the duplicate request must not re-execute
	// the handler, and the duplicate reply must be ignored by XID logic.
	n := netsim.New(netsim.WithFaults(netsim.DuplicateAll()))
	_, execs := startSimServer(t, n)
	c := simClient(n, "client", client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	in := []int32{5}
	var out []int32
	if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
		t.Fatal(err)
	}
	// Give the duplicate a moment to be (not) processed.
	time.Sleep(20 * time.Millisecond)
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1", got)
	}
	// A second call must still work with stale duplicates around.
	in[0] = 6
	if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
		t.Fatal(err)
	}
	if out[0] != 6 {
		t.Fatalf("echo = %v", out)
	}
}

func TestSimTimeout(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New(netsim.WithFaults(func(_, _ net.Addr, _ int, _ []byte) netsim.Verdict {
		return netsim.Drop // black hole
	}))
	startSimServer(t, n)
	c := simClient(n, "client", client.Config{
		Timeout: 100 * time.Millisecond, Retransmit: 20 * time.Millisecond,
	})
	defer c.Close()

	in := []int32{1}
	err := c.Call(procEcho, echoArgs(&in), client.Void)
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestSimProcUnavailSurfacesRPCError(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New()
	startSimServer(t, n)
	c := simClient(n, "client", client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	err := c.Call(42, client.Void, client.Void)
	var rpcErr *client.RPCError
	if !errors.As(err, &rpcErr) {
		t.Fatalf("err = %v, want *RPCError", err)
	}
	if rpcErr.AcceptStat != rpcmsg.ProcUnavail {
		t.Fatalf("stat = %v, want PROC_UNAVAIL", rpcErr.AcceptStat)
	}
}

func TestSimConcurrentClients(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New()
	startSimServer(t, n)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := simClient(n, string(rune('A'+id)), client.Config{
				Timeout: 3 * time.Second, FirstXID: uint32(1000 * (id + 1)),
			})
			defer c.Close()
			for k := 0; k < 10; k++ {
				in := []int32{int32(id), int32(k)}
				var out []int32
				if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
					errs[id] = err
					return
				}
				if len(out) != 2 || out[0] != int32(id) || out[1] != int32(k) {
					errs[id] = errors.New("wrong echo")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
}

func TestRealUDPLoopback(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s, _ := newEchoServer()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	go func() { _ = s.ServeUDP(pc) }()
	defer s.Close()

	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewUDP(cconn, pc.LocalAddr(), client.Config{
		Prog: prog, Vers: vers, Timeout: 3 * time.Second,
	})
	defer c.Close()

	in := make([]int32, 250)
	for i := range in {
		in[i] = int32(i * i)
	}
	var out []int32
	if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 250 || out[249] != 249*249 {
		t.Fatalf("echo len=%d last=%d", len(out), out[len(out)-1])
	}
}

func TestRealTCPLoopback(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s, _ := newEchoServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	defer s.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewTCP(conn, client.Config{Prog: prog, Vers: vers, Timeout: 3 * time.Second})
	defer c.Close()

	// Several sequential calls on one connection, including one large
	// enough to span multiple record fragments.
	for _, size := range []int{1, 100, 3000} {
		in := make([]int32, size)
		for i := range in {
			in[i] = int32(i)
		}
		var out []int32
		if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(out) != size || (size > 0 && out[size-1] != int32(size-1)) {
			t.Fatalf("size %d: bad echo (len %d)", size, len(out))
		}
	}
}

func TestTCPProcUnavail(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s, _ := newEchoServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	defer s.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewTCP(conn, client.Config{Prog: prog, Vers: vers, Timeout: 3 * time.Second})
	defer c.Close()

	err = c.Call(77, client.Void, client.Void)
	var rpcErr *client.RPCError
	if !errors.As(err, &rpcErr) || rpcErr.AcceptStat != rpcmsg.ProcUnavail {
		t.Fatalf("err = %v", err)
	}
	// The connection must remain usable after an error reply.
	in := []int32{3}
	var out []int32
	if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
		t.Fatalf("call after error: %v", err)
	}
}

func TestClosedClient(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New()
	startSimServer(t, n)
	c := simClient(n, "client", client.Config{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	err := c.Call(procEcho, client.Void, client.Void)
	if !errors.Is(err, client.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestAuthSysCredentialPassesThrough(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	// The server currently accepts any flavor; the credential must
	// survive the trip intact for handlers that inspect it later.
	cred, err := (&rpcmsg.SysCred{MachineName: "testhost", UID: 7, GID: 8}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.New()
	startSimServer(t, n)
	c := simClient(n, "client", client.Config{Cred: cred, Timeout: 2 * time.Second})
	defer c.Close()

	in := []int32{1}
	var out []int32
	if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
		t.Fatal(err)
	}
}
