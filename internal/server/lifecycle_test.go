package server

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnCloserUntracked pins the connection-closer leak: every
// accepted TCP connection used to append its Close to the server's
// closer list forever, so a long-lived server grew the list without
// bound and re-closed thousands of dead connections on shutdown. After
// N accept/close cycles only the listener's closer may remain live.
func TestConnCloserUntracked(t *testing.T) {
	defer testutil.NoLeak(t)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer()
	defer s.Close()
	go func() { _ = s.ServeTCP(ln) }()

	const cycles = 50
	for i := 0; i < cycles; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
		in := []int32{int32(i)}
		var out []int32
		err = c.Call(procEcho,
			func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) },
			func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		_ = c.Close()
	}
	// The server notices each close asynchronously (its read loop gets
	// EOF); the tracked set must settle back to the listener alone.
	waitFor(t, "closers to drain", func() bool { return s.trackedClosers() <= 1 })
	if got := s.trackedClosers(); got != 1 {
		t.Fatalf("%d live closers after %d cycles, want 1 (listener)", got, cycles)
	}
}

// tempErr is a net.Error the runtime would report as temporary
// (ECONNABORTED, EMFILE, ...).
type tempErr struct{}

func (tempErr) Error() string   { return "accept: transient failure" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

// flakyListener fails its first failures Accepts with a temporary error,
// then hands out queued connections until closed.
type flakyListener struct {
	mu       sync.Mutex
	failures int
	accepts  atomic.Int32
	conns    chan net.Conn
	closed   chan struct{}
	once     sync.Once
}

func newFlakyListener(failures int) *flakyListener {
	return &flakyListener{failures: failures, conns: make(chan net.Conn, 8), closed: make(chan struct{})}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	l.mu.Lock()
	if l.failures > 0 {
		l.failures--
		l.mu.Unlock()
		return nil, tempErr{}
	}
	l.mu.Unlock()
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return netsim.Addr("flaky") }

// TestServeTCPRetriesTransientAcceptErrors pins the accept-loop fix: a
// burst of temporary accept failures must not take down the listener —
// the connection accepted after the burst is served normally. The old
// loop returned on the first error and this test times out against it.
func TestServeTCPRetriesTransientAcceptErrors(t *testing.T) {
	defer testutil.NoLeak(t)()
	ln := newFlakyListener(3)
	s := newTestServer()
	defer s.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeTCP(ln) }()

	clientEnd, serverEnd := net.Pipe()
	ln.conns <- serverEnd
	c := client.NewTCP(clientEnd, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
	defer c.Close()
	in := []int32{7}
	var out []int32
	err := c.Call(procEcho,
		func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) },
		func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
	if err != nil {
		t.Fatalf("call after transient accept errors: %v", err)
	}
	if len(out) != 1 || out[0] != 7 {
		t.Fatalf("echo result %v", out)
	}
	select {
	case err := <-serveErr:
		t.Fatalf("ServeTCP exited on transient errors: %v", err)
	default:
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeTCP after close: %v", err)
	}
}

// TestCloseInterruptsAcceptBackoff pins the interruptible backoff: the
// accept loop's capped retry sleep reaches a full second, and Close must
// cut it short instead of waiting it out (Close joins the service loops,
// so an uninterruptible sleep stalls the whole shutdown). The old
// time.Sleep backoff blocks Close for most of a second and fails the
// bound below.
func TestCloseInterruptsAcceptBackoff(t *testing.T) {
	defer testutil.NoLeak(t)()
	ln := newFlakyListener(1 << 30) // every Accept fails with a temporary error
	s := newTestServer()
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeTCP(ln) }()

	// Let the backoff grow to its 1s cap (about ten failed accepts),
	// then catch the moment a fresh sleep starts: the next Accept call
	// marks the end of the previous sleep, and the loop re-enters the
	// backoff almost immediately after it fails.
	waitFor(t, "backoff to reach its cap", func() bool { return ln.accepts.Load() >= 10 })
	n := ln.accepts.Load()
	waitFor(t, "the next backoff sleep to begin", func() bool { return ln.accepts.Load() > n })

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Close blocked %v waiting out the accept backoff", d)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeTCP after close: %v", err)
	}
}

// TestServeTCPPermanentAcceptError pins the other half of the retry
// policy: a non-temporary accept failure still exits the loop.
func TestServeTCPPermanentAcceptError(t *testing.T) {
	defer testutil.NoLeak(t)()
	ln := newFlakyListener(0)
	_ = ln.Close() // Accept now fails permanently with net.ErrClosed
	s := newTestServer()
	defer s.Close()
	if err := s.ServeTCP(ln); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ServeTCP = %v, want net.ErrClosed", err)
	}
}

// scriptedPacketConn replays a fixed burst of datagrams as fast as
// ReadFrom is called, then blocks until closed — the worst-case arrival
// pattern for admission control.
type scriptedPacketConn struct {
	mu     sync.Mutex
	burst  [][]byte
	next   int
	closed chan struct{}
	once   sync.Once
}

func (c *scriptedPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	if c.next < len(c.burst) {
		n := copy(p, c.burst[c.next])
		c.next++
		c.mu.Unlock()
		return n, netsim.Addr("burst-peer"), nil
	}
	c.mu.Unlock()
	<-c.closed
	return 0, nil, net.ErrClosed
}

func (c *scriptedPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) { return len(p), nil }
func (c *scriptedPacketConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}
func (c *scriptedPacketConn) LocalAddr() net.Addr                { return netsim.Addr("burst-server") }
func (c *scriptedPacketConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptedPacketConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptedPacketConn) SetWriteDeadline(t time.Time) error { return nil }

// TestServeUDPAdmissionControl pins the counted-drop overflow policy:
// with every worker wedged and the queue full, the read loop sheds the
// excess datagrams and counts them instead of blocking. The old loop
// blocked forever on the full queue and this test times out against it.
func TestServeUDPAdmissionControl(t *testing.T) {
	defer testutil.NoLeak(t)()
	const (
		workers = 1
		queue   = 2
		burst   = 8
	)
	release := make(chan struct{})
	var executed atomic.Int32
	s := New(WithWorkers(workers), WithQueueDepth(queue), WithCacheSize(0))
	s.Register(testProg, testVers, procEcho, func(dec *xdr.XDR) (Marshal, error) {
		executed.Add(1)
		<-release
		return func(*xdr.XDR) error { return nil }, nil
	})
	pc := &scriptedPacketConn{closed: make(chan struct{})}
	for i := 0; i < burst; i++ {
		pc.burst = append(pc.burst, buildCall(t, uint32(100+i), testVers, procEcho, nil))
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = s.ServeUDP(pc) }()

	// At most queue+workers datagrams can be admitted while the pool is
	// wedged; everything else must surface in the drop counter.
	const minDrops = burst - queue - workers
	waitFor(t, "admission drops", func() bool { return s.Snapshot().QueueDrops >= minDrops })
	close(release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if exec, drops := executed.Load(), s.Snapshot().QueueDrops; int(exec)+int(drops) != burst {
		t.Fatalf("executed %d + dropped %d != burst %d", exec, drops, burst)
	}
}

// TestServeTCPConnLimit pins WithMaxConns: connections beyond the bound
// are closed at accept and counted, and capacity freed by a departing
// connection is reusable.
func TestServeTCPConnLimit(t *testing.T) {
	defer testutil.NoLeak(t)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer()
	s.maxConns = 2
	defer s.Close()
	go func() { _ = s.ServeTCP(ln) }()

	call := func(c client.Caller) error {
		in := []int32{1}
		var out []int32
		return c.Call(procEcho,
			func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) },
			func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
	}
	var clients []client.Caller
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
		if err := call(c); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	// Third connection: accepted by the kernel, then shed by the server.
	over, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := over.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("over-limit conn read = %v, want EOF", err)
	}
	waitFor(t, "conn-limit drop count", func() bool { return s.Snapshot().ConnLimitDrops == 1 })

	// Departure frees a slot: a new connection is admitted and served.
	_ = clients[0].Close()
	waitFor(t, "slot to free", func() bool { return s.Snapshot().Conns < 2 })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
	defer c.Close()
	if err := call(c); err != nil {
		t.Fatalf("call on freed slot: %v", err)
	}
}

// TestServeTCPMaxRecord pins WithMaxRecord against the peer the bound
// exists for: one that streams fragments and never sets the
// last-fragment bit. The old server grew the request buffer for as long
// as the peer kept sending; now the connection is closed as soon as the
// announced total passes the bound, and counted.
func TestServeTCPMaxRecord(t *testing.T) {
	defer testutil.NoLeak(t)()
	const limit = 64 << 10
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithMaxRecord(limit))
	s.Register(testProg, testVers, procEcho, echoProc)
	defer s.Close()
	go func() { _ = s.ServeTCP(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 1000-byte fragments, last-fragment bit clear, until the server hangs
	// up: the write fails once the close reaches this end. 100x the bound
	// is the give-up point of a server that never does.
	frag := append([]byte{0, 0, 0x03, 0xe8}, make([]byte, 1000)...)
	_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	sent := 0
	for ; sent < 100*limit; sent += 1000 {
		if _, err := conn.Write(frag); err != nil {
			break
		}
	}
	if sent >= 100*limit {
		t.Fatalf("server swallowed %d bytes of one unfinished record (bound %d)", sent, limit)
	}
	waitFor(t, "over-limit drop to be counted", func() bool { return s.Snapshot().RecordLimitDrops == 1 })
	waitFor(t, "over-limit conn to untrack", func() bool { return s.Snapshot().Conns == 0 })

	// A record at the bound is still served, on a fresh connection.
	ok, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewTCP(ok, client.Config{Prog: testProg, Vers: testVers})
	defer c.Close()
	big := make([]int32, (limit-64)/4) // call header + count word fit in the 64
	var out []int32
	if err := c.Call(procEcho,
		func(x *xdr.XDR) error { return xdr.Array(x, &big, xdr.NoSizeLimit, (*xdr.XDR).Long) },
		func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) }); err != nil || len(out) != len(big) {
		t.Fatalf("record under the bound: %d words back, err %v", len(out), err)
	}
	if got := s.Snapshot().RecordLimitDrops; got != 1 {
		t.Fatalf("RecordLimitDrops = %d, want 1", got)
	}
}
