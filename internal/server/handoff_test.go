package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// What serveConn's read token and parked workers must keep of the
// goroutine-per-request server they replaced: a later call overtakes a
// blocked one, the in-flight bound is backpressure, and every goroutine
// of a connection ends with it.

// gate is a handler that reports each entry and then blocks until
// released.
type gate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	ran     atomic.Int32
}

// open releases every handler, blocked now or entering later. Tests
// defer it ahead of Server.Close, which waits for handlers: a failed
// assertion then ends the test instead of hanging it.
func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gate) proc(*xdr.XDR) (Marshal, error) {
	g.ran.Add(1)
	g.entered <- struct{}{}
	<-g.release
	return nil, nil
}

const procGate = uint32(9)

// gatedServer serves the test program plus procGate on loopback and
// returns one connection to it.
func gatedServer(t *testing.T, opts ...Option) (*Server, *gate, net.Conn) {
	t.Helper()
	s := New(opts...)
	g := newGate()
	s.Register(testProg, testVers, procEcho, echoProc)
	s.Register(testProg, testVers, procGate, g.proc)
	conn, _ := serveTapped(t, s)
	return s, g, conn
}

func echoCall(t *testing.T, xid uint32) []byte {
	in := []int32{int32(xid)}
	return buildCall(t, xid, testVers, procEcho, func(x *xdr.XDR) error {
		return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
}

func awaitEntry(t *testing.T, g *gate) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
}

// TestServeTCPLaterCallOvertakesBlocked: the goroutine that read a lone
// call runs it, so it must have passed the read token on first. Call A
// blocks in its handler; call B, sent afterwards in a write of its own
// on the same connection, is answered while A is still blocked. A server
// that ran A on its only reader would never read B.
func TestServeTCPLaterCallOvertakesBlocked(t *testing.T) {
	defer testutil.NoLeak(t)()
	s, g, conn := gatedServer(t)
	defer s.Close()
	defer g.open()
	defer conn.Close()

	writeBurst(t, conn, [][]byte{buildCall(t, 1, testVers, procGate, nil)})
	awaitEntry(t, g)
	writeBurst(t, conn, [][]byte{echoCall(t, 2)})
	r := xdr.NewRecStream(conn, 0)
	if xid := readXID(t, conn, r); xid != 2 {
		t.Fatalf("first reply has xid %d, want the later call's 2", xid)
	}
	g.open()
	if xid := readXID(t, conn, r); xid != 1 {
		t.Fatalf("second reply has xid %d, want the released call's 1", xid)
	}
}

// TestServeTCPWorkerBoundIsBackpressure: with WithWorkers(n) handlers
// blocked, one more request is read off the connection but neither run
// nor dropped; it runs as soon as a handler returns. The bound is n
// handlers plus the reader, however the requests were written.
func TestServeTCPWorkerBoundIsBackpressure(t *testing.T) {
	for _, burst := range []bool{false, true} {
		func() {
			defer testutil.NoLeak(t)()
			const workers = 2
			s, g, conn := gatedServer(t, WithWorkers(workers))
			defer s.Close()
			defer g.open()
			defer conn.Close()

			calls := [][]byte{
				buildCall(t, 1, testVers, procGate, nil),
				buildCall(t, 2, testVers, procGate, nil),
				buildCall(t, 3, testVers, procGate, nil),
			}
			if burst {
				writeBurst(t, conn, calls)
			} else {
				for _, c := range calls {
					writeBurst(t, conn, [][]byte{c})
				}
			}
			for i := 0; i < workers; i++ {
				awaitEntry(t, g)
			}
			// No event marks "still waiting": give a third handler the
			// time it would need to start, were nothing holding it back.
			time.Sleep(50 * time.Millisecond)
			if ran := g.ran.Load(); ran != workers {
				t.Fatalf("burst=%v: %d handlers running with %d workers", burst, ran, workers)
			}
			g.release <- struct{}{} // one handler returns...
			awaitEntry(t, g)        // ...and the waiting request runs
			g.open()
			r := xdr.NewRecStream(conn, 0)
			seen := map[uint32]bool{}
			for range calls {
				seen[readXID(t, conn, r)] = true
			}
			if len(seen) != len(calls) || g.ran.Load() != int32(len(calls)) {
				t.Fatalf("burst=%v: replies %v, %d runs; want each of %d calls run and answered once",
					burst, seen, g.ran.Load(), len(calls))
			}
		}()
	}
}

// echoBurst sends n echo calls in one write and reads the n replies:
// afterwards the connection has its workers, and they are parked.
func echoBurst(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	var calls [][]byte
	for xid := uint32(1); xid <= uint32(n); xid++ {
		calls = append(calls, echoCall(t, xid))
	}
	writeBurst(t, conn, calls)
	r := xdr.NewRecStream(conn, 0)
	for range calls {
		readXID(t, conn, r)
	}
}

// TestServeTCPParkedWorkersExit: the workers a burst left parked belong
// to the connection, not to the server. When the peer hangs up, the
// token holder closes the work channel and every one of them exits — the
// server is still up when the count is taken.
func TestServeTCPParkedWorkersExit(t *testing.T) {
	s := newTestServer()
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	settled := testutil.NoLeak(t) // baseline: the accept loop alone

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	echoBurst(t, conn, 8)
	conn.Close()
	waitFor(t, "conn to untrack", func() bool { return s.Snapshot().Conns == 0 })
	settled()
}

// TestServeTCPIdleReapsParkedWorkers: parked workers are not calls in
// flight. A connection that went silent after a burst is reaped and
// counted like any other, and its workers go with it, with the peer
// still connected.
func TestServeTCPIdleReapsParkedWorkers(t *testing.T) {
	s := New(WithIdleTimeout(50 * time.Millisecond))
	s.Register(testProg, testVers, procEcho, echoProc)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	settled := testutil.NoLeak(t)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	echoBurst(t, conn, 8)
	waitFor(t, "idle reap", func() bool { return s.Snapshot().IdleDrops == 1 })
	waitFor(t, "reaped conn to untrack", func() bool { return s.Snapshot().Conns == 0 })
	settled()
}

// TestCloseWithHandlersAtBound: Close while every worker is blocked in a
// handler and the token holder is blocked handing on one request more.
// The closed connection must not strand that goroutine: once the
// handlers return, the request is taken off its hands, the read fails,
// and Close returns with every goroutine of the connection gone.
func TestCloseWithHandlersAtBound(t *testing.T) {
	defer testutil.NoLeak(t)()
	const workers = 2
	s, g, conn := gatedServer(t, WithWorkers(workers))
	defer g.open()
	defer conn.Close()
	writeBurst(t, conn, [][]byte{
		buildCall(t, 1, testVers, procGate, nil),
		buildCall(t, 2, testVers, procGate, nil),
		echoCall(t, 3),
		echoCall(t, 4),
	})
	for i := 0; i < workers; i++ {
		awaitEntry(t, g)
	}
	closed := make(chan struct{})
	go func() {
		_ = s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with handlers still running")
	case <-time.After(20 * time.Millisecond):
	}
	g.open()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs after the blocked handlers returned")
	}
}
