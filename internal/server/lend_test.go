package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// The read token lent to a lone call: a closed-loop peer is served by one
// goroutine that nobody wakes, and what handing the token on bought — a
// later call is read while an earlier one is stuck — is kept by the
// watchdog, lendLimit late and once.

// lentConn serves one loopback connection through a streamConn the test
// can look at. stop hangs up and waits for the connection's goroutines.
func lentConn(t *testing.T, s *Server) (peer net.Conn, c *streamConn, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer ln.Close()
	peer, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c = s.newStreamConn(conn)
	done := make(chan struct{})
	go func() { c.run(); close(done) }()
	return peer, c, func() { _ = peer.Close(); <-done }
}

// echoRoundTrips makes n closed-loop echo calls with XIDs from first.
func echoRoundTrips(t *testing.T, peer net.Conn, r *xdr.RecStream, first uint32, n int) {
	t.Helper()
	for xid := first; xid < first+uint32(n); xid++ {
		writeBurst(t, peer, [][]byte{echoCall(t, xid)})
		if got := readXID(t, peer, r); got != xid {
			t.Fatalf("reply has xid %d, want %d", got, xid)
		}
	}
}

// TestServeTCPWatchdogReclaimsLentToken: after quick calls the token is
// being lent, and the call it is lent to blocks. The next call of the
// connection is still read and answered — by the watchdog's doing,
// within lendLimit rather than at once — and while the blocked call
// stays in flight, and for one call after it has returned slow, the
// token is handed on before the handler runs, as it was before lending.
func TestServeTCPWatchdogReclaimsLentToken(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := New()
	g := newGate()
	s.Register(testProg, testVers, procEcho, echoProc)
	s.Register(testProg, testVers, procGate, g.proc)
	defer s.Close()
	defer g.open()
	peer, c, stop := lentConn(t, s)
	defer stop()
	defer g.open()
	r := xdr.NewRecStream(peer, 0)

	quick := func(first uint32) {
		t.Helper()
		// One quick handler is enough; a busy machine may need a few tries.
		for xid := first; xid < first+50; xid++ {
			if echoRoundTrips(t, peer, r, xid, 1); !c.slow.Load() {
				return
			}
		}
		t.Fatal("connection still marked slow after fifty echo calls")
	}
	quick(1)
	writeBurst(t, peer, [][]byte{buildCall(t, 100, testVers, procGate, nil)})
	awaitEntry(t, g)
	if !c.lent.Load() {
		t.Fatal("the blocked call is not running under a lent token")
	}
	for xid := uint32(101); xid < 104; xid++ {
		start := time.Now()
		writeBurst(t, peer, [][]byte{echoCall(t, xid)})
		if got := readXID(t, peer, r); got != xid {
			t.Fatalf("reply has xid %d, want the later call's %d", got, xid)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("call %d behind the blocked handler took %v", xid, d)
		}
		if c.lent.Load() {
			t.Fatalf("call %d: token lent again with the blocked call in flight", xid)
		}
	}
	g.open()
	if got := readXID(t, peer, r); got != 100 {
		t.Fatalf("reply has xid %d, want the released call's 100", got)
	}
	waitFor(t, "the blocked call to finish", func() bool { return c.inFlight.Load() == 0 })
	if !c.slow.Load() {
		t.Fatal("a handler that outstayed lendLimit did not mark the connection slow")
	}
	quick(200) // handed off, found quick: the call after it is lent the token again
}

// BenchmarkServeTCPTwoCallersSlowHandler is the regime lendUnder exists
// for: two callers share one connection and the handler takes 300 µs, so
// a server that ran each call with the token in its pocket would serve
// them one after the other (≈ 300 µs per call, against ≈ 200 µs here
// with the handlers side by side on two CPUs). Handlers overlap only if
// the token is handed on before each runs. The handler spins: a sleep
// that short takes over a millisecond on an idle process, which is the
// watchdog's regime and not this one.
func BenchmarkServeTCPTwoCallersSlowHandler(b *testing.B) {
	s := New()
	const procSlow = uint32(12)
	s.Register(testProg, testVers, procSlow, func(*xdr.XDR) (Marshal, error) {
		for start := time.Now(); time.Since(start) < 300*time.Microsecond; {
		}
		return nil, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	defer s.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	// The callers share the connection the way a client's callers do: each
	// writes its record whole, and one reader hands out the replies.
	const callers = 2
	var wmu sync.Mutex
	w := xdr.NewRecStream(conn, 0)
	replies := [callers]chan struct{}{}
	for i := range replies {
		replies[i] = make(chan struct{}, 1)
	}
	go func() {
		r := xdr.NewRecStream(conn, 0)
		for {
			rec, err := r.ReadRecord(nil)
			if err != nil || len(rec) < 4 {
				return
			}
			replies[rec[3]] <- struct{}{} // the XID is the caller's index
		}
	}()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			call := append(make([]byte, xdr.RecordMarkLen), buildCall(b, uint32(i), testVers, procSlow, nil)...)
			for n := i; n < b.N; n += callers {
				wmu.Lock()
				err := w.WriteRecord(call)
				wmu.Unlock()
				if err != nil {
					b.Error(err)
					return
				}
				<-replies[i]
			}
		}(i)
	}
	wg.Wait()
}
