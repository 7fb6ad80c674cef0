package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"specrpc/internal/clock"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// The read token lent to a lone call: a closed-loop peer is served by one
// goroutine that nobody wakes, and what handing the token on bought — a
// later call is read while an earlier one is stuck — is kept by the
// watchdog, lendLimit late and once.

// lentConn serves one loopback connection through a streamConn the test
// can look at, on a fake clock of its own: it stands still, so every
// handler is quick, until the test advances it (advance). stop hangs up
// and waits for the connection's goroutines.
func lentConn(t *testing.T, s *Server) (peer net.Conn, c *streamConn, stop func()) {
	t.Helper()
	peer, c, _, stop = tappedLentConn(t, s)
	return peer, c, stop
}

// tappedLentConn is lentConn with the server's writes counted and kept.
func tappedLentConn(t *testing.T, s *Server) (peer net.Conn, c *streamConn, tap *writeTap, stop func()) {
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
	tap = &writeTap{}
	s.clock = clock.NewFake()
	c = s.newStreamConn(tapConn{conn, tap})
	done := make(chan struct{})
	go func() { c.run(); close(done) }()
	return peer, c, tap, func() { _ = peer.Close(); <-done }
}

// advance moves c's clock d forward, firing its watchdog if that falls
// due: the watchdog runs before advance returns.
func advance(c *streamConn, d time.Duration) { c.lending.clock.(*clock.Fake).Advance(d) }

// makeQuick makes one closed-loop echo call, which leaves the connection
// marked quick — its handler took no time on the clock of lentConn — so
// the next record read is run under a lent token, unless the watchdog's
// verdict still stands.
func makeQuick(t *testing.T, peer net.Conn, r *xdr.RecStream, c *streamConn, xid uint32) {
	t.Helper()
	echoRoundTrips(t, peer, r, xid, 1)
	// A handed-off call is still in flight when its reply is read.
	waitFor(t, "the call to finish", func() bool { return c.inFlight.Load() == 0 })
	if c.lending.slow.Load() {
		t.Fatal("connection still marked slow after a quick call")
	}
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

// TestServeTCPWatchdogReclaimsLentToken: after a quick call the token is
// being lent, and the call it is lent to blocks. The next call of the
// connection is still read and answered — by the watchdog's doing, once
// the clock has moved lendLimit — and while the blocked call stays in
// flight, and for one call after it has returned slow, the token is
// handed on before the handler runs, as it was before lending.
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

	makeQuick(t, peer, r, c, 1)
	writeBurst(t, peer, [][]byte{buildCall(t, 100, testVers, procGate, nil)})
	awaitEntry(t, g)
	if !c.lending.lent.Load() {
		t.Fatal("the blocked call is not running under a lent token")
	}
	advance(c, lendLimit)
	for xid := uint32(101); xid < 104; xid++ {
		start := time.Now()
		writeBurst(t, peer, [][]byte{echoCall(t, xid)})
		if got := readXID(t, peer, r); got != xid {
			t.Fatalf("reply has xid %d, want the later call's %d", got, xid)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("call %d behind the blocked handler took %v", xid, d)
		}
		if c.lending.lent.Load() {
			t.Fatalf("call %d: token lent again with the blocked call in flight", xid)
		}
	}
	g.open()
	if got := readXID(t, peer, r); got != 100 {
		t.Fatalf("reply has xid %d, want the released call's 100", got)
	}
	waitFor(t, "the blocked call to finish", func() bool { return c.inFlight.Load() == 0 })
	if !c.lending.slow.Load() {
		t.Fatal("a handler that outstayed lendLimit did not mark the connection slow")
	}
	makeQuick(t, peer, r, c, 200) // handed off and found quick
}

// readXIDs reads n reply records, each of which must arrive within
// limit, and returns how often each XID was seen.
func readXIDs(t *testing.T, peer net.Conn, r *xdr.RecStream, n int, limit time.Duration) map[uint32]int {
	t.Helper()
	seen := map[uint32]int{}
	for i := 0; i < n; i++ {
		start := time.Now()
		seen[readXID(t, peer, r)]++
		if d := time.Since(start); d > limit {
			t.Fatalf("reply %d of %d took %v, want under %v", i+1, n, d, limit)
		}
	}
	return seen
}

// wantOnce fails unless seen holds exactly the XIDs first..last, once
// each.
func wantOnce(t *testing.T, seen map[uint32]int, first, last uint32) {
	t.Helper()
	for xid := first; xid <= last; xid++ {
		if seen[xid] != 1 {
			t.Fatalf("reply %d arrived %d times; replies seen: %v", xid, seen[xid], seen)
		}
	}
	if len(seen) != int(last-first+1) {
		t.Fatalf("replies seen: %v, want %d..%d", seen, first, last)
	}
}

// TestServeTCPPartialRecordHoldsNoReply: the token holder writes what it
// has queued before any read that can wait for the peer, and a window
// that ends inside a record is such a read. Three whole calls and half a
// fourth arrive in one write on a quick connection; the three replies
// are read before the other half is sent.
func TestServeTCPPartialRecordHoldsNoReply(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := newTestServer()
	defer s.Close()
	peer, c, stop := lentConn(t, s)
	defer stop()
	r := xdr.NewRecStream(peer, 0)
	makeQuick(t, peer, r, c, 1)

	wire := frame(echoCall(t, 101), echoCall(t, 102), echoCall(t, 103), echoCall(t, 104))
	cut := len(wire) - len(echoCall(t, 104))/2
	if _, err := peer.Write(wire[:cut]); err != nil {
		t.Fatal(err)
	}
	wantOnce(t, readXIDs(t, peer, r, 3, time.Second), 101, 103)
	if _, err := peer.Write(wire[cut:]); err != nil {
		t.Fatal(err)
	}
	wantOnce(t, readXIDs(t, peer, r, 1, time.Second), 104, 104)
}

// TestServeTCPWatchdogMidBurstDeliversEachReplyOnce: the fourth call of
// an eight-call burst blocks under a lent token with the replies of the
// first three queued behind no writer. The watchdog's worker runs the
// other four and the three leave with them; the lender, back from the
// blocked call without the token, writes its reply itself. Every reply
// arrives, once — the seven while the fourth is still blocked.
func TestServeTCPWatchdogMidBurstDeliversEachReplyOnce(t *testing.T) {
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
	makeQuick(t, peer, r, c, 1)

	var calls [][]byte
	for xid := uint32(101); xid <= 108; xid++ {
		if xid == 104 {
			calls = append(calls, buildCall(t, xid, testVers, procGate, nil))
		} else {
			calls = append(calls, echoCall(t, xid))
		}
	}
	writeBurst(t, peer, calls)
	awaitEntry(t, g)
	advance(c, lendLimit)
	seen := readXIDs(t, peer, r, 7, time.Second)
	if seen[104] != 0 {
		t.Fatalf("the blocked call was answered: %v", seen)
	}
	g.open()
	seen[readXID(t, peer, r)]++
	wantOnce(t, seen, 101, 108)
	// Nothing is left behind: the next reply on the wire is the next call's.
	echoRoundTrips(t, peer, r, 200, 1)
	waitFor(t, "the burst to finish", func() bool { return c.inFlight.Load() == 0 })
	if n := c.wb.Pending(); n != 0 {
		t.Fatalf("%d replies left queued", n)
	}
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
