package server

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// What a quick connection costs: one goroutine, and one write a burst.
// The pins run on lentConn's clock, which stands still, so no handler
// runs over lendUnder however slowly the machine — or the race detector —
// runs it.

// TestServeTCPClosedLoopWakesNobody: the first call of a connection is
// handed off (nothing is known about its handler yet), which starts the
// connection's one worker; every call after it runs under a lent token
// on the goroutine that read it, so a thousand calls start no second
// one.
func TestServeTCPClosedLoopWakesNobody(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := newTestServer()
	defer s.Close()
	peer, c, stop := lentConn(t, s)
	echoRoundTrips(t, peer, xdr.NewRecStream(peer, 0), 1, 1000)
	stop()
	if c.lending.lent.Load() {
		t.Fatal("stream over with the token still lent")
	}
	if c.spawned > 1 {
		t.Fatalf("%d workers started for a closed-loop peer, want at most 1", c.spawned)
	}
}

// lentEcho is echoProc counting the calls it ran with the connection's
// read token lent to them: on the goroutine that read them, that is,
// nothing handed to anybody. (With a peer that waits for its replies the
// call running while lent is set is the one it is lent to.)
type lentEcho struct {
	c    atomic.Pointer[streamConn]
	lent atomic.Int32
}

func (e *lentEcho) proc(dec *xdr.XDR) (Marshal, error) {
	if c := e.c.Load(); c != nil && c.lending.lent.Load() {
		e.lent.Add(1)
	}
	return echoProc(dec)
}

// burstWrites sends the calls as one burst, reads the replies it is due
// and waits for the burst to be over, and returns the writes and the
// reply records it cost the server.
func burstWrites(t *testing.T, peer net.Conn, r *xdr.RecStream, c *streamConn, tap *writeTap,
	calls [][]byte, replies int) (writes, records int) {
	t.Helper()
	// A reply can be read before its call has been counted as completed.
	waitFor(t, "earlier calls to finish", func() bool { return c.inFlight.Load() == 0 })
	w0, r0 := tap.snapshot(t)
	done := c.completed.Load() + int64(len(calls))
	writeBurst(t, peer, calls)
	for i := 0; i < replies; i++ {
		readXID(t, peer, r)
	}
	waitFor(t, "the burst to finish", func() bool { return c.completed.Load() == done && c.inFlight.Load() == 0 })
	w1, r1 := tap.snapshot(t)
	return w1 - w0, len(r1) - len(r0)
}

// TestServeTCPQuickBurstOneWrite: a burst on a quick connection has one
// writer, the token holder, and it writes once — when the window is
// empty and it has to ask the connection for more. Eight answered calls
// are eight records in one write; seven one-way calls and a terminal
// call are one record in one write; eight one-way calls write nothing
// and leave nothing queued; one answered call with seven one-way calls
// behind it is still answered. Every answered call runs where it was read,
// under a lent token.
func TestServeTCPQuickBurstOneWrite(t *testing.T) {
	defer testutil.NoLeak(t)()
	var runs atomic.Int32
	echoes := func(first uint32, n int) (calls [][]byte) {
		for xid := first; xid < first+uint32(n); xid++ {
			calls = append(calls, echoCall(t, xid))
		}
		return calls
	}
	oneWays := func(first uint32, n int) (calls [][]byte) {
		for xid := first; xid < first+uint32(n); xid++ {
			calls = append(calls, buildCall(t, xid, testVers, procOneWay, oneWayArgs(oneWayOK)))
		}
		return calls
	}
	for _, tc := range []struct {
		name             string
		calls            [][]byte
		replies          int // echo calls, all of them
		writes           int
		nothingLeftAfter bool
	}{
		{"eight answered", echoes(100, 8), 8, 1, false},
		{"seven one-way and a terminal call", append(oneWays(200, 7), echoCall(t, 207)), 1, 1, false},
		{"eight one-way", oneWays(300, 8), 0, 0, true},
		{"one answered, seven one-way behind it", append(echoes(400, 1), oneWays(401, 7)...), 1, 1, true},
	} {
		s := newOneWayServer(&runs)
		var echo lentEcho
		s.Register(testProg, testVers, procEcho, echo.proc)
		peer, c, tap, stop := tappedLentConn(t, s)
		echo.c.Store(c)
		r := xdr.NewRecStream(peer, 0)
		makeQuick(t, peer, r, c, 1) // handed off: not lent
		writes, records := burstWrites(t, peer, r, c, tap, tc.calls, tc.replies)
		lent := int(echo.lent.Load())
		if writes != tc.writes || records != tc.replies || lent != tc.replies {
			t.Errorf("%s: %d records in %d writes, %d calls run where they were read; want %d in %d, and %d",
				tc.name, records, writes, lent, tc.replies, tc.writes, tc.replies)
		}
		if n := c.wb.Pending(); tc.nothingLeftAfter && n != 0 {
			t.Errorf("%s: %d replies left queued", tc.name, n)
		}
		stop()
		_ = s.Close()
	}
}

// TestServeTCPBurstsAloneBecomeQuick: a peer that never sends a call on
// its own — every record of the connection arrives with seven others —
// is found quick all the same, because every call is timed, handed off
// or not. The first burst of a connection fans out (nothing is known
// yet); by the third the token holder runs all eight itself: no worker
// is started or woken and the replies leave in one write.
func TestServeTCPBurstsAloneBecomeQuick(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := New()
	var echo lentEcho
	s.Register(testProg, testVers, procEcho, echo.proc)
	defer s.Close()
	peer, c, tap, stop := tappedLentConn(t, s)
	echo.c.Store(c)
	r := xdr.NewRecStream(peer, 0)
	burst := func() int {
		var calls [][]byte
		for xid := uint32(1); xid <= 8; xid++ {
			calls = append(calls, echoCall(t, xid))
		}
		w, _ := burstWrites(t, peer, r, c, tap, calls, len(calls))
		return w
	}
	burst()
	burst()
	// No call is in flight: whoever holds the token is in its read.
	before := c.spawned
	echo.lent.Store(0)
	writes := burst()
	lent := int(echo.lent.Load())
	stop() // waits for the connection's goroutines: spawned is safe to read
	if spawned := c.spawned - before; spawned != 0 || writes != 1 || lent != 8 {
		t.Fatalf("third burst of a bursts-only connection: %d workers started, %d writes, %d calls run where they were read; want 0, 1 and 8",
			spawned, writes, lent)
	}
}

// TestServeTCPBadRecordBehindQueuedReplies: a connection can end on what
// is already in the window, without its reader asking the connection
// for anything. Two calls and a mark announcing more than the record
// limit — or a record too short to hold a call header — arrive in one
// write on a quick connection; the two replies, queued when the bad one
// is found, are written before the connection is closed. (Handed off,
// the two are answered too: TestServeTCPBadRecordBehindHandedOffReplies.)
func TestServeTCPBadRecordBehindQueuedReplies(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := New(WithMaxRecord(1024))
	s.Register(testProg, testVers, procEcho, echoProc)
	defer s.Close()
	calls := frame(echoCall(t, 101), echoCall(t, 102))
	for _, bad := range []struct {
		name string
		tail []byte
	}{
		{"over-limit mark", []byte{0x80, 0x10, 0, 0}},                  // last fragment, 1 MiB
		{"undecodable call header", []byte{0x80, 0, 0, 4, 0, 0, 0, 9}}, // a record of four bytes
	} {
		peer, c, stop := lentConn(t, s)
		r := xdr.NewRecStream(peer, 0)
		makeQuick(t, peer, r, c, 1)
		if _, err := peer.Write(append(bytes.Clone(calls), bad.tail...)); err != nil {
			t.Fatal(err)
		}
		replies := 0
		for ; ; replies++ {
			if _, err := r.ReadRecord(nil); err != nil {
				break // the connection was closed behind the bad record
			}
		}
		stop()
		if replies != 2 {
			t.Errorf("%s: %d replies ahead of it, want 2", bad.name, replies)
		}
	}
}
