package server

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/clock"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// The reply half of a burst, from outside the server: what the yield in
// front of the reply flush may and may not do to a connection's replies.
// (How many records a yielding leader picks up is the batcher's own pin,
// xdr.TestRecBatcherYieldPicksUpRunnableFollowers, and the counted
// series of internal/bench.)

// tapListener hands the server connections whose writes are counted and
// kept: each Write is one write syscall on the socket under it.
type tapListener struct {
	net.Listener
	tap *writeTap
}

type writeTap struct {
	mu     sync.Mutex
	writes int
	wire   bytes.Buffer
}

func (l tapListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tapConn{conn, l.tap}, nil
}

type tapConn struct {
	net.Conn
	tap *writeTap
}

func (c tapConn) Write(p []byte) (int, error) {
	c.tap.mu.Lock()
	c.tap.writes++
	c.tap.wire.Write(p)
	c.tap.mu.Unlock()
	return c.Conn.Write(p)
}

// snapshot returns the write count and the records written so far.
func (w *writeTap) snapshot(t *testing.T) (writes int, records [][]byte) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	r := xdr.NewRecStream(bytes.NewBuffer(bytes.Clone(w.wire.Bytes())), 0)
	for {
		rec, err := r.ReadRecord(nil)
		if err != nil {
			return w.writes, records
		}
		records = append(records, rec)
	}
}

// serveTapped starts s on a loopback listener behind a tap and returns a
// connection to it.
func serveTapped(t *testing.T, s *Server) (net.Conn, *writeTap) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	tap := &writeTap{}
	go func() { _ = s.ServeTCP(tapListener{ln, tap}) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return conn, tap
}

// frame returns the calls as record-marked wire bytes, one record each.
func frame(calls ...[]byte) (wire []byte) {
	for _, c := range calls {
		mark := uint32(len(c)) | 1<<31
		wire = append(wire, byte(mark>>24), byte(mark>>16), byte(mark>>8), byte(mark))
		wire = append(wire, c...)
	}
	return wire
}

// writeBurst sends the calls as one write: every record of the burst is
// in the server's read-ahead window before the first handler starts.
func writeBurst(t *testing.T, conn net.Conn, calls [][]byte) {
	t.Helper()
	if _, err := conn.Write(frame(calls...)); err != nil {
		t.Fatal(err)
	}
}

// readXID reads one reply record and returns its XID. The deadline only
// turns a hang into a failure.
func readXID(t *testing.T, conn net.Conn, r *xdr.RecStream) uint32 {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rec, err := r.ReadRecord(nil)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	rh, _ := decodeReply(t, rec)
	return rh.XID
}

// TestServeTCPBurstBlockedHandlerHoldsNoReply: the leader yields to
// handlers that can run, never waits for one that cannot. Of eight calls
// arriving in one write the first blocks; the other seven replies reach
// the client while it is still blocked — it is released only after they
// have been read — and then the eighth follows.
func TestServeTCPBurstBlockedHandlerHoldsNoReply(t *testing.T) {
	const procBlock = uint32(9)
	s := newTestServer()
	release := make(chan struct{})
	s.Register(testProg, testVers, procBlock, func(*xdr.XDR) (Marshal, error) {
		<-release
		return nil, nil
	})
	conn, _ := serveTapped(t, s)
	defer s.Close()
	defer conn.Close()

	const blockedXID = 500
	in := []int32{7}
	calls := [][]byte{buildCall(t, blockedXID, testVers, procBlock, nil)}
	for xid := uint32(501); xid <= 507; xid++ {
		calls = append(calls, buildCall(t, xid, testVers, procEcho, func(x *xdr.XDR) error {
			return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
		}))
	}
	writeBurst(t, conn, calls)

	r := xdr.NewRecStream(conn, 0)
	seen := map[uint32]bool{}
	for i := 0; i < 7; i++ {
		xid := readXID(t, conn, r)
		if xid == blockedXID || xid < 501 || xid > 507 || seen[xid] {
			t.Fatalf("reply %d has xid %d while the blocked call is still blocked", i, xid)
		}
		seen[xid] = true
	}
	close(release)
	if xid := readXID(t, conn, r); xid != blockedXID {
		t.Fatalf("last reply has xid %d, want the released call's %d", xid, blockedXID)
	}
}

// TestServeTCPBurstBlockedOnQuickConnection is the same burst on a
// connection that has been found quick, where the first call runs under
// a lent token with the other seven unread behind it: their replies
// still arrive while it is blocked — once the clock has moved lendLimit,
// by the watchdog's doing — and the connection is not lent to again for
// lendAgain, however quick its handlers look once they are handed off:
// the next such burst fans out at once.
func TestServeTCPBurstBlockedOnQuickConnection(t *testing.T) {
	defer testutil.NoLeak(t)()
	s, g := New(), newGate()
	s.Register(testProg, testVers, procEcho, echoProc)
	s.Register(testProg, testVers, procGate, g.proc)
	defer s.Close()
	defer g.open()
	peer, c, stop := lentConn(t, s)
	defer stop()
	defer g.open()
	r := xdr.NewRecStream(peer, 0)

	burst := func(first uint32) {
		t.Helper()
		calls := [][]byte{buildCall(t, first, testVers, procGate, nil)}
		for xid := first + 1; xid < first+8; xid++ {
			calls = append(calls, echoCall(t, xid))
		}
		writeBurst(t, peer, calls)
		awaitEntry(t, g)
	}
	makeQuick(t, peer, r, c, 1)
	burst(500)
	if !c.lending.lent.Load() {
		t.Fatal("the blocked call is not running under a lent token")
	}
	advance(c, lendLimit)
	wantOnce(t, readXIDs(t, peer, r, 7, 50*time.Millisecond), 501, 507)
	g.release <- struct{}{}
	wantOnce(t, readXIDs(t, peer, r, 1, time.Second), 500, 500)
	waitFor(t, "the blocked call to finish", func() bool { return c.inFlight.Load() == 0 })

	makeQuick(t, peer, r, c, 100) // handed off, and quick by the clock again
	burst(600)
	if c.lending.lent.Load() {
		t.Fatal("token lent again within lendAgain of the watchdog taking it")
	}
	wantOnce(t, readXIDs(t, peer, r, 7, 50*time.Millisecond), 601, 607)
	g.open()
	wantOnce(t, readXIDs(t, peer, r, 1, time.Second), 600, 600)
}

// TestServeTCPLoneCallOneWrite: with one call in flight per connection
// nobody is coming, so each reply is exactly one write.
func TestServeTCPLoneCallOneWrite(t *testing.T) {
	s := newTestServer()
	conn, tap := serveTapped(t, s)
	c := client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
	const calls = 32
	for i := 0; i < calls; i++ {
		echoOnce(t, c)
	}
	_ = c.Close()
	_ = s.Close()
	if writes, records := tap.snapshot(t); writes != calls || len(records) != calls {
		t.Fatalf("%d lone calls answered with %d records in %d writes, want %d and %d",
			calls, len(records), writes, calls, calls)
	}
}

// readCount counts the Reads of a connection that delivered bytes: each
// is one read syscall that moved data.
type readCount struct {
	net.Conn
	reads *atomic.Int64
}

func (c readCount) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestBatchTCPCallsServerWrites: the reply half of a CallBatched burst,
// through the client. A group of seven CallBatched echoes and a
// terminal call leaves the client in one write and reaches the server
// in one read, so the token holder runs all eight under a lent token and
// writes their replies once, and the terminal call reads all eight in
// one read: 0.125 of each per call. The server runs on a clock that
// stands still, so every handler is quick by it: on the real clock a
// host that stretches a burst past lendUnder fans the rest of it out,
// and the count would be the host's, not the code's.
func TestBatchTCPCallsServerWrites(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := newTestServer()
	s.clock = clock.NewFake()
	conn, tap := serveTapped(t, s)
	var reads atomic.Int64
	c := client.NewTCP(readCount{conn, &reads}, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
	in, out := make([]int32, 20), []int32(nil)
	marshal := func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) }
	unmarshal := func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) }
	const calls = 8000
	for g := 0; g < calls/8; g++ {
		for i := 0; i < 7; i++ {
			if err := c.CallBatched(procEcho, marshal); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Call(procEcho, marshal, unmarshal); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()
	_ = s.Close()
	writes, _ := tap.snapshot(t)
	srvW, cliR := float64(writes)/calls, float64(reads.Load())/calls
	if srvW > 0.13 || cliR > 0.13 {
		t.Fatalf("server writes/call = %.4f and client reads/call = %.4f, want <= 0.13: a closed-loop burst is not staying on one goroutine",
			srvW, cliR)
	}
	t.Logf("%.4f server writes and %.4f client reads a call", srvW, cliR)
}
