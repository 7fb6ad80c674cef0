package server

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"specrpc/internal/client"
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

// writeBurst sends the calls as one write: every record of the burst is
// in the server's read-ahead window before the first handler starts.
func writeBurst(t *testing.T, conn net.Conn, calls [][]byte) {
	t.Helper()
	w := xdr.NewRecStream(conn, 0)
	for _, c := range calls {
		if err := w.QueueRecord(append(make([]byte, xdr.RecordMarkLen), c...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
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

// TestServeTCPLoneCallOneWrite: with one call in flight per connection
// nobody is coming, so each reply is exactly one write — with reply
// batching on as with the one-write-per-record baseline.
func TestServeTCPLoneCallOneWrite(t *testing.T) {
	for _, batching := range []bool{true, false} {
		s := newTestServer()
		WithWriteBatching(batching)(s)
		conn, tap := serveTapped(t, s)
		c := client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second})
		const calls = 32
		for i := 0; i < calls; i++ {
			echoOnce(t, c)
		}
		_ = c.Close()
		_ = s.Close()
		if writes, records := tap.snapshot(t); writes != calls || len(records) != calls {
			t.Fatalf("batching=%v: %d lone calls answered with %d records in %d writes, want %d and %d",
				batching, calls, len(records), writes, calls, calls)
		}
	}
}
