package server

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// procSleep blocks longer than the idle window before echoing, standing
// in for a genuinely slow handler.
const procSleep = uint32(9)

// TestServeTCPIdleTimeout pins WithIdleTimeout: a connection that goes
// silent between calls is reaped and counted, while a connection that is
// merely waiting on a slow handler — silent on the wire for just as long
// — is not. The old server held silent connections open forever.
func TestServeTCPIdleTimeout(t *testing.T) {
	defer testutil.NoLeak(t)()
	const idle = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithIdleTimeout(idle))
	s.Register(testProg, testVers, procEcho, echoProc)
	s.Register(testProg, testVers, procSleep, func(dec *xdr.XDR) (Marshal, error) {
		m, err := echoProc(dec)
		time.Sleep(4 * idle)
		return m, err
	})
	defer s.Close()
	go func() { _ = s.ServeTCP(ln) }()

	call := func(c client.Caller, proc uint32) error {
		in := []int32{1}
		var out []int32
		return c.Call(proc,
			func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) },
			func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
	}
	dial := func() client.Caller {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 10 * time.Second})
	}

	// A connection that makes one call and then falls silent is reaped
	// once the window passes, and the reap is counted.
	quiet := dial()
	defer quiet.Close()
	if err := call(quiet, procEcho); err != nil {
		t.Fatalf("call before going idle: %v", err)
	}
	waitFor(t, "idle reap", func() bool { return s.Snapshot().IdleDrops == 1 })
	waitFor(t, "reaped conn to untrack", func() bool { return s.Snapshot().Conns == 0 })

	// A connection waiting out a slow handler spans several idle windows
	// with nothing on the wire, yet the in-flight call protects it: the
	// reply arrives and the connection still serves the next call.
	busy := dial()
	defer busy.Close()
	if err := call(busy, procSleep); err != nil {
		t.Fatalf("slow call on an idle-reaping server: %v", err)
	}
	if err := call(busy, procEcho); err != nil {
		t.Fatalf("call after the slow reply: %v", err)
	}
	if got := s.Snapshot().IdleDrops; got != 1 {
		t.Fatalf("busy connection counted as idle: IdleDrops = %d, want 1", got)
	}
}

// TestServeTCPIdleStalledStream pins the other half of the reaper's
// contract now that the record layer reads ahead: a timeout that finds
// the stream anywhere but on a clean record boundary is a stalled
// stream — closed, never counted as idle — whether the leftover is half
// a mark or the front of the next record sitting in the read-ahead
// window behind one that was served.
func TestServeTCPIdleStalledStream(t *testing.T) {
	defer testutil.NoLeak(t)()
	const idle = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithIdleTimeout(idle))
	s.Register(testProg, testVers, procEcho, echoProc)
	defer s.Close()
	go func() { _ = s.ServeTCP(ln) }()

	in := []int32{1, 2, 3}
	call := buildCall(t, 77, testVers, procEcho, func(x *xdr.XDR) error {
		return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
	})
	record := append([]byte{0x80, 0, 0, byte(len(call))}, call...)

	// expectClosed reads conn to its end and returns the reply records
	// that arrived first; the server must close within a few windows.
	expectClosed := func(conn net.Conn) [][]byte {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		rs := xdr.NewRecStream(conn, 0)
		var replies [][]byte
		for {
			rec, err := rs.ReadRecord(nil)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("connection not closed cleanly by the server: %v", err)
				}
				return replies
			}
			replies = append(replies, rec)
		}
	}

	for _, tc := range []struct {
		name    string
		segment []byte
		replies int
	}{
		{"half a mark", record[:2], 0},
		{"a record and half the next", append(append([]byte(nil), record...), record[:len(record)/2]...), 1},
	} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.segment); err != nil {
			t.Fatal(err)
		}
		replies := expectClosed(conn)
		conn.Close()
		if len(replies) != tc.replies {
			t.Fatalf("%s: %d replies before the close, want %d", tc.name, len(replies), tc.replies)
		}
		for _, raw := range replies {
			if rh, _ := decodeReply(t, raw); rh.XID != 77 || rh.AcceptStat != rpcmsg.Success {
				t.Fatalf("%s: reply %+v", tc.name, rh)
			}
		}
		waitFor(t, "stalled conn to untrack", func() bool { return s.Snapshot().Conns == 0 })
		if got := s.Snapshot().IdleDrops; got != 0 {
			t.Fatalf("%s: stalled stream counted as idle: IdleDrops = %d", tc.name, got)
		}
	}
}
