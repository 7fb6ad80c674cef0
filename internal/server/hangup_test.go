package server

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// A stream connection ends where the token holder finds the stream
// broken — a record that is not a call, a mark past the record bound,
// the peer's end — and behind the reply of every call it read before
// that, as svc_vc's did: it answered each record before it read the next.

// notACall is a record whose header does not parse as a call: an XID and
// a message type of REPLY.
var notACall = []byte{0, 0, 0, 9, 0, 0, 0, 1}

// serveStream serves one stream connection over in-process pipes, sends
// it stream in one write and reads replies until the server closes the
// connection. It returns the reply headers, in the order they arrived,
// and the error the reading ended on.
func serveStream(t *testing.T, s *Server, stream []byte) (replies []rpcmsg.ReplyHeader, end error) {
	t.Helper()
	reqPeer, reqSrv := net.Pipe()
	repSrv, repPeer := net.Pipe()
	defer repPeer.Close()
	defer reqPeer.Close()
	served, wrote := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(served)
		s.serveConn(splitConn{Conn: reqSrv, out: repSrv})
	}()
	go func() {
		defer close(wrote)
		_, _ = reqPeer.Write(stream) // returns once it is all read, or the server hung up
	}()
	// The deadline only turns a hang into a failure.
	if err := repPeer.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r := xdr.NewRecStream(repPeer, 0)
	for {
		rec, err := r.ReadRecord(nil)
		if err != nil {
			end = err
			break
		}
		rh, _ := decodeReply(t, rec)
		replies = append(replies, rh)
	}
	<-wrote
	<-served
	return replies, end
}

// wantReplies fails unless replies answer exactly the XIDs in want, each
// with its accept status, and the stream then ended cleanly.
func wantReplies(t *testing.T, replies []rpcmsg.ReplyHeader, end error, want map[uint32]rpcmsg.AcceptStat) {
	t.Helper()
	if !errors.Is(end, io.EOF) {
		t.Errorf("stream ended on %v, want EOF", end)
	}
	got := map[uint32]rpcmsg.AcceptStat{}
	for _, rh := range replies {
		if rh.Stat != rpcmsg.MsgAccepted {
			t.Errorf("reply to xid %d: reply stat %v, want accepted", rh.XID, rh.Stat)
		}
		got[rh.XID] = rh.AcceptStat
	}
	if len(replies) != len(want) || len(got) != len(want) {
		t.Fatalf("replies %v, want one to each of %v", got, want)
	}
	for xid, stat := range want {
		if s, ok := got[xid]; !ok || s != stat {
			t.Errorf("reply to xid %d: %v (answered %v), want %v", xid, s, ok, stat)
		}
	}
}

// TestServeTCPNonCallHangsUpBehindReplies: an echo, a call for a version
// the program lacks, a record that is not a call and another echo, in
// one write. The connection is fresh, so the two calls are handed to
// workers and the token holder meets the bad record while they run. Both
// are answered — the second PROG_MISMATCH — the echo behind the bad
// record is not, and then the stream ends.
func TestServeTCPNonCallHangsUpBehindReplies(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := newTestServer()
	defer s.Close()
	replies, end := serveStream(t, s, frame(echoCall(t, 4),
		buildCall(t, 5, testVers+1, procEcho, nil), notACall, echoCall(t, 6)))
	wantReplies(t, replies, end, map[uint32]rpcmsg.AcceptStat{4: rpcmsg.Success, 5: rpcmsg.ProgMismatch})
}

// TestServeTCPOverLimitHangsUpBehindReply: an echo, then a mark one byte
// past the record bound. The echo, handed to a worker, is answered
// before the stream ends, and the over-limit record is counted once.
func TestServeTCPOverLimitHangsUpBehindReply(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := New(WithMaxRecord(64 << 10))
	s.Register(testProg, testVers, procEcho, echoProc)
	defer s.Close()
	replies, end := serveStream(t, s, append(frame(echoCall(t, 11)), 0x80, 0x01, 0x00, 0x01, 1, 2, 3))
	wantReplies(t, replies, end, map[uint32]rpcmsg.AcceptStat{11: rpcmsg.Success})
	if n := s.Snapshot().RecordLimitDrops; n != 1 {
		t.Errorf("RecordLimitDrops = %d, want 1", n)
	}
}

// TestServeTCPBadRecordBehindHandedOffReplies is
// TestServeTCPBadRecordBehindQueuedReplies on a connection that is not
// quick, and so runs under the race detector too: its two calls are
// handed to workers, and the token holder meets the bad record — a mark
// past the record limit, or a record too short to hold a call header —
// while they run. Both are answered before the stream ends.
func TestServeTCPBadRecordBehindHandedOffReplies(t *testing.T) {
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
		t.Run(bad.name, func(t *testing.T) {
			replies, end := serveStream(t, s, append(append([]byte(nil), calls...), bad.tail...))
			wantReplies(t, replies, end, map[uint32]rpcmsg.AcceptStat{101: rpcmsg.Success, 102: rpcmsg.Success})
		})
	}
}

// TestServeTCPHangUpDrainBounded: a peer sends two calls and a record
// that is not a call, and never reads. A reply write blocks on it (a
// pipe holds no byte nobody reads), and the hang-up's write deadline
// frees it: serveConn returns within drainLimit, and leaves no goroutine
// behind.
func TestServeTCPHangUpDrainBounded(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := newTestServer()
	defer s.Close()
	reqPeer, reqSrv := net.Pipe()
	repSrv, repPeer := net.Pipe()
	defer repPeer.Close()
	defer reqPeer.Close()
	stream := frame(echoCall(t, 21), echoCall(t, 22), notACall)
	served, wrote := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(served)
		s.serveConn(splitConn{Conn: reqSrv, out: repSrv})
	}()
	go func() {
		defer close(wrote)
		_, _ = reqPeer.Write(stream)
	}()
	const slack = 2 * time.Second
	select {
	case <-served:
	case <-time.After(drainLimit + slack):
		t.Errorf("serveConn still running %v after the peer stopped reading, want it back within drainLimit (%v)",
			time.Since(start).Round(time.Millisecond), drainLimit)
		_ = repPeer.Close() // fails the blocked write, so the test can end
		<-served
	}
	<-wrote
}
