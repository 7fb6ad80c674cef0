package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// udpExchange sends req from conn to the server and returns the reply's
// XID, failing the test if none arrives in time.
func udpExchange(t *testing.T, conn net.PacketConn, to net.Addr, req []byte) uint32 {
	t.Helper()
	if _, err := conn.WriteTo(req, to); err != nil {
		t.Error(err)
		return 0
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Error(err)
		return 0
	}
	buf := make([]byte, 9000)
	n, _, err := conn.ReadFrom(buf)
	if err != nil {
		t.Errorf("no reply: %v", err)
		return 0
	}
	xid, ok := rpcmsg.PeekXID(buf[:n])
	if !ok {
		t.Errorf("reply of %d bytes has no XID", n)
	}
	return xid
}

// listenUDP opens a loopback kernel UDP socket closed at the end of the
// test.
func listenUDP(t *testing.T) net.PacketConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc
}

// TestServeUDPOneWritePerReply pins the datagram write path over kernel
// UDP: every reply — executed by concurrent workers, or answered from
// the duplicate-request cache — leaves with exactly one write call
// moving one message, while reads may still take several datagrams per
// recvmmsg.
func TestServeUDPOneWritePerReply(t *testing.T) {
	const callers, calls = 4, 25
	s := newTestServer()
	defer s.Close()
	spc := listenUDP(t)
	go func() { _ = s.ServeUDP(spc) }()

	in := []int32{7, 8, 9}
	args := func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) }
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		conn := listenUDP(t)
		reqs := make([][]byte, calls)
		for i := range reqs {
			reqs[i] = buildCall(t, uint32(1000*(c+1)+i), testVers, procEcho, args)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range reqs {
				xid := uint32(1000*(c+1) + i)
				if got := udpExchange(t, conn, spc.LocalAddr(), req); got != xid {
					t.Errorf("caller %d: reply XID %d, want %d", c, got, xid)
					return
				}
			}
		}()
	}
	wg.Wait()

	// One retransmitted XID: executed once, then answered from the cache.
	conn := listenUDP(t)
	req := buildCall(t, 77, testVers, procEcho, args)
	for i := 0; i < 2; i++ {
		if got := udpExchange(t, conn, spc.LocalAddr(), req); got != 77 {
			t.Fatalf("send %d: reply XID %d, want 77", i, got)
		}
	}
	if t.Failed() {
		return
	}
	if hits := s.CacheHits(); hits != 1 {
		t.Fatalf("CacheHits = %d, want 1", hits)
	}

	const replies = callers*calls + 2
	// A reply can reach its caller before the worker that wrote it
	// counts the write.
	waitFor(t, "write counters", func() bool {
		_, _, writeCalls, _ := s.DatagramIOStats()
		return writeCalls >= replies
	})
	readCalls, readMsgs, writeCalls, writeMsgs := s.DatagramIOStats()
	if writeCalls != replies || writeMsgs != replies {
		t.Fatalf("writeCalls, writeMsgs = %d, %d, want %d each", writeCalls, writeMsgs, replies)
	}
	if readMsgs != replies || readCalls > readMsgs {
		t.Fatalf("readCalls, readMsgs = %d, %d, want %d messages in at most as many calls", readCalls, readMsgs, replies)
	}
}

// TestServeUDPBufSizeDefault: WithBufSize(n) with n <= 0 keeps the
// default datagram buffer instead of arming empty or negative receive
// buffers, so the server still answers a kernel UDP call.
func TestServeUDPBufSizeDefault(t *testing.T) {
	for _, n := range []int{0, -1} {
		s := New(WithBufSize(n))
		if s.bufSize != 8900 {
			t.Fatalf("WithBufSize(%d): bufSize = %d, want the default 8900", n, s.bufSize)
		}
		s.Register(testProg, testVers, procEcho, echoProc)
		spc := listenUDP(t)
		go func() { _ = s.ServeUDP(spc) }()
		in := []int32{1, 2, 3}
		req := buildCall(t, 5, testVers, procEcho, func(x *xdr.XDR) error {
			return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
		})
		if got := udpExchange(t, listenUDP(t), spc.LocalAddr(), req); got != 5 {
			t.Fatalf("WithBufSize(%d): reply XID %d, want 5", n, got)
		}
		s.Close()
	}
}
