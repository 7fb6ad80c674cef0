//go:build !race

// Exact allocation counts do not hold under the race detector: sync.Pool
// drops a quarter of its puts there on purpose.

package client

import (
	"net"
	"testing"

	"specrpc/internal/platform/batchio"
	"specrpc/internal/server"
	"specrpc/internal/xdr"
)

// echoPlusOne registers procedure 1 on s: it answers v+1. The handler
// keeps its state in one captured variable, so it serves one caller.
func echoPlusOne(s *server.Server) {
	var v int32
	results := func(x *xdr.XDR) error { return x.Stream.PutLong(v + 1) }
	s.Register(fusedProg, fusedVers, 1, func(dec *xdr.XDR) (server.Marshal, error) {
		return results, dec.Stream.GetLong(&v)
	})
}

// callAllocs warms c up and returns the allocations of one call on it.
func callAllocs(t *testing.T, c Caller) float64 {
	var in, out int32
	args := func(x *xdr.XDR) error { return x.Stream.PutLong(in) }
	reply := func(x *xdr.XDR) error { return x.Stream.GetLong(&out) }
	call := func() {
		in++
		if err := c.Call(1, args, reply); err != nil || out != in+1 {
			t.Fatalf("call: out %d for in %d, err %v", out, in, err)
		}
	}
	for i := 0; i < 50; i++ { // fill the pools and the batchers' spare arrays
		call()
	}
	return testing.AllocsPerRun(300, call)
}

// TestTCPCallAllocs pins the heap cost of one whole TCP call — client and
// server, every goroutine, which is what the repo benchmark's
// allocs_per_call counts — at nothing, so that no per-call allocation
// removed from the round trip can creep back: the record mark escaping
// on every ReadRecord (one per side), the reply channel demux.register
// made per call (channel + buffer), the queue slice RecBatcher.add
// regrew after every flush (one per side), the BufStream marshalReq
// built per codec-path call, the deadline timer doCall armed per call
// (three objects; timers are pooled now) and the goroutine serveConn
// started per request (closure + captured buffer; the goroutine that
// read the call runs it now).
func TestTCPCallAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	defer s.Close()
	echoPlusOne(s)
	go func() { _ = s.ServeTCP(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewTCP(conn, Config{Prog: fusedProg, Vers: fusedVers})
	defer c.Close()
	if allocs := callAllocs(t, c); allocs > 0 {
		t.Errorf("one TCP call allocates %.1f objects across client and server, want 0", allocs)
	}
}

// TestUDPCallAllocs is the same pin for the datagram transport over
// kernel sockets, where the server moves datagrams with
// recvmmsg/sendmmsg: the deadline and retransmit timers are pooled, the
// mmsg callbacks are bound once instead of built per batch, the reply
// sender swaps two queue arrays, the server interns the peer's address
// and the client reads replies without boxing theirs.
func TestUDPCallAllocs(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	if !batchio.New(pc, 2).Batched() {
		pc.Close()
		t.Skip("portable datagram path: ReadFrom boxes an address per datagram")
	}
	s := server.New()
	defer s.Close()
	echoPlusOne(s)
	go func() { _ = s.ServeUDP(pc) }()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewUDP(conn, pc.LocalAddr(), Config{Prog: fusedProg, Vers: fusedVers})
	defer c.Close()
	allocs := callAllocs(t, c)
	if _, readMsgs, _, _ := s.DatagramIOStats(); readMsgs == 0 {
		t.Fatal("the server counted no datagrams")
	}
	if allocs > 0 {
		t.Errorf("one UDP call allocates %.1f objects across client and server, want 0", allocs)
	}
}
