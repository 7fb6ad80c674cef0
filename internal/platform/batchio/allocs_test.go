//go:build !race

// Exact allocation counts do not hold under the race detector.

package batchio

import (
	"net"
	"testing"
	"time"
)

// TestBatchAllocs pins the mmsg read path's own heap cost at nothing per
// batch: the RawConn callback is bound once, not built per call, and a
// datagram from a peer the socket has heard from gets the interned
// address. A peer it has not costs the one object that is interned for
// it.
func TestBatchAllocs(t *testing.T) {
	a, b := udpPair(t)
	ca, cb := New(a, 8), New(b, 8)
	if !cb.Batched() {
		t.Skip("portable path: no recvmmsg on this platform")
	}
	_ = b.SetReadDeadline(time.Now().Add(5 * time.Second))

	ping := []byte("ping")
	in := []Message{{Buf: make([]byte, 64)}}
	var from net.Addr
	sender := ca
	exchange := func() {
		sender.WriteTo(ping, b.LocalAddr())
		if n, err := cb.ReadBatch(in); err != nil || n != 1 || in[0].N != 4 {
			t.Fatalf("ReadBatch = %d, %v", n, err)
		}
		if from != nil && in[0].Addr != from {
			t.Fatalf("a returning peer's address was not interned: %p, then %p", from, in[0].Addr)
		}
		from = in[0].Addr
	}
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Errorf("WriteTo + ReadBatch from a returning peer allocate %.1f objects, want 0", allocs)
	}

	// Every run a peer the reader has not seen: one allocation each.
	const strangers = 20
	var socks []*Conn
	for i := 0; i < strangers+1; i++ { // AllocsPerRun makes one warm-up run
		pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		socks = append(socks, New(pc, 8))
	}
	next := 0
	newPeer := func() {
		from, sender = nil, socks[next]
		exchange()
		next++
	}
	if allocs := testing.AllocsPerRun(strangers, newPeer); allocs != 1 {
		t.Errorf("a datagram from a new peer allocates %.1f objects, want 1", allocs)
	}
}
