package batchio

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// udpPair returns two kernel UDP sockets on the loopback.
func udpPair(t *testing.T) (a, b net.PacketConn) {
	t.Helper()
	mk := func() net.PacketConn {
		pc, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			t.Skipf("no loopback UDP: %v", err)
		}
		t.Cleanup(func() { pc.Close() })
		return pc
	}
	return mk(), mk()
}

// TestRoundTrip sends a burst with one WriteTo per datagram and reads it
// back with ReadBatch on whichever path the platform engages, checking
// payloads and the interned source address survive and the counters
// stay consistent: one write call per datagram.
func TestRoundTrip(t *testing.T) {
	for _, batch := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			a, b := udpPair(t)
			ca, cb := New(a, batch), New(b, batch)
			t.Logf("batched: a=%v b=%v", ca.Batched(), cb.Batched())

			const total = 16
			for i := 0; i < total; i++ {
				ca.WriteTo([]byte(fmt.Sprintf("datagram-%02d", i)), b.LocalAddr())
			}
			if calls := ca.Stats().WriteCalls.Load(); calls != total {
				t.Fatalf("WriteCalls = %d, want %d", calls, total)
			}

			b.SetReadDeadline(time.Now().Add(5 * time.Second))
			seen := make(map[string]bool)
			var from net.Addr
			in := make([]Message, batch)
			for len(seen) < total {
				for i := range in {
					in[i].Buf = make([]byte, 64)
				}
				n, err := cb.ReadBatch(in)
				if err != nil {
					t.Fatalf("ReadBatch after %d msgs: %v", len(seen), err)
				}
				for i := 0; i < n; i++ {
					seen[string(in[i].Buf[:in[i].N])] = true
					ua, ok := in[i].Addr.(*net.UDPAddr)
					if !ok || ua.Port != a.LocalAddr().(*net.UDPAddr).Port {
						t.Fatalf("message %d: source addr %v, want %v", i, in[i].Addr, a.LocalAddr())
					}
					if cb.Batched() && from != nil && in[i].Addr != from {
						t.Fatalf("message %d: the peer's address was not interned: %p, then %p", i, from, in[i].Addr)
					}
					from = in[i].Addr
				}
			}
			if got := cb.Stats().ReadMsgs.Load(); got != total {
				t.Fatalf("ReadMsgs = %d, want %d", got, total)
			}
			if cb.Stats().ReadCalls.Load() > cb.Stats().ReadMsgs.Load() {
				t.Fatalf("ReadCalls %d exceeds ReadMsgs %d", cb.Stats().ReadCalls.Load(), cb.Stats().ReadMsgs.Load())
			}
		})
	}
}

// TestPortableFallbackShim: a wrapped conn (not *net.UDPConn) must stay
// on the portable path even with batch > 1 — this is what keeps counter
// shims honest in the benchmarks.
func TestPortableFallbackShim(t *testing.T) {
	a, _ := udpPair(t)
	c := New(shimConn{a}, 8)
	if c.Batched() {
		t.Fatal("wrapped conn engaged the mmsg path")
	}
}

type shimConn struct{ net.PacketConn }
