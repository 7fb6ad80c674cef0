package server

import (
	"net"
	"testing"
	"time"

	"specrpc/internal/xdr"
)

// BenchmarkServeTCPBurst8 is the measurement behind lendUnder as a
// burst's budget: one closed-loop peer sends eight calls in one write and
// reads the eight replies, with handlers that cost next to nothing (the
// token holder should run all eight itself), 5 µs each (the burst runs
// past the budget half way through), 50 µs each (the first already does:
// every later burst fans out whole, and the two CPUs' worth of overlap is
// the point), and next to nothing but for the first of the eight, which
// blocks until the peer has read the other seven replies (one burst pays
// lendLimit, every burst after it is handed off at once). ns/op is one
// burst.
func BenchmarkServeTCPBurst8(b *testing.B) {
	const (
		procSpin5  = uint32(13)
		procSpin50 = uint32(14)
		procBlock  = uint32(15)
		burst      = 8
	)
	spin := func(d time.Duration) Proc {
		return func(*xdr.XDR) (Marshal, error) {
			for start := time.Now(); time.Since(start) < d; {
			}
			return nil, nil
		}
	}
	for _, leg := range []struct {
		name        string
		first, rest uint32
	}{
		{"quick", procEcho, procEcho},
		{"spin5us", procSpin5, procSpin5},
		{"spin50us", procSpin50, procSpin50},
		{"oneBlocked", procBlock, procEcho},
	} {
		b.Run(leg.name, func(b *testing.B) {
			s := newTestServer()
			release := make(chan struct{})
			s.Register(testProg, testVers, procSpin5, spin(5*time.Microsecond))
			s.Register(testProg, testVers, procSpin50, spin(50*time.Microsecond))
			s.Register(testProg, testVers, procBlock, func(*xdr.XDR) (Marshal, error) {
				<-release
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

			// The eight records, framed once: one Write is one burst.
			in := []int32{7}
			args := func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) }
			calls := [][]byte{buildCall(b, 0, testVers, leg.first, args)}
			for xid := uint32(1); xid < burst; xid++ {
				calls = append(calls, buildCall(b, xid, testVers, leg.rest, args))
			}
			wire := frame(calls...)
			r := xdr.NewRecStream(conn, 0)
			rec := make([]byte, 0, 256)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := conn.Write(wire); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < burst; i++ {
					if i == burst-1 && leg.first == procBlock {
						release <- struct{}{}
					}
					if rec, err = r.ReadRecord(rec[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
