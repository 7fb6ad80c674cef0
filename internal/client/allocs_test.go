//go:build !race

// Exact allocation counts do not hold under the race detector: sync.Pool
// drops a quarter of its puts there on purpose.

package client

import (
	"net"
	"testing"

	"specrpc/internal/server"
	"specrpc/internal/xdr"
)

// TestTCPCallAllocs pins the heap cost of one whole TCP call — client and
// server, every goroutine, which is what the repo benchmark's
// allocs_per_call counts — so the per-call allocations removed from the
// round trip cannot creep back: the record mark escaping on every
// ReadRecord (one per side), the reply channel made per call by
// demux.register (channel + buffer), the queue slice RecBatcher.add
// regrew after every flush (one per side), and the BufStream marshalReq
// built per codec-path call. What remains is listed in ROADMAP.md:
// doCall's deadline timer and serveConn's per-request goroutine closure.
func TestTCPCallAllocs(t *testing.T) {
	const maxAllocs = 5 // time.NewTimer: 3; go func closure: 2

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	defer s.Close()
	var v int32
	results := func(x *xdr.XDR) error { return x.Stream.PutLong(v + 1) }
	s.Register(fusedProg, fusedVers, 1, func(dec *xdr.XDR) (server.Marshal, error) {
		return results, dec.Stream.GetLong(&v) // one caller: no race on v
	})
	go func() { _ = s.ServeTCP(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewTCP(conn, Config{Prog: fusedProg, Vers: fusedVers})
	defer c.Close()

	var in, out int32
	args := func(x *xdr.XDR) error { return x.Stream.PutLong(in) }
	reply := func(x *xdr.XDR) error { return x.Stream.GetLong(&out) }
	call := func() {
		in++
		if err := c.Call(1, args, reply); err != nil || out != in+1 {
			t.Fatalf("call: out %d for in %d, err %v", out, in, err)
		}
	}
	for i := 0; i < 50; i++ { // fill the pools and both batchers' spare arrays
		call()
	}
	if allocs := testing.AllocsPerRun(300, call); allocs > maxAllocs {
		t.Errorf("one TCP call allocates %.1f objects across client and server, want <= %d", allocs, maxAllocs)
	}
}
