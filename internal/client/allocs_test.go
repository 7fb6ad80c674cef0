//go:build !race

// Exact allocation counts do not hold under the race detector: sync.Pool
// drops a quarter of its puts there on purpose.

package client

import (
	"net"
	"testing"
	"unsafe"

	"specrpc/internal/platform/batchio"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/wire"
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
// kernel sockets, where the server reads datagrams with recvmmsg and
// answers each with one WriteTo: the deadline and retransmit timers are
// pooled, the recvmmsg callback is bound once instead of built per
// batch, the server interns the peer's address and the client reads
// replies without boxing theirs.
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

// TestCallPathAllocFree pins the perf acceptance criterion: with the
// header template and pooled buffers/handles, the transport layers —
// header marshal, framing, reply header decode — allocate nothing, on
// the closure path and on the codec path, behind either transport's
// prefix. The closure body marshalers here use the stream bulk
// primitives, as compiled wire plans do; the per-primitive escape of the
// generic x.Uint32 path is the interpretive-layer cost the plans exist
// to remove, and is measured separately by the header-path benchmarks.
func TestCallPathAllocFree(t *testing.T) {
	arg := []int32{1, 2, 3}
	for _, prefix := range []int{0, xdr.RecordMarkLen} {
		e := testEngine(Config{Prog: 0x20000099, Vers: 2}, prefix)
		p, err := e.lookup(1, fusedArgPlan.Codec(), fusedArgPlan.Codec())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			req  callReq
			want float64
		}{
			{"closure", callReq{args: func(x *xdr.XDR) error { return x.Stream.PutLong(7) }}, 0},
			{"fused", callReq{cc: p.call, argp: unsafe.Pointer(&arg)}, 0},
		} {
			req := tc.req
			if allocs := testing.AllocsPerRun(100, func() {
				buf, err := e.marshalReq(req, 42, 1)
				if err != nil {
					t.Fatal(err)
				}
				xdr.PutBuf(buf)
			}); allocs > tc.want {
				t.Errorf("%s marshalReq, prefix %d: %.1f allocs/op, want <= %.0f", tc.name, prefix, allocs, tc.want)
			}
		}
	}

	reply := rpcmsg.MustReplyTemplate(rpcmsg.None()).AppendReply(nil, 42)
	reply = append(reply, 0, 0, 0, 9)
	var got int32
	for name, sink := range map[string]*replySink{
		"closure": {fn: func(x *xdr.XDR) error { return x.Stream.GetLong(&got) }},
		"fused":   {rc: wire.NewReplyCodec(nil, wire.MustPlan[int32](wire.Int32T(), wire.Specialized).Codec()), resp: unsafe.Pointer(&got)},
	} {
		got = 0
		if allocs := testing.AllocsPerRun(100, func() {
			if err := sink.decode(reply); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s reply decode: %.1f allocs/op, want 0", name, allocs)
		}
		if got != 9 {
			t.Fatalf("%s result = %d, want 9", name, got)
		}
	}
}
