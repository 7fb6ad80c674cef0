//go:build !race

// Exact allocation counts do not hold under the race detector: sync.Pool
// drops a quarter of its puts there on purpose.

package compiledtest

import (
	"net"
	"testing"

	rpcclient "specrpc/internal/client"
	"specrpc/internal/platform/batchio"
	rpcserver "specrpc/internal/server"
)

// scaler answers Scale the way the repo benchmark's service does: in
// place, returning its argument as the result.
type scaler struct{ ShapeProgV2Handler }

func (scaler) Scale(arg *Numbers) (*Numbers, error) {
	for i := range *arg {
		(*arg)[i] *= 3
	}
	return arg, nil
}

// TestTypedRoundTripAllocs pins one Scale(20) call through the committed
// stubs over loopback TCP, client and server together — the repo
// benchmark's tcp_echo20 op. The transports and the server's argument
// decode contribute nothing: what is left is the client stub's own
// result, which it allocates per call (the Numbers header and its
// backing array).
func TestTypedRoundTripAllocs(t *testing.T) {
	const maxAllocs = 2

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := rpcserver.New()
	defer s.Close()
	RegisterShapeProgV2(s, scaler{})
	go func() { _ = s.ServeTCP(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tcp := rpcclient.NewTCP(conn, rpcclient.Config{Prog: ShapeProgV2Prog, Vers: ShapeProgV2Vers})
	defer tcp.Close()
	c := ShapeProgV2Client{C: tcp}

	arg := make(Numbers, 20)
	call := func() {
		for i := range arg {
			arg[i] = int32(i)
		}
		res, err := c.Scale(&arg)
		if err != nil || len(*res) != len(arg) || (*res)[7] != 21 {
			t.Fatalf("Scale: %v, %v", res, err)
		}
	}
	for i := 0; i < 50; i++ { // fill the pools
		call()
	}
	if allocs := testing.AllocsPerRun(300, call); allocs > maxAllocs {
		t.Errorf("one typed TCP call allocates %.1f objects across client and server, want <= %d", allocs, maxAllocs)
	}
}

// looker answers Lookup from results built once, so the counts below are
// the stubs' and the transports' alone: key 0 misses, key 1 hits a shape
// without Next, key 2 one with it. Ping does nothing.
type looker struct {
	ShapeProgV2Handler
	res [3]LookupResult
}

func newLooker() *looker {
	l := &looker{}
	l.res[0] = LookupResult{Status: 1, ErrnoVal: 2}
	for i := 1; i < 3; i++ {
		l.res[i] = LookupResult{S: Shape{Kind: BLUE, Label: "tri", Stamp: 7, Weight: 1.5, Visible: true}}
	}
	l.res[2].S.Next = &Point{X: 7, Y: -8}
	return l
}

func (l *looker) Lookup(arg *Point) (*LookupResult, error) { return &l.res[arg.Y], nil }
func (l *looker) Ping() error                              { return nil }

// TestLookupPingAllocs pins what a Lookup and a Ping cost through the
// committed stubs, client and server together, over loopback UDP and
// TCP. Both procedures run on the compiled rung, so the transports and
// the codecs add nothing: Ping allocates nothing at all, and a Lookup
// allocates the client stub's result, then the label string a hit
// decodes (Go strings are immutable), then the Next point a hit with one
// decodes. The handler here allocates nothing of its own.
func TestLookupPingAllocs(t *testing.T) {
	type row struct {
		name string
		call func(c *ShapeProgV2Client) error
		want float64
	}
	lookup := func(key int32, status int32) func(c *ShapeProgV2Client) error {
		arg := &Point{X: 1, Y: key}
		return func(c *ShapeProgV2Client) error {
			res, err := c.Lookup(arg)
			if err == nil && (res.Status != status || (key == 2) != (res.S.Next != nil)) {
				t.Fatalf("Lookup(%d) = %+v", key, res)
			}
			return err
		}
	}
	rows := []row{
		{"ping", func(c *ShapeProgV2Client) error { return c.Ping() }, 0},
		{"lookup miss", lookup(0, 1), 1},
		{"lookup hit", lookup(1, 0), 2},
		{"lookup hit with next", lookup(2, 0), 3},
	}
	for _, transport := range []string{"udp", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			s := rpcserver.New()
			defer s.Close()
			RegisterShapeProgV2(s, newLooker())
			cfg := rpcclient.Config{Prog: ShapeProgV2Prog, Vers: ShapeProgV2Vers}
			var c ShapeProgV2Client
			if transport == "udp" {
				pc, err := net.ListenPacket("udp", "127.0.0.1:0")
				if err != nil {
					t.Skipf("no loopback UDP: %v", err)
				}
				if !batchio.New(pc, 2).Batched() {
					pc.Close()
					t.Skip("portable datagram path: ReadFrom boxes an address per datagram")
				}
				go func() { _ = s.ServeUDP(pc) }()
				conn, err := net.ListenPacket("udp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				udp := rpcclient.NewUDP(conn, pc.LocalAddr(), cfg)
				defer udp.Close()
				c.C = udp
			} else {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go func() { _ = s.ServeTCP(ln) }()
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				tcp := rpcclient.NewTCP(conn, cfg)
				defer tcp.Close()
				c.C = tcp
			}
			for _, r := range rows {
				call := func() {
					if err := r.call(&c); err != nil {
						t.Fatalf("%s: %v", r.name, err)
					}
				}
				for i := 0; i < 50; i++ { // fill the pools
					call()
				}
				if got := testing.AllocsPerRun(300, call); got != r.want {
					t.Errorf("%s over %s: %.2f allocations a call across client and server, want %v", r.name, transport, got, r.want)
				}
			}
		})
	}
}
