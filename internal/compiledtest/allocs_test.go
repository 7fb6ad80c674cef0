//go:build !race

// Exact allocation counts do not hold under the race detector: sync.Pool
// drops a quarter of its puts there on purpose.

package compiledtest

import (
	"math/rand"
	"net"
	"testing"
	"unsafe"

	rpcclient "specrpc/internal/client"
	"specrpc/internal/platform/batchio"
	rpcserver "specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
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

// Mix answers as the repo benchmark's service does: its argument, which
// the server decodes every call into, is the result.
func (l *looker) Mix(arg *Sample) (*Sample, error) {
	arg.B++
	return arg, nil
}

// TestLookupPingAllocs pins what a Lookup, a Ping and a Mix cost through
// the committed stubs, client and server together, over loopback UDP and
// TCP. The procedures run on the compiled rung, so the transports and
// the codecs add nothing: Ping allocates nothing at all, and a Lookup
// allocates the client stub's result, then the one slab a hit decodes
// its label (Go strings are immutable) and, with one, its Next point
// into. A Mix allocates four, measured 4.00 on both transports: the
// client's result, the slab the client decodes its strings, opaques and
// pointer-free arrays into, the header of its Words (an array of
// strings holds pointers, so it is no part of a slab), and the slab of
// the server's decode, which reuses every slice of its argument and so
// carves only the strings. The handler here allocates nothing of its
// own.
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
	mix := mixArg()
	rows := []row{
		{"ping", func(c *ShapeProgV2Client) error { return c.Ping() }, 0},
		{"lookup miss", lookup(0, 1), 1},
		{"lookup hit", lookup(1, 0), 2},
		{"lookup hit with next", lookup(2, 0), 2},
		{"mix", func(c *ShapeProgV2Client) error {
			res, err := c.Mix(mix)
			if err == nil && (res.B != mix.B+1 || res.Name != mix.Name || len(res.Words) != 4 || res.Words[3] != "four4") {
				t.Fatalf("Mix = %+v", res)
			}
			return err
		}, 4},
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

// TestSlabAllocs pins that the pre-pass sizes each slab exactly: a
// compiled decode of sample, shape or lookup_result into a fresh value
// allocates one slab for all of its strings, opaques, pointer-free
// arrays and pointer-free pointees, plus each array and pointee that
// holds pointers (testutil.CarvedAllocs) — no part falls back to an
// allocation of its own.
func TestSlabAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for i := 0; i < 100; i++ {
		raw := make([]byte, r.Intn(400))
		r.Read(raw)
		name := string(raw[:min(len(raw), r.Intn(40))])
		v := fuzzSample(r.Int31(), r.Int63(), r.Intn(2) == 1, name, raw)
		checkSlabAllocs(t, planSample.Codec().BodyDecoder(), planSample.Encode, &v)
		lr := fuzzLookup(r.Int31n(8), r.Int63(), r.Intn(2) == 1, name)
		checkSlabAllocs(t, planLookupResult.Codec().BodyDecoder(), planLookupResult.Encode, &lr)
		checkSlabAllocs(t, planShape.Codec().BodyDecoder(), planShape.Encode, &lr.S)
	}
}

func checkSlabAllocs[T any](t *testing.T, decode func([]byte, unsafe.Pointer) error, encode func(*xdr.XDR, *T) error, v *T) {
	t.Helper()
	w := xdr.NewBufEncode(nil)
	if err := encode(xdr.NewEncoder(w), v); err != nil {
		t.Fatal(err)
	}
	body := w.Buffer()
	var zero T
	into := new(T)
	if err := decode(body, unsafe.Pointer(into)); err != nil {
		t.Fatal(err)
	}
	want := testutil.CarvedAllocs(into)
	if got := testing.AllocsPerRun(5, func() {
		*into = zero
		if err := decode(body, unsafe.Pointer(into)); err != nil {
			t.Fatal(err)
		}
	}); got != float64(want) {
		t.Fatalf("compiled decode of %s: %v allocations, want %d", testutil.Show(*v), got, want)
	}
}
