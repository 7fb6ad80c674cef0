// Live round-trips for the fused whole-call path: typed procedures
// registered through RegisterTyped and called through CallTyped run the
// fused codecs end to end over netsim, real UDP loopback, and real TCP
// loopback — mixed freely with closure-based calls on the same
// connection, since both produce identical bytes.
package integration

import (
	"errors"
	"net"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/wire"
)

const (
	typedProg    = uint32(0x20000042)
	typedVers    = uint32(1)
	procTypedRev = uint32(1)
	procTypedVer = uint32(2)
)

type revArgs struct {
	Tag  [4]byte
	Vals []int32
}

var (
	revArgsPlan = wire.MustPlan[revArgs](wire.StructT("rev_args",
		wire.F("tag", wire.OpaqueFixedT(4)),
		wire.F("vals", wire.VarArrayT(0, wire.Int32T())),
	), wire.Specialized)
	revResPlan = wire.MustPlan[[]int32](wire.VarArrayT(0, wire.Int32T()), wire.Specialized)
)

// newTypedServer registers a reverse procedure (mixed fixed and
// variable fields, so the fused image carries both a folded prefix and
// an instruction tail) and a failing procedure.
func newTypedServer() *server.Server {
	s := server.New()
	server.RegisterTyped(s, typedProg, typedVers, procTypedRev, revArgsPlan, revResPlan,
		func(arg *revArgs) (*[]int32, error) {
			if arg.Tag != [4]byte{'r', 'e', 'v', '!'} {
				return nil, errors.New("bad tag")
			}
			out := make([]int32, len(arg.Vals))
			for i, v := range arg.Vals {
				out[len(out)-1-i] = v
			}
			return &out, nil
		})
	server.RegisterTyped(s, typedProg, typedVers, procTypedVer, revArgsPlan, revResPlan,
		func(arg *revArgs) (*[]int32, error) { return nil, errors.New("always fails") })
	return s
}

func typedRoundTrip(t *testing.T, c client.Caller) {
	t.Helper()
	arg := revArgs{Tag: [4]byte{'r', 'e', 'v', '!'}, Vals: []int32{1, 2, 3, 4, 5}}
	var out []int32
	for i := 0; i < 5; i++ {
		if err := client.CallTyped(c, procTypedRev, revArgsPlan, &arg, revResPlan, &out); err != nil {
			t.Fatal(err)
		}
		if len(out) != 5 || out[0] != 5 || out[4] != 1 {
			t.Fatalf("bad reverse: %v", out)
		}
	}
	// Error outcomes keep their RFC detail through the fused path.
	err := client.CallTyped(c, procTypedVer, revArgsPlan, &arg, revResPlan, &out)
	var rpcErr *client.RPCError
	if !errors.As(err, &rpcErr) || rpcErr.AcceptStat != rpcmsg.SystemErr {
		t.Fatalf("failing proc: err = %v, want SYSTEM_ERR", err)
	}
	// A wrong tag is a handler error too, proving arguments decoded.
	bad := revArgs{Vals: []int32{1}}
	if err := client.CallTyped(c, procTypedRev, revArgsPlan, &bad, revResPlan, &out); !errors.As(err, &rpcErr) {
		t.Fatalf("bad tag: err = %v, want RPCError", err)
	}
}

func TestFusedSimRoundTrip(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New()
	s := newTypedServer()
	sep := n.Attach("server")
	go func() { _ = s.ServeUDP(sep) }()
	defer s.Close()
	c := client.NewUDP(n.Attach("client"), netsim.Addr("server"),
		client.Config{Prog: typedProg, Vers: typedVers, Timeout: 5 * time.Second})
	defer c.Close()
	typedRoundTrip(t, c)
}

func TestFusedUDPRoundTrip(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s := newTypedServer()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeUDP(pc) }()
	defer s.Close()
	cc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewUDP(cc, pc.LocalAddr(),
		client.Config{Prog: typedProg, Vers: typedVers, Timeout: 5 * time.Second})
	defer c.Close()
	typedRoundTrip(t, c)
}

func TestFusedTCPRoundTrip(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s := newTypedServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	defer s.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewTCP(conn, client.Config{Prog: typedProg, Vers: typedVers, Timeout: 5 * time.Second})
	defer c.Close()
	typedRoundTrip(t, c)
}
