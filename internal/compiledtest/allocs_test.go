//go:build !race

// Exact allocation counts do not hold under the race detector: sync.Pool
// drops a quarter of its puts there on purpose.

package compiledtest

import (
	"net"
	"testing"

	rpcclient "specrpc/internal/client"
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
