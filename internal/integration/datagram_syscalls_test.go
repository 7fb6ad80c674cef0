package integration

import (
	"net"
	"testing"

	"specrpc/internal/client"
	ct "specrpc/internal/compiledtest"
	"specrpc/internal/platform/batchio"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
)

// shapeService answers Scale and Sum the way the repo benchmark's
// service does.
type shapeService struct{ ct.ShapeProgV2Handler }

func (shapeService) Scale(arg *ct.Numbers) (*ct.Numbers, error) {
	for i := range *arg {
		(*arg)[i] *= 3
	}
	return arg, nil
}

func (shapeService) Sum(arg *ct.Numbers) (*int32, error) {
	var s int32
	for _, v := range *arg {
		s += v
	}
	return &s, nil
}

// TestDatagramCallSyscalls pins the server's datagram syscalls per call
// — batchio's own counts, read through Snapshot — for serial lone
// Scale(20) calls through the committed stubs over loopback UDP. A
// serial caller never has a second request queued behind the first, so
// each call costs one recvmmsg that moves one datagram, and one reply
// write. The bounds leave room for a retransmission or two, not for a
// path that reads or writes a datagram twice; the floors, for counters
// that stopped counting. Where the server's reads are not recvmmsg the
// test skips: the portable path counts the same, but is pinned by
// batchio's own tests.
func TestDatagramCallSyscalls(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	if !batchio.New(pc, server.DefaultDatagramBatch).Batched() {
		_ = pc.Close()
		t.Skip("recvmmsg is not active here")
	}
	s := server.New()
	defer s.Close()
	ct.RegisterShapeProgV2(s, shapeService{})
	go func() { _ = s.ServeUDP(pc) }()
	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	udp := client.NewUDP(cconn, pc.LocalAddr(), client.Config{Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers})
	defer udp.Close()
	stubs := ct.ShapeProgV2Client{C: udp}

	arg := make(ct.Numbers, 20)
	scale := func() {
		t.Helper()
		for i := range arg {
			arg[i] = int32(i)
		}
		if _, err := stubs.Scale(&arg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // fill the pools
		scale()
	}
	const calls = 400
	before := s.Snapshot()
	for i := 0; i < calls; i++ {
		scale()
	}
	after := s.Snapshot()
	for _, c := range []struct {
		name          string
		before, after uint64
	}{
		{"DatagramReadCalls", before.DatagramReadCalls, after.DatagramReadCalls},
		{"DatagramReadMsgs", before.DatagramReadMsgs, after.DatagramReadMsgs},
		{"DatagramWrites", before.DatagramWrites, after.DatagramWrites},
	} {
		per := float64(c.after-c.before) / calls
		t.Logf("%s: %.3f per call", c.name, per)
		if per < 1 || per > 1.05 {
			t.Errorf("%s: %.3f per call, want 1 to 1.05", c.name, per)
		}
	}
}
