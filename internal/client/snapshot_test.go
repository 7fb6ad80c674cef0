package client

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/xdr"
)

const (
	snapProg = uint32(0x2000077b)
	snapVers = uint32(1)

	snapGate = uint32(1) // waits for the test to open the gate
	snapVoid = uint32(2) // answers at once, with no results
	snapBig  = uint32(3) // answers with 800 opaque bytes
)

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// rawCall is one call message to the snapshot program.
func rawCall(t *testing.T, xid, proc uint32) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	h := rpcmsg.CallHeader{XID: xid, Prog: snapProg, Vers: snapVers, Proc: proc,
		Cred: rpcmsg.None(), Verf: rpcmsg.None()}
	if err := h.Marshal(xdr.NewEncoder(bs)); err != nil {
		t.Fatal(err)
	}
	return bs.Buffer()
}

// TestStatsViewsMatchSnapshot: the six counters benchmark/ still reads
// through their own methods are the ones Snapshot reports, after
// traffic that moves every one of them.
func TestStatsViewsMatchSnapshot(t *testing.T) {
	n := netsim.New()
	s := server.New(server.WithWorkers(1), server.WithQueueDepth(1))
	gate := make(chan struct{})
	s.Register(snapProg, snapVers, snapGate, func(*xdr.XDR) (server.Marshal, error) { <-gate; return nil, nil })
	s.Register(snapProg, snapVers, snapVoid, func(*xdr.XDR) (server.Marshal, error) { return nil, nil })
	s.Register(snapProg, snapVers, snapBig, func(*xdr.XDR) (server.Marshal, error) {
		return func(x *xdr.XDR) error {
			b := make([]byte, 800)
			return x.Bytes(&b, xdr.NoSizeLimit)
		}, nil
	})
	sep := n.Attach("server")
	go func() { _ = s.ServeUDP(sep) }()
	raw := n.Attach("raw")
	send := func(b []byte) {
		t.Helper()
		if _, err := raw.WriteTo(b, netsim.Addr("server")); err != nil {
			t.Fatal(err)
		}
	}

	// A request that fills the server's 8900-byte buffer is dropped as
	// possibly truncated.
	send(make([]byte, 9000))
	// A retransmitted XID is answered from the reply cache.
	if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		send(rawCall(t, 1, snapVoid))
		if _, _, err := raw.ReadFrom(make([]byte, 512)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// A reply that fills the client's 512-byte buffer is dropped as
	// possibly truncated, and the call retransmits until it times out.
	c := NewUDP(n.Attach("client"), netsim.Addr("server"),
		Config{Prog: snapProg, Vers: snapVers, BufSize: 512, Timeout: 200 * time.Millisecond, Retransmit: 20 * time.Millisecond})
	defer c.Close()
	var out []byte
	if err := c.Call(snapBig, Void, func(x *xdr.XDR) error { return x.Bytes(&out, xdr.NoSizeLimit) }); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// With the one worker held and its one queue slot taken, the rest
	// of a burst is shed.
	for xid := uint32(10); xid < 14; xid++ {
		send(rawCall(t, xid, snapGate))
	}
	eventually(t, "admission drops", func() bool { return s.Snapshot().QueueDrops >= 2 })
	close(gate)
	s.Close() // waits for the workers: nothing moves after this

	st, cst := s.Snapshot(), c.Snapshot()
	if st.TruncatedDrops == 0 || st.CacheHits == 0 || st.QueueDrops == 0 || st.DatagramWrites == 0 ||
		cst.Retransmits == 0 || cst.TruncatedDrops == 0 {
		t.Fatalf("traffic left a counter at zero: server %+v, client %+v", st, cst)
	}
	if got := s.TruncatedDrops(); got != st.TruncatedDrops {
		t.Errorf("Server.TruncatedDrops = %d, Snapshot %d", got, st.TruncatedDrops)
	}
	if got := s.QueueDrops(); got != st.QueueDrops {
		t.Errorf("Server.QueueDrops = %d, Snapshot %d", got, st.QueueDrops)
	}
	if got := s.CacheHits(); got != st.CacheHits {
		t.Errorf("Server.CacheHits = %d, Snapshot %d", got, st.CacheHits)
	}
	rc, rm, wc, wm := s.DatagramIOStats()
	if rc != st.DatagramReadCalls || rm != st.DatagramReadMsgs || wc != st.DatagramWrites || wm != st.DatagramWrites {
		t.Errorf("DatagramIOStats = %d, %d, %d, %d; Snapshot reads %d (%d messages), writes %d",
			rc, rm, wc, wm, st.DatagramReadCalls, st.DatagramReadMsgs, st.DatagramWrites)
	}
	if got := c.RetryStats(); got != cst.RetryStats {
		t.Errorf("RetryStats = %+v, Snapshot %+v", got, cst.RetryStats)
	}
	if got := c.TruncatedDrops(); got != cst.TruncatedDrops {
		t.Errorf("UDP.TruncatedDrops = %d, Snapshot %d", got, cst.TruncatedDrops)
	}
}

// TestSnapshotWhileCalling reads both sides' snapshots while typed and
// closure calls run on both transports and a procedure is registered,
// so the race detector sees the reads against the writes they share
// state with: the dispatch table, the plan cache, the counters and the
// gauges.
func TestSnapshotWhileCalling(t *testing.T) {
	s := server.New()
	server.RegisterTyped(s, fusedProg, fusedVers, fusedProc, fusedArgPlan, fusedArgPlan,
		func(arg *[]int32) (*[]int32, error) { return arg, nil })
	s.Register(fusedProg, fusedVers, 2, func(*xdr.XDR) (server.Marshal, error) { return nil, nil })
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeUDP(pc) }()
	go func() { _ = s.ServeTCP(ln) }()
	defer s.Close()

	cfg := Config{Prog: fusedProg, Vers: fusedVers, Timeout: 5 * time.Second}
	cc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := NewUDP(cc, pc.LocalAddr(), cfg)
	defer u.Close()
	tc, err := DialTCP("tcp", ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _, _ = s.Snapshot(), u.Snapshot(), tc.Snapshot()
		}
	}()
	var callers sync.WaitGroup
	for _, c := range []Caller{u, tc, u, tc} {
		callers.Add(1)
		go func() {
			defer callers.Done()
			in, out := []int32{1, 2, 3}, []int32(nil)
			for i := 0; i < 50; i++ {
				if err := CallTyped(c, fusedProc, fusedArgPlan, &in, fusedArgPlan, &out); err != nil {
					t.Error(err)
					return
				}
				if err := c.Call(2, Void, Void); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	s.Register(fusedProg, fusedVers, 3, func(*xdr.XDR) (server.Marshal, error) { return nil, nil })
	callers.Wait()
	close(stop)
	readers.Wait()
	if st := u.Snapshot(); len(st.Procs) != 1 || st.InFlight != 0 {
		t.Fatalf("UDP snapshot after the calls: %+v", st)
	}
	if got := len(s.Snapshot().Procs); got != 3 {
		t.Fatalf("server lists %d procedures, want 3", got)
	}
}
