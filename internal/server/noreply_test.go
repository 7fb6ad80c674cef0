package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// ErrNoReply: the RFC's batched call, which gets no reply record. The
// sentinel is the only silent outcome — the same procedure failing or
// panicking still answers — and silence does not cost at-most-once.

const (
	procOneWay      = uint32(10)
	procOneWayTyped = uint32(11)
)

// One-way argument values: what the handler does after counting the run.
const (
	oneWayOK = int32(iota)
	oneWayFail
	oneWayPanic
	oneWayWrapped
)

// newOneWayServer registers, beside the echo, one one-way procedure per
// registration API. Each takes an int32 array whose first element picks
// the outcome.
func newOneWayServer(runs *atomic.Int32) *Server {
	outcome := func(mode int32) error {
		runs.Add(1)
		switch mode {
		case oneWayFail:
			return errors.New("one-way handler exploded")
		case oneWayPanic:
			panic("one-way handler bug")
		case oneWayWrapped:
			return fmt.Errorf("nothing to say: %w", ErrNoReply)
		}
		return ErrNoReply
	}
	s := newTestServer()
	s.Register(testProg, testVers, procOneWay, func(dec *xdr.XDR) (Marshal, error) {
		var arr []int32
		if err := xdr.Array(dec, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil || len(arr) == 0 {
			return nil, errors.Join(ErrGarbageArgs, err)
		}
		return nil, outcome(arr[0])
	})
	RegisterTyped(s, testProg, testVers, procOneWayTyped, fusedTestPlan, fusedTestPlan,
		func(arg *[]int32) (*[]int32, error) {
			if len(*arg) == 0 {
				return nil, ErrGarbageArgs
			}
			return nil, outcome((*arg)[0])
		})
	return s
}

func oneWayArgs(mode int32) client.Marshal {
	arr := []int32{mode}
	return func(x *xdr.XDR) error { return xdr.Array(x, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long) }
}

func TestHandleCallNoReply(t *testing.T) {
	var runs atomic.Int32
	s := newOneWayServer(&runs)
	for _, proc := range []uint32{procOneWay, procOneWayTyped} {
		for _, mode := range []int32{oneWayOK, oneWayWrapped} {
			req := buildCall(t, 61, testVers, proc, oneWayArgs(mode))
			out, err := s.handleCall(req, make([]byte, xdr.RecordMarkLen, 256))
			if out != nil || err != nil {
				t.Fatalf("proc %d mode %d: handleCall = %x, %v; want no reply and no error", proc, mode, out, err)
			}
		}
		// Undecodable arguments are the caller's mistake, not a one-way
		// outcome: GARBAGE_ARGS, as for any procedure.
		out, err := s.handleCall(buildCall(t, 62, testVers, proc, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rh, _ := decodeReply(t, out); rh.AcceptStat != rpcmsg.GarbageArgs {
			t.Fatalf("proc %d without arguments: %v, want GARBAGE_ARGS", proc, rh.AcceptStat)
		}
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("one-way handlers ran %d times, want 4", got)
	}
}

// TestOneWayTCP: seven batched calls to one-way procedures and the
// terminal call that flushes them cost the server one reply record in
// one write; all seven ran.
func TestOneWayTCP(t *testing.T) {
	var runs atomic.Int32
	s := newOneWayServer(&runs)
	conn, tap := serveTapped(t, s)
	defer s.Close()
	c := client.NewTCP(conn, client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second, FirstXID: 700})
	defer c.Close()

	for i := 0; i < 7; i++ {
		proc, mode := procOneWay, oneWayOK
		if i%2 == 1 {
			proc = procOneWayTyped
		}
		if i == 6 {
			mode = oneWayWrapped
		}
		if err := c.CallBatched(proc, oneWayArgs(mode)); err != nil {
			t.Fatalf("CallBatched %d: %v", i, err)
		}
	}
	echoOnce(t, c)
	waitFor(t, "the seven one-way handlers", func() bool { return runs.Load() == 7 })
	// Close drains every handler of the connection, so a reply one of
	// them was still about to write would be in the tap by now.
	_ = s.Close()
	writes, records := tap.snapshot(t)
	if writes != 1 || len(records) != 1 {
		t.Fatalf("server wrote %d records in %d writes, want the terminal call's reply alone", len(records), writes)
	}
	if rh, _ := decodeReply(t, records[0]); rh.XID != 708 || rh.AcceptStat != rpcmsg.Success {
		t.Fatalf("the one reply is %+v, want SUCCESS for the terminal call (xid 708)", rh)
	}
}

// TestOneWayFailureStillAnswers: a one-way procedure that fails or
// panics answers SYSTEM_ERR like any other, over both transports.
func TestOneWayFailureStillAnswers(t *testing.T) {
	var runs atomic.Int32
	s := newOneWayServer(&runs)
	conn, _ := serveTapped(t, s)
	n := netsim.New()
	sep := n.Attach("server")
	go func() { _ = s.ServeUDP(sep) }()
	defer s.Close()
	cfg := client.Config{Prog: testProg, Vers: testVers, Timeout: 5 * time.Second}
	tc := client.NewTCP(conn, cfg)
	defer tc.Close()
	uc := client.NewUDP(n.Attach("client"), netsim.Addr("server"), cfg)
	defer uc.Close()

	for _, c := range []struct {
		name string
		client.Caller
	}{{"tcp", tc}, {"udp", uc}} {
		for _, proc := range []uint32{procOneWay, procOneWayTyped} {
			wantSystemErr(t, fmt.Sprintf("%s proc %d failing", c.name, proc),
				c.Call(proc, oneWayArgs(oneWayFail), client.Void))
			wantSystemErr(t, fmt.Sprintf("%s proc %d panicking", c.name, proc),
				c.Call(proc, oneWayArgs(oneWayPanic), client.Void))
		}
		echoOnce(t, c)
	}
	if runs, panics := runs.Load(), s.HandlerPanics(); runs != 8 || panics != 4 {
		t.Fatalf("handler runs %d, panics counted %d; want 8, 4", runs, panics)
	}
}

// TestOneWayUDP: nothing is sent for a one-way datagram call, and its
// retransmission is a cache hit answered with the same nothing, not a
// second execution. One worker serves the three datagrams in order, so
// the first reply to arrive being the echo's shows the two before it
// produced none.
func TestOneWayUDP(t *testing.T) {
	var runs atomic.Int32
	n := netsim.New()
	s := newOneWayServer(&runs)
	s.workers = 1
	sep := n.Attach("server")
	go func() { _ = s.ServeUDP(sep) }()
	defer s.Close()

	cep := n.Attach("client")
	oneWay := buildCall(t, 800, testVers, procOneWay, oneWayArgs(oneWayOK))
	echo := buildCall(t, 801, testVers, procEcho, oneWayArgs(3))
	for _, req := range [][]byte{oneWay, oneWay, echo} {
		if _, err := cep.WriteTo(req, netsim.Addr("server")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cep.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	nr, _, err := cep.ReadFrom(buf)
	if err != nil {
		t.Fatalf("no reply to the echo: %v", err)
	}
	if rh, _ := decodeReply(t, buf[:nr]); rh.XID != 801 || rh.AcceptStat != rpcmsg.Success {
		t.Fatalf("first datagram back is %+v, want the echo's reply (xid 801)", rh)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("one-way handler ran %d times for a call and its retransmission, want 1", got)
	}
	if hits := s.CacheHits(); hits != 1 {
		t.Fatalf("cache hits %d, want 1 (the retransmission)", hits)
	}
}
