package client

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/clock"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// Transport conformance: the same call scenarios run against UDP and
// TCP through the one engine, so every outcome the call state machine
// classifies is pinned once per transport from the same table instead of
// in per-transport test copies.

// fakePeer is the scripted server end of a conformance connection: for
// each request it receives it delivers replies(xid) in order, then — if
// die is set — breaks the link.
type fakePeer struct {
	replies  func(xid uint32) [][]byte // nil stays silent
	die      bool
	requests atomic.Int32
	seen     chan struct{} // signalled (without blocking) per request
}

func (p *fakePeer) request(msg []byte) [][]byte {
	p.requests.Add(1)
	select {
	case p.seen <- struct{}{}:
	default:
	}
	xid, ok := rpcmsg.PeekXID(msg)
	if !ok || p.replies == nil {
		return nil
	}
	return p.replies(xid)
}

// conformer is what both transports offer the conformance table.
type conformer interface {
	CtxCaller
	Snapshot() Snapshot
}

// loneConformer is a stream client whose calls are made the way a lone
// caller makes them — a context that cannot be cancelled, the read side
// free — so the table's outcomes are pinned for a call that reads its
// own reply as well as for one that waits on its slot. reads tells which
// of the two a call did.
type loneConformer struct {
	*TCP
	reads *readTap
}

func (c loneConformer) CallCtx(_ context.Context, proc uint32, args, reply Marshal) error {
	return c.TCP.Call(proc, args, reply)
}

// peerPacketConn is the datagram rendering of a fakePeer.
type peerPacketConn struct {
	peer   *fakePeer
	inbox  chan []byte
	closed chan struct{}
	dead   bool // only the (single) calling goroutine touches it
}

func (c *peerPacketConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	if c.dead {
		return 0, errors.New("socket died")
	}
	for _, r := range c.peer.request(p) {
		c.inbox <- r
	}
	if c.peer.die {
		c.dead = true
		close(c.inbox)
	}
	return len(p), nil
}

func (c *peerPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	select {
	case r, ok := <-c.inbox:
		if !ok {
			return 0, nil, errors.New("socket died")
		}
		return copy(p, r), fakeAddr{}, nil
	case <-c.closed:
		return 0, nil, net.ErrClosed
	}
}

func (c *peerPacketConn) Close() error                     { close(c.closed); return nil }
func (c *peerPacketConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (c *peerPacketConn) SetDeadline(time.Time) error      { return nil }
func (c *peerPacketConn) SetReadDeadline(time.Time) error  { return nil }
func (c *peerPacketConn) SetWriteDeadline(time.Time) error { return nil }

func dialPeerUDP(t *testing.T, p *fakePeer, cfg Config) conformer {
	// Retransmission stays out of the scenarios: every request the peer
	// counts is a first send.
	cfg.Retransmit = time.Hour
	c := NewUDP(&peerPacketConn{peer: p, inbox: make(chan []byte, 4), closed: make(chan struct{})}, fakeAddr{}, cfg)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// dialPeerTCP serves the fakePeer over one end of a pipe, as
// record-marked messages.
func dialPeerTCP(t *testing.T, p *fakePeer, cfg Config) conformer {
	return servePeerTCP(t, p, cfg, func(c net.Conn) net.Conn { return c })
}

// dialPeerTCPLone is dialPeerTCP for a caller that reads its own reply.
func dialPeerTCPLone(t *testing.T, p *fakePeer, cfg Config) conformer {
	tap := &readTap{}
	return loneConformer{servePeerTCP(t, p, cfg, tap.wrap), tap}
}

// servePeerTCP serves the fakePeer to a client whose idle timer runs on
// a clock that stands still: the pump reads the link only for a call
// that waits on its slot, never for want of a reader.
func servePeerTCP(t *testing.T, p *fakePeer, cfg Config, wrap func(net.Conn) net.Conn) *TCP {
	p1, p2 := net.Pipe()
	go func() {
		defer p2.Close()
		rrec, wrec := xdr.NewRecStream(p2, 0), xdr.NewRecStream(p2, 0)
		for {
			rec, err := rrec.ReadRecord(nil)
			if err != nil {
				return
			}
			for _, r := range p.request(rec) {
				if wrec.WriteRecord(append(make([]byte, xdr.RecordMarkLen), r...)) != nil {
					return
				}
			}
			if p.die {
				return
			}
		}
	}()
	c := newTCP(wrap(p1), cfg, clock.NewFake())
	t.Cleanup(func() { _ = c.Close() })
	return c
}

var conformanceTransports = []struct {
	name string
	dial func(*testing.T, *fakePeer, Config) conformer
}{{"udp", dialPeerUDP}, {"tcp", dialPeerTCP}, {"tcp-lone", dialPeerTCPLone}}

func errorReplyBytes(t *testing.T, xid uint32, stat rpcmsg.AcceptStat) []byte {
	t.Helper()
	bs := xdr.NewBufEncode(nil)
	rh := rpcmsg.ErrorReply(xid, stat)
	if err := rh.Marshal(xdr.NewEncoder(bs)); err != nil {
		t.Fatal(err)
	}
	return bs.Buffer()
}

func TestTransportConformance(t *testing.T) {
	const result = 4321
	good := func(xid uint32) [][]byte { return [][]byte{successReplyBytes(t, xid, result)} }
	wantResult := func(t *testing.T, _ string, got uint32, err error) {
		if err != nil || got != result {
			t.Fatalf("got %d, %v; want %d", got, err, result)
		}
	}
	wantErr := func(target error) func(*testing.T, string, uint32, error) {
		return func(t *testing.T, _ string, _ uint32, err error) {
			if !errors.Is(err, target) {
				t.Fatalf("err = %v, want %v", err, target)
			}
		}
	}
	scenarios := []struct {
		name    string
		iters   int // > 1 where the outcome rides on select's random choice
		replies func(xid uint32) [][]byte
		die     bool
		budget  time.Duration // ctx deadline; 0 for none
		timeout time.Duration // Config.Timeout; 0 for 10s
		needCtx bool          // the scenario is its context: not for a lone caller
		// during runs once the peer has the request, while the call waits.
		during func(c conformer, cancel context.CancelFunc)
		check  func(t *testing.T, transport string, got uint32, err error)
	}{
		{name: "success", replies: good, check: wantResult},
		{name: "rpc error reply",
			replies: func(xid uint32) [][]byte { return [][]byte{errorReplyBytes(t, xid, rpcmsg.ProcUnavail)} },
			check: func(t *testing.T, _ string, _ uint32, err error) {
				var re *RPCError
				if !errors.As(err, &re) || re.AcceptStat != rpcmsg.ProcUnavail {
					t.Fatalf("err = %v, want PROC_UNAVAIL", err)
				}
			}},
		// The seam's one behavioural fork: a datagram call ignores an
		// undecodable reply and takes the good one behind it; on a stream
		// it is fatal.
		{name: "ill-formed reply",
			replies: func(xid uint32) [][]byte {
				bad := []byte{byte(xid >> 24), byte(xid >> 16), byte(xid >> 8), byte(xid), 0xFF, 0xFF, 0xFF, 0xFF}
				return append([][]byte{bad}, good(xid)...)
			},
			check: func(t *testing.T, transport string, got uint32, err error) {
				if transport == "udp" {
					wantResult(t, transport, got, err)
				} else if !errors.Is(err, errIllFormed) || err.Error() != "client: read reply: ill-formed reply header" {
					t.Fatalf("err = %v, want the fatal ill-formed reply", err)
				}
			}},
		{name: "ctx cancel", needCtx: true,
			during: func(_ conformer, cancel context.CancelFunc) { cancel() },
			check:  wantErr(context.Canceled)},
		// The call's deadline is the context's own, so the engine's timer
		// and the context's are due in the same instant; whichever fires
		// first, the error is the context's. The 3s bound below is what
		// shows the earlier deadline, not Timeout, ended it.
		{name: "ctx deadline before Timeout", budget: 50 * time.Millisecond, needCtx: true,
			check: wantErr(context.DeadlineExceeded)},
		// With no context to end it the call ends at the client's Timeout:
		// on its timer when it waits on its slot, on the connection's read
		// deadline when it reads for itself.
		{name: "Timeout expiry", timeout: 50 * time.Millisecond, check: wantErr(ErrTimeout)},
		{name: "Close mid-call",
			during: func(c conformer, _ context.CancelFunc) { _ = c.Close() },
			check:  wantErr(ErrClosed)},
		{name: "link failure", die: true,
			check: func(t *testing.T, _ string, _ uint32, err error) {
				if err == nil || errors.Is(err, ErrTimeout) || errors.Is(err, ErrClosed) {
					t.Fatalf("err = %v, want the link's own failure", err)
				}
			}},
		// The reader delivers a valid reply and in the same instant the
		// link dies. The await select then has two ready arms; whichever
		// fires, the call must return the reply (drainReply), not the
		// transport error.
		{name: "reply races link failure", iters: 25, replies: good, die: true, check: wantResult},
	}
	for _, tr := range conformanceTransports {
		for _, sc := range scenarios {
			if sc.needCtx && tr.name == "tcp-lone" {
				continue
			}
			t.Run(tr.name+"/"+sc.name, func(t *testing.T) {
				// Registered first, so it runs after the clean-ups that
				// close the clients: readers, pumps and pooled timers
				// leave nothing behind, whatever way the call ended.
				t.Cleanup(testutil.NoLeak(t))
				for i := 0; i < max(sc.iters, 1); i++ {
					p := &fakePeer{replies: sc.replies, die: sc.die, seen: make(chan struct{}, 1)}
					timeout := 10 * time.Second
					if sc.timeout > 0 {
						timeout = sc.timeout
					}
					c := tr.dial(t, p, Config{Prog: 1, Vers: 1, Timeout: timeout})
					ctx, cancel := context.WithCancel(context.Background())
					if sc.budget > 0 {
						ctx, cancel = context.WithTimeout(ctx, sc.budget)
					}
					if sc.during != nil {
						go func() {
							<-p.seen
							sc.during(c, cancel)
						}()
					}
					var got uint32
					start := time.Now()
					err := c.CallCtx(ctx, 1, Void, func(x *xdr.XDR) error { return x.Uint32(&got) })
					cancel()
					if elapsed := time.Since(start); elapsed > 3*time.Second {
						t.Fatalf("call took %v against a 10s Timeout", elapsed)
					}
					sc.check(t, tr.name, got, err)
					if n := p.requests.Load(); n != 1 {
						t.Fatalf("peer saw %d requests, want 1", n)
					}
					if st := c.Snapshot(); st.InFlight != 0 || st.QueuedRecords != 0 {
						t.Fatalf("%d calls still in flight, %d records still queued", st.InFlight, st.QueuedRecords)
					}
					// A pipe with either end closed refuses a read deadline,
					// which sends the call to wait on its slot after all: where
					// the peer dies or the client is closed under the call,
					// which way the call went is the race's.
					if lc, ok := c.(loneConformer); ok && !sc.die && sc.during == nil && lc.reads.own.Load() == 0 {
						t.Fatal("the lone call did not read its own reply")
					}
				}
			})
		}
	}
}
