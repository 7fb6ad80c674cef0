// Chaos suite: seeded fault schedules over the simulated network, real
// UDP, and real TCP, asserting the invariants the fault-tolerance layer
// exists to keep. Every test pins some combination of:
//
//   - exactly-once acknowledged effects: a call the client reports
//     successful executed exactly once on the server (duplicates and
//     retransmissions are absorbed by the in-flight claim and the
//     duplicate-reply cache);
//   - no leaks: cancelled and expired calls release their demux reply
//     slot and leave nothing in the batcher queue;
//   - convergence: after a partition heals or a connection is torn down
//     mid-call, the client recovers and later calls succeed.
//
// Two schedule families: the strict-accounting schedules inject loss,
// duplication, reordering, jitter, partitions, and connection faults —
// everything that at-most-once must absorb; the liveness schedule adds
// byte corruption, which ONC RPC cannot detect (no checksum below the
// transport), so there the assertion is progress, not accounting.
package integration

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/faultconn"
	"specrpc/internal/netsim"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

const procEffect = uint32(3)

// effectLog counts executions per effect ID — the server-side ground
// truth the exactly-once assertions check against.
type effectLog struct {
	mu    sync.Mutex
	execs map[int64]int
}

func (l *effectLog) bump(id int64) {
	l.mu.Lock()
	l.execs[id]++
	l.mu.Unlock()
}

func (l *effectLog) count(id int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.execs[id]
}

func (l *effectLog) maxCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	max := 0
	for _, c := range l.execs {
		if c > max {
			max = c
		}
	}
	return max
}

// newEffectServer registers procEffect: bump the per-ID execution
// counter, echo the ID back.
func newEffectServer(opts ...server.Option) (*server.Server, *effectLog) {
	log := &effectLog{execs: make(map[int64]int)}
	s := server.New(opts...)
	s.Register(prog, vers, procEffect, func(dec *xdr.XDR) (server.Marshal, error) {
		var id int64
		if err := dec.Hyper(&id); err != nil {
			return nil, errors.Join(server.ErrGarbageArgs, err)
		}
		log.bump(id)
		return func(enc *xdr.XDR) error { return enc.Hyper(&id) }, nil
	})
	return s, log
}

func effectArgs(id *int64) client.Marshal {
	return func(x *xdr.XDR) error { return x.Hyper(id) }
}

// chaosPolicy is the aggressive-but-budgetless retry policy the sim
// schedules run under: fast retransmits so tests finish quickly, no
// budget so the loss schedule can't starve the tail of a run.
func chaosPolicy() *client.RetryPolicy {
	return &client.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
		BudgetRate:  -1,
	}
}

// TestChaosSimLossDupReorder: strict accounting under the full datagram
// fault mix (loss + duplication + reordering + jitter, both directions,
// seeded). Every acknowledged call must have executed exactly once, the
// schedule must actually have injected faults, and the client must have
// retransmitted through them.
func TestChaosSimLossDupReorder(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New(netsim.WithSeed(42))
	n.SetLink("", "", netsim.LinkFaults{
		Loss: 0.15, Dup: 0.2, Reorder: 0.2, JitterMax: 2 * time.Millisecond,
	})
	s, log := newEffectServer(server.WithCacheSize(4096))
	ep := n.Attach("server")
	go func() { _ = s.ServeUDP(ep) }()
	defer s.Close()

	c := client.NewUDP(n.Attach("chaos"), netsim.Addr("server"), client.Config{
		Prog: prog, Vers: vers, FirstXID: 9000,
		Timeout: 2 * time.Second,
		Retry:   chaosPolicy(),
	})
	defer c.Close()

	const calls = 200
	acked := 0
	for i := 0; i < calls; i++ {
		id := int64(i)
		var out int64
		if err := c.CallCtx(context.Background(), procEffect, effectArgs(&id), effectArgs(&out)); err != nil {
			continue
		}
		acked++
		if out != id {
			t.Fatalf("call %d: echoed id %d", i, out)
		}
		if got := log.count(id); got != 1 {
			t.Fatalf("acknowledged call %d executed %d times, want exactly 1", i, got)
		}
	}
	if acked < calls*9/10 {
		t.Fatalf("only %d/%d calls acknowledged under 15%% loss with 8 attempts", acked, calls)
	}
	if got := log.maxCount(); got > 1 {
		t.Fatalf("some call executed %d times", got)
	}
	fs := n.FaultStats()
	if fs.Dropped == 0 || fs.Duplicated == 0 || fs.Reordered == 0 {
		t.Fatalf("fault schedule did not fire: %+v", fs)
	}
	if rs := c.Snapshot().RetryStats; rs.Retransmits == 0 {
		t.Fatalf("no retransmissions under 15%% loss: %+v", rs)
	}
	if s.Snapshot().CacheHits == 0 {
		t.Fatal("no reply-cache hits: duplicates/retransmits were never absorbed from cache")
	}
	if got := c.Snapshot().InFlight; got != 0 {
		t.Fatalf("%d reply slots leaked", got)
	}
}

// TestChaosAtMostOnceDuplicateAllReorder: the satellite schedule —
// every packet duplicated, replies lossy and reordered — with the
// server-side execution counter proving zero double executions and the
// reply cache actually serving the duplicates.
func TestChaosAtMostOnceDuplicateAllReorder(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New(netsim.WithSeed(7), netsim.WithFaults(netsim.DuplicateAll()))
	// Reply direction: lossy and reordered. Dropped replies force
	// retransmissions of already-executed calls, which must be answered
	// from the duplicate-reply cache, never re-executed.
	n.SetLink("server", "", netsim.LinkFaults{
		Loss: 0.3, Reorder: 0.3, JitterMax: time.Millisecond,
	})
	s, log := newEffectServer(server.WithCacheSize(1024))
	ep := n.Attach("server")
	go func() { _ = s.ServeUDP(ep) }()
	defer s.Close()

	c := client.NewUDP(n.Attach("dup"), netsim.Addr("server"), client.Config{
		Prog: prog, Vers: vers, FirstXID: 5000,
		Timeout: 2 * time.Second,
		Retry:   chaosPolicy(),
	})
	defer c.Close()

	const calls = 100
	for i := 0; i < calls; i++ {
		id := int64(1000 + i)
		var out int64
		if err := c.CallCtx(context.Background(), procEffect, effectArgs(&id), effectArgs(&out)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := log.count(id); got != 1 {
			t.Fatalf("call %d executed %d times, want exactly 1", i, got)
		}
	}
	if got := log.maxCount(); got != 1 {
		t.Fatalf("max executions per call = %d, want 1", got)
	}
	if s.Snapshot().CacheHits == 0 {
		t.Fatal("no reply-cache hits under duplicated requests and 30%% reply loss")
	}
}

// TestChaosPartitionHeal: a directional partition black-holes the
// request direction mid-call; after it heals, the in-flight call's
// retransmission schedule converges without re-execution.
func TestChaosPartitionHeal(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New(netsim.WithSeed(3))
	s, log := newEffectServer(server.WithCacheSize(256))
	ep := n.Attach("server")
	go func() { _ = s.ServeUDP(ep) }()
	defer s.Close()

	// A persistent schedule: the partition outlives a short attempt
	// budget, so this client keeps retransmitting until the heal.
	c := client.NewUDP(n.Attach("part"), netsim.Addr("server"), client.Config{
		Prog: prog, Vers: vers, FirstXID: 100,
		Timeout: 5 * time.Second,
		Retry: &client.RetryPolicy{
			MaxAttempts: 1000,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
			BudgetRate:  -1,
		},
	})
	defer c.Close()

	// Phase 1: cut the request direction, launch a call into the hole,
	// heal while it is still retrying.
	n.Partition("part", "server")
	done := make(chan error, 1)
	id := int64(777)
	var out int64
	go func() {
		done <- c.CallCtx(context.Background(), procEffect, effectArgs(&id), effectArgs(&out))
	}()
	time.Sleep(60 * time.Millisecond)
	n.Heal("part", "server")
	if err := <-done; err != nil {
		t.Fatalf("call across heal: %v", err)
	}
	if out != id || log.count(id) != 1 {
		t.Fatalf("converged call: out=%d execs=%d", out, log.count(id))
	}
	if fs := n.FaultStats(); fs.Partitioned == 0 {
		t.Fatalf("partition never dropped a packet: %+v", fs)
	}

	// Phase 2: cut the reply direction instead — the call executes on
	// the first attempt, the reply is black-holed, and after heal the
	// retransmission must be served from the reply cache, not re-run.
	n.Partition("server", "part")
	id2 := int64(778)
	go func() {
		done <- c.CallCtx(context.Background(), procEffect, effectArgs(&id2), effectArgs(&out))
	}()
	time.Sleep(60 * time.Millisecond)
	n.Heal("server", "part")
	if err := <-done; err != nil {
		t.Fatalf("call across reply-side heal: %v", err)
	}
	if log.count(id2) != 1 {
		t.Fatalf("reply-partitioned call executed %d times, want 1", log.count(id2))
	}
}

// TestChaosCorruptionLiveness: the robustness schedule — corrupted
// bytes on top of loss. ONC RPC carries no checksum, so corruption can
// surface as ill-formed replies, misrouted XIDs, or garbage arguments;
// the assertion here is liveness (the client keeps making progress and
// cleans up), not per-ID accounting.
func TestChaosCorruptionLiveness(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New(netsim.WithSeed(13))
	n.SetLink("", "", netsim.LinkFaults{Loss: 0.1, Corrupt: 0.2, JitterMax: time.Millisecond})
	s, _ := newEffectServer(server.WithCacheSize(256))
	ep := n.Attach("server")
	go func() { _ = s.ServeUDP(ep) }()
	defer s.Close()

	c := client.NewUDP(n.Attach("corrupt"), netsim.Addr("server"), client.Config{
		Prog: prog, Vers: vers, FirstXID: 300,
		Timeout: 2 * time.Second,
		Retry:   chaosPolicy(),
	})
	defer c.Close()

	const calls = 100
	ok := 0
	for i := 0; i < calls; i++ {
		id := int64(40000 + i)
		var out int64
		if err := c.CallCtx(context.Background(), procEffect, effectArgs(&id), effectArgs(&out)); err == nil {
			ok++
		}
	}
	if ok < calls/2 {
		t.Fatalf("only %d/%d calls made progress under corruption", ok, calls)
	}
	if fs := n.FaultStats(); fs.Corrupted == 0 {
		t.Fatalf("corruption never fired: %+v", fs)
	}
	if got := c.Snapshot().InFlight; got != 0 {
		t.Fatalf("%d reply slots leaked", got)
	}
}

// TestChaosCancelNoLeaksUDP: calls cancelled while black-holed must
// return promptly with the context error and leave no demux slots
// behind.
func TestChaosCancelNoLeaksUDP(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New()
	n.Partition("", "server") // permanent black hole
	s, _ := newEffectServer()
	ep := n.Attach("server")
	go func() { _ = s.ServeUDP(ep) }()
	defer s.Close()

	c := client.NewUDP(n.Attach("cancel"), netsim.Addr("server"), client.Config{
		Prog: prog, Vers: vers, FirstXID: 1,
		Timeout: 30 * time.Second, // the context, not the timeout, ends these calls
		Retry:   chaosPolicy(),
	})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	const inflight = 8
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			id := int64(k)
			errs[k] = c.CallCtx(ctx, procEffect, effectArgs(&id), effectArgs(&id))
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	if got := c.Snapshot().InFlight; got != inflight {
		t.Fatalf("in-flight = %d before cancel, want %d", got, inflight)
	}
	start := time.Now()
	cancel()
	wg.Wait()
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancelled calls took %v to return", waited)
	}
	for k, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: err = %v, want context.Canceled", k, err)
		}
	}
	if got := c.Snapshot().InFlight; got != 0 {
		t.Fatalf("%d reply slots leaked after cancel", got)
	}
}

// TestChaosCancelNoLeaksTCP: same invariant over a real TCP connection
// to a server that never replies — cancelled calls release their reply
// slots and strand nothing in the batcher queue.
func TestChaosCancelNoLeaksTCP(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer ln.Close()
	go func() { // accept and read forever, reply never
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()

	c, err := client.DialTCP("tcp", ln.Addr().String(), client.Config{
		Prog: prog, Vers: vers,
		Timeout: 30 * time.Second,
		Retry:   chaosPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	const inflight = 8
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			id := int64(k)
			errs[k] = c.CallCtx(ctx, procEffect, effectArgs(&id), effectArgs(&id))
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	if got := c.Snapshot().InFlight; got != inflight {
		t.Fatalf("in-flight = %d before cancel, want %d", got, inflight)
	}
	cancel()
	wg.Wait()
	for k, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: err = %v, want context.Canceled", k, err)
		}
	}
	if got := c.Snapshot().InFlight; got != 0 {
		t.Fatalf("%d reply slots leaked after cancel", got)
	}
	if got := c.Snapshot().QueuedRecords; got != 0 {
		t.Fatalf("%d records stranded in the batcher queue", got)
	}
}

// TestChaosUDPLive: the strict-accounting schedule over real loopback
// UDP, with loss and duplication injected at the client socket by
// faultconn. Proves the retry machinery against actual kernel sockets.
func TestChaosUDPLive(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s, log := newEffectServer(server.WithCacheSize(1024))
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	go func() { _ = s.ServeUDP(pc) }()
	defer s.Close()

	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stats := &faultconn.Stats{}
	c := client.NewUDP(faultconn.WrapPacket(cconn, faultconn.Plan{
		Seed: 5, DropRate: 0.2, DupRate: 0.2,
	}, stats), pc.LocalAddr(), client.Config{
		Prog: prog, Vers: vers,
		Timeout: 2 * time.Second,
		Retry:   chaosPolicy(),
	})
	defer c.Close()

	const calls = 150
	acked := 0
	for i := 0; i < calls; i++ {
		id := int64(70000 + i)
		var out int64
		if err := c.CallCtx(context.Background(), procEffect, effectArgs(&id), effectArgs(&out)); err != nil {
			continue
		}
		acked++
		if out != id || log.count(id) != 1 {
			t.Fatalf("call %d: out=%d execs=%d", i, out, log.count(id))
		}
	}
	if acked < calls*9/10 {
		t.Fatalf("only %d/%d calls acknowledged", acked, calls)
	}
	if got := log.maxCount(); got > 1 {
		t.Fatalf("some call executed %d times", got)
	}
	if stats.Dropped.Load() == 0 || stats.Duplicated.Load() == 0 {
		t.Fatalf("socket faults never fired: dropped=%d dup=%d",
			stats.Dropped.Load(), stats.Duplicated.Load())
	}
}

// TestChaosTCPReconnect: real TCP through a fault-injecting listener
// that resets connections mid-stream and splits reply records across
// kernel writes. The client must reconnect transparently, acknowledged
// calls must have executed exactly once, and ambiguous failures must
// surface as TransportError rather than being silently replayed.
func TestChaosTCPReconnect(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s, log := newEffectServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	stats := &faultconn.Stats{}
	fln := faultconn.WrapListener(ln, faultconn.Plan{
		Seed: 11, ResetRate: 0.05, SplitWrite: 0.25, ResetAfter: 3,
	}, stats)
	go func() { _ = s.ServeTCP(fln) }()
	defer s.Close()

	c, err := client.DialTCP("tcp", ln.Addr().String(), client.Config{
		Prog: prog, Vers: vers,
		Timeout: 2 * time.Second,
		Retry: &client.RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
			BudgetRate:  -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const calls = 300
	acked, ambiguous := 0, 0
	for i := 0; i < calls; i++ {
		id := int64(90000 + i)
		var out int64
		err := c.CallCtx(context.Background(), procEffect, effectArgs(&id), effectArgs(&out))
		if err != nil {
			var te *client.TransportError
			if errors.As(err, &te) {
				if !te.MaybeSent {
					t.Fatalf("call %d: not-sent failure leaked through the retry loop: %v", i, err)
				}
				ambiguous++
				continue
			}
			t.Fatalf("call %d: %v", i, err)
		}
		acked++
		if out != id {
			t.Fatalf("call %d: echoed %d", i, out)
		}
		if got := log.count(id); got != 1 {
			t.Fatalf("acknowledged call %d executed %d times, want exactly 1", i, got)
		}
	}
	if acked < calls/2 {
		t.Fatalf("only %d/%d calls acknowledged (%d ambiguous)", acked, calls, ambiguous)
	}
	rc := c.Snapshot()
	if rc.Reconnects == 0 {
		t.Fatalf("no reconnects despite %d injected resets", stats.Resets.Load())
	}
	if stats.Resets.Load() == 0 || stats.SplitWrites.Load() == 0 {
		t.Fatalf("connection faults never fired: %d resets, %d splits",
			stats.Resets.Load(), stats.SplitWrites.Load())
	}
	// The client must have converged: a clean closing call on the live
	// (possibly replacement) connection.
	id := int64(99999)
	var out int64
	if err := c.CallCtx(context.Background(), procEffect, effectArgs(&id), effectArgs(&out)); err != nil {
		t.Fatalf("post-chaos call: %v", err)
	}
	if out != id || log.count(id) != 1 {
		t.Fatalf("post-chaos call: out=%d execs=%d", out, log.count(id))
	}
}
