package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

var echoKey = procKey{testProg, testVers, procEcho}

// store runs one call through the table from claim to reply.
func store(t *testing.T, c *callTable, k cacheKey, p procKey, reply []byte) {
	t.Helper()
	if _, st := c.begin(k, p, nil); st != callClaimed {
		t.Fatalf("%v: begin = %d, want claimed", k.xid, st)
	}
	c.finish(k, reply)
}

// TestCallTableFIFO pins FIFO eviction across a ring-buffer wrap: with
// more replies stored than the capacity, exactly the newest survive,
// whichever peers they belong to.
func TestCallTableFIFO(t *testing.T) {
	c := newCallTable(3)
	peers := []peerKey{makePeerKey(netsim.Addr("a")), makePeerKey(netsim.Addr("b"))}
	const puts = 10
	for xid := 0; xid < puts; xid++ {
		store(t, c, cacheKey{peers[xid%2], uint32(xid)}, echoKey, []byte{byte(xid)})
	}
	for xid := 0; xid < puts; xid++ {
		k := cacheKey{peers[xid%2], uint32(xid)}
		b, st := c.begin(k, echoKey, nil)
		if wantLive := xid >= puts-3; (st == callCached) != wantLive {
			t.Fatalf("xid=%d state %d, want cached=%v", xid, st, wantLive)
		} else if wantLive && b[0] != byte(xid) {
			t.Fatalf("xid=%d value %d", xid, b[0])
		}
	}
}

// TestReplyCacheEvictionAllocFree pins steady-state eviction at zero
// allocations: the ring buffer neither slices off its head (an order
// queue would retain dead keys and re-copy itself every cycle) nor
// copies replies into fresh buffers (evicted entries donate theirs).
func TestReplyCacheEvictionAllocFree(t *testing.T) {
	c := newCallTable(8)
	peer := makePeerKey(netsim.Addr("peer"))
	reply := make([]byte, 64)
	xid := uint32(0)
	for ; xid < 8; xid++ {
		store(t, c, cacheKey{peer, xid}, echoKey, reply) // fill to capacity
	}
	allocs := testing.AllocsPerRun(200, func() {
		store(t, c, cacheKey{peer, xid}, echoKey, reply) // every finish evicts the oldest
		xid++
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per evicting call, want 0", allocs)
	}
}

// TestReplyCacheGetCopiesOut pins the reply-aliasing rule: begin must
// copy a cached reply out under the table lock, because finish recycles
// an evicted entry's buffer into the entry replacing it and rewrites a
// taken-over entry's buffer in place. Returning the stored slice would
// let a reply be rewritten mid-WriteTo; against that, this test - readers
// verifying a reply's bytes while a writer churns takeovers and
// evictions through the same table - observes torn replies and fails
// under the race detector.
func TestReplyCacheGetCopiesOut(t *testing.T) {
	c := newCallTable(2)
	peer := makePeerKey(netsim.Addr("peer"))
	procs := []procKey{echoKey, {testProg, testVers, procFail}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		reply := make([]byte, 1024)
		for seq := 0; seq < 5000; seq++ {
			for i := range reply {
				reply[i] = byte(seq)
			}
			// First half: two keys over capacity two, each visit to a key
			// the other procedure's call, so every finish rewrites an
			// entry's buffer in place. Second half: four keys over capacity
			// two, so every finish evicts and recycles a buffer.
			mod := 2
			if seq >= 2500 {
				mod = 4
			}
			k := cacheKey{peer, uint32(seq % mod)}
			if _, st := c.begin(k, procs[seq/mod%2], nil); st == callClaimed {
				c.finish(k, reply)
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			own := bytes.Repeat([]byte{0xEE}, 1024)
			var scratch []byte
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				for xid := uint32(0); xid < 4; xid++ {
					k := cacheKey{peer, xid}
					b, st := c.begin(k, procs[(n+int(xid))%2], scratch[:0])
					scratch = b
					if st == callClaimed {
						c.finish(k, own) // a reader's own call: one more uniform reply
						continue
					}
					// Every stored reply was written with one uniform fill
					// byte; a mixed-fill read is a torn reply.
					for i := 1; i < len(b); i++ {
						if b[i] != b[0] {
							t.Errorf("torn reply for xid %d: byte %d is %d, byte 0 is %d", xid, i, b[i], b[0])
							return
						}
					}
				}
			}
		}()
	}
	readers.Wait()
}

// TestCallTableClaims pins the per-(peer, xid) claim: a duplicate of an
// executing call is busy whatever its procedure, other xids and peers
// are independent, and a finished call is remembered — or, at capacity
// 0, forgotten, so it can be claimed again.
func TestCallTableClaims(t *testing.T) {
	for _, capacity := range []int{0, 4} {
		c := newCallTable(capacity)
		for i := 0; i < 32; i++ {
			peer := makePeerKey(netsim.Addr(fmt.Sprintf("peer-%d", i)))
			k7, k8 := cacheKey{peer, 7}, cacheKey{peer, 8}
			expect := func(k cacheKey, want callState) {
				t.Helper()
				if _, st := c.begin(k, echoKey, nil); st != want {
					t.Fatalf("cap=%d peer %d xid %d: begin = %d, want %d", capacity, i, k.xid, st, want)
				}
			}
			expect(k7, callClaimed)
			expect(k7, callBusy)
			if _, st := c.begin(k7, procKey{testProg, testVers, procFail}, nil); st != callBusy {
				t.Fatalf("cap=%d peer %d: another proc under an executing xid = %d, want busy", capacity, i, st)
			}
			expect(k8, callClaimed)
			c.finish(k7, []byte{7})
			if capacity == 0 {
				expect(k7, callClaimed)
				c.finish(k7, nil)
			} else {
				expect(k7, callCached)
			}
			c.finish(k8, nil)
		}
		if capacity == 0 && len(c.m) != 0 {
			t.Fatalf("cap=0: %d entries left after every call finished", len(c.m))
		}
	}
}

// TestCallTableTakeoverEvicted walks an entry taken over by another
// call under its xid through an eviction while it executes: the entry
// keeps refusing duplicates, and takes a fresh ring slot when it
// finishes.
func TestCallTableTakeoverEvicted(t *testing.T) {
	c := newCallTable(1)
	a := cacheKey{makePeerKey(netsim.Addr("a")), 1}
	b := cacheKey{makePeerKey(netsim.Addr("b")), 9}
	failCall := procKey{testProg, testVers, procFail}
	store(t, c, a, echoKey, []byte{1})
	if _, st := c.begin(a, failCall, nil); st != callClaimed {
		t.Fatalf("another proc under a done xid: begin = %d, want claimed", st)
	}
	store(t, c, b, echoKey, []byte{9}) // evicts a, still executing
	if _, st := c.begin(a, failCall, nil); st != callBusy {
		t.Fatalf("evicted executing entry: begin = %d, want busy", st)
	}
	c.finish(a, []byte{2}) // evicts b
	if r, st := c.begin(a, failCall, nil); st != callCached || r[0] != 2 {
		t.Fatalf("finished takeover: begin = %d %v, want cached [2]", st, r)
	}
	if _, st := c.begin(b, echoKey, nil); st != callClaimed {
		t.Fatalf("evicted entry: begin = %d, want claimed", st)
	}
	c.finish(b, nil)
	if c.n != 1 || len(c.m) != 1 {
		t.Fatalf("ring holds %d, map %d, want 1 each", c.n, len(c.m))
	}
}

// TestCallTableStress hammers one table from many goroutines — claims,
// takeovers, hits and evictions on colliding keys — so the race detector
// sees every lock interleaving the datagram path can produce, and checks
// that no claim is granted twice at once.
func TestCallTableStress(t *testing.T) {
	c := newCallTable(32)
	peers := make([]peerKey, 8)
	for i := range peers {
		peers[i] = makePeerKey(netsim.Addr(fmt.Sprintf("stress-%d", i)))
	}
	var held sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			reply := make([]byte, 32)
			var scratch []byte
			for i := 0; i < 3000; i++ {
				k := cacheKey{peers[rng.Intn(len(peers))], uint32(rng.Intn(64))} // small space forces collisions
				p := procKey{testProg, testVers, uint32(rng.Intn(2))}
				var st callState
				if scratch, st = c.begin(k, p, scratch[:0]); st != callClaimed {
					continue
				}
				if _, dup := held.LoadOrStore(k, true); dup {
					t.Errorf("%v claimed twice at once", k.xid)
					return
				}
				held.Delete(k)
				c.finish(k, reply)
			}
		}(int64(g))
	}
	wg.Wait()
}

// udpPeer is a raw datagram client of a ServeUDP loop over netsim.
type udpPeer struct {
	t  *testing.T
	ep *netsim.Endpoint
}

// send writes req to the server.
func (p udpPeer) send(req []byte) {
	p.t.Helper()
	if _, err := p.ep.WriteTo(req, netsim.Addr("server")); err != nil {
		p.t.Fatal(err)
	}
}

// reply waits up to d for the next datagram; ok is false when none came.
func (p udpPeer) reply(d time.Duration) (rh rpcmsg.ReplyHeader, ok bool) {
	p.t.Helper()
	buf := make([]byte, 9000)
	if err := p.ep.SetReadDeadline(time.Now().Add(d)); err != nil {
		p.t.Fatal(err)
	}
	n, _, err := p.ep.ReadFrom(buf)
	if err != nil {
		return rh, false
	}
	rh, _ = decodeReply(p.t, buf[:n])
	return rh, true
}

// call sends req and returns its reply header.
func (p udpPeer) call(req []byte) rpcmsg.ReplyHeader {
	p.t.Helper()
	p.send(req)
	rh, ok := p.reply(5 * time.Second)
	if !ok {
		p.t.Fatal("no reply")
	}
	return rh
}

// serveSim serves s over a fresh netsim network and returns a peer
// attached to it.
func serveSim(t *testing.T, s *Server) udpPeer {
	n := netsim.New()
	sep := n.Attach("server")
	go func() { _ = s.ServeUDP(sep) }()
	t.Cleanup(func() { s.Close() })
	return udpPeer{t, n.Attach("client")}
}

// countingServer is newTestServer on one worker, so datagrams are
// answered in the order they were sent, with its echo runs counted.
func countingServer(execs *atomic.Int32, opts ...Option) *Server {
	s := New(append([]Option{WithWorkers(1)}, opts...)...)
	s.Register(testProg, testVers, procEcho, func(dec *xdr.XDR) (Marshal, error) {
		execs.Add(1)
		return echoProc(dec)
	})
	s.Register(testProg, testVers, procFail, func(dec *xdr.XDR) (Marshal, error) {
		return nil, fmt.Errorf("handler exploded")
	})
	return s
}

func echoArgs(in ...int32) func(x *xdr.XDR) error {
	return func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) }
}

// TestServeUDPDuplicateWindowIsCacheSize pins the duplicate window at
// the whole WithCacheSize: one peer's retransmission of its first call,
// WithCacheSize calls later, is still answered from the cache rather
// than executed again. (Split into per-peer shards, the window was the
// capacity divided by the shard count.)
func TestServeUDPDuplicateWindowIsCacheSize(t *testing.T) {
	const size = 64
	var execs atomic.Int32
	s := countingServer(&execs, WithCacheSize(size))
	p := serveSim(t, s)
	first := buildCall(t, 1, testVers, procEcho, echoArgs(1))
	p.call(first)
	for xid := uint32(2); xid <= size; xid++ {
		p.call(buildCall(t, xid, testVers, procEcho, echoArgs(int32(xid))))
	}
	if rh := p.call(first); rh.XID != 1 || rh.AcceptStat != rpcmsg.Success {
		t.Fatalf("retransmission answered %+v", rh)
	}
	if n, hits := execs.Load(), s.CacheHits(); n != size || hits != 1 {
		t.Fatalf("%d executions and %d cache hits for %d calls and one retransmission, want %d and 1", n, hits, size, size)
	}
}

// TestServeUDPCacheIgnoresNonCalls: a datagram that is not a
// well-formed call is dropped unanswered even when its first word is the
// XID of a cached reply. The cache used to be consulted on that word
// alone, and answered the four bytes 00 00 00 07 with xid 7's reply.
func TestServeUDPCacheIgnoresNonCalls(t *testing.T) {
	var execs atomic.Int32
	s := countingServer(&execs)
	p := serveSim(t, s)
	if rh := p.call(buildCall(t, 7, testVers, procEcho, echoArgs(1, 2))); rh.XID != 7 {
		t.Fatalf("reply xid %d", rh.XID)
	}
	p.send([]byte{0, 0, 0, 7})
	// One worker answers in order: the next reply is the next call's.
	if rh := p.call(buildCall(t, 8, testVers, procEcho, echoArgs(3))); rh.XID != 8 {
		t.Fatalf("non-call answered: got a reply for xid %d, want 8's", rh.XID)
	}
	if rh, ok := p.reply(50 * time.Millisecond); ok {
		t.Fatalf("stray reply %+v", rh)
	}
	if hits := s.CacheHits(); hits != 0 {
		t.Fatalf("CacheHits = %d, want 0", hits)
	}
}

// TestServeUDPCacheMatchesProc: a cached reply answers only the call it
// was made for. A well-formed call reusing a cached XID for another
// procedure runs that procedure — here SYSTEM_ERR — instead of being
// handed the other call's SUCCESS, the prog/vers/proc match svc_udp's
// cache_get made.
func TestServeUDPCacheMatchesProc(t *testing.T) {
	var execs atomic.Int32
	s := countingServer(&execs)
	p := serveSim(t, s)
	echo := buildCall(t, 7, testVers, procEcho, echoArgs(1, 2))
	if rh := p.call(echo); rh.AcceptStat != rpcmsg.Success {
		t.Fatalf("echo answered %v", rh.AcceptStat)
	}
	if rh := p.call(buildCall(t, 7, testVers, procFail, nil)); rh.XID != 7 || rh.AcceptStat != rpcmsg.SystemErr {
		t.Fatalf("procFail under a cached xid answered %+v, want SYSTEM_ERR", rh)
	}
	// The failed call took the entry over: the echo runs again.
	if rh := p.call(echo); rh.AcceptStat != rpcmsg.Success {
		t.Fatalf("echo answered %v", rh.AcceptStat)
	}
	if n, hits := execs.Load(), s.CacheHits(); n != 2 || hits != 0 {
		t.Fatalf("echo executions %d, CacheHits %d, want 2 and 0", n, hits)
	}
}

// TestServeUDPCloseUnderLoad interleaves live datagram traffic through
// the call table with Server.Close: the shutdown must drain cleanly (no
// deadlock, no race) while many clients are mid-call.
func TestServeUDPCloseUnderLoad(t *testing.T) {
	n := netsim.New()
	s := New(WithWorkers(8))
	s.Register(testProg, testVers, procEcho, echoProc)
	sep := n.Attach("server")
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.ServeUDP(sep) }()

	const clients = 6
	callers := make([]client.Caller, clients)
	for i := range callers {
		ep := n.Attach(netsim.Addr(fmt.Sprintf("c%d", i)))
		callers[i] = client.NewUDP(ep, netsim.Addr("server"), client.Config{
			Prog: testProg, Vers: testVers,
			Timeout: 2 * time.Second, FirstXID: uint32(1 + i*1000),
		})
	}
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c client.Caller) {
			defer wg.Done()
			in := []int32{1, 2, 3}
			args := func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) }
			for {
				var out []int32
				res := func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) }
				if err := c.Call(procEcho, args, res); err != nil {
					return // server closed underneath us: expected
				}
			}
		}(c)
	}
	time.Sleep(30 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, c := range callers {
		_ = c.Close() // fail the in-flight calls fast
	}
	wg.Wait()
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUDP did not exit after Close")
	}
}
