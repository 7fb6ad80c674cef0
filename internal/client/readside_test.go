package client

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/clock"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// Who owns a stream link's read side: a lone call reads its own reply,
// the pump reads for everyone else and for nobody, and the side changes
// hands without a reply being lost, read twice, or left in the socket.

// readTap tells the reads a client's connection sees apart by who made
// them: a call reading its own reply, or the pump.
type readTap struct {
	own, pump atomic.Int64
}

type tappedConn struct {
	net.Conn
	tap *readTap
}

func (t *readTap) wrap(c net.Conn) net.Conn { return tappedConn{c, t} }

func (c tappedConn) Read(p []byte) (int, error) {
	var stack [2048]byte
	if bytes.Contains(stack[:runtime.Stack(stack[:], false)], []byte(").readOwn(")) {
		c.tap.own.Add(1)
	} else {
		c.tap.pump.Add(1)
	}
	return c.Conn.Read(p)
}

// awaitLetGo waits until the pump has let go of l's read side and
// returned: a pump that has freed the side still looks at the
// registrations once more, and takes the side back for a call that
// registered meanwhile (letGo). Nothing else starts a pump while the
// idle timer's clock stands still.
func awaitLetGo(l *link) {
	buf := make([]byte, 1<<20)
	for l.owner.Load() != readFree || bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(").pump(")) {
		runtime.Gosched()
	}
}

// scriptedPeer is the far end of a pipe: it hands each request's XID to
// the test and writes what the test tells it to. The client's idle timer
// runs on clock, which stands still until the test advances it: nobody
// but a call reads the link until then.
type scriptedPeer struct {
	conn  net.Conn
	xids  chan uint32
	w     *xdr.RecStream
	clock *clock.Fake
}

func newScriptedPeer(t *testing.T, cfg Config, wrap func(net.Conn) net.Conn) (*TCP, *scriptedPeer) {
	t.Helper()
	p1, p2 := net.Pipe()
	p := &scriptedPeer{conn: p2, xids: make(chan uint32, 64), w: xdr.NewRecStream(p2, 0), clock: clock.NewFake()}
	go func() {
		r := xdr.NewRecStream(p2, 0)
		for {
			rec, err := r.ReadRecord(nil)
			if err != nil {
				close(p.xids)
				return
			}
			xid, _ := rpcmsg.PeekXID(rec)
			p.xids <- xid
		}
	}()
	if wrap != nil {
		p1 = wrap(p1)
	}
	c := newTCP(p1, cfg, p.clock)
	t.Cleanup(func() { _ = c.Close(); _ = p2.Close() })
	return c, p
}

func (p *scriptedPeer) nextXID(t *testing.T) uint32 {
	t.Helper()
	select {
	case xid, ok := <-p.xids:
		if !ok {
			t.Fatal("peer: connection ended")
		}
		return xid
	case <-time.After(5 * time.Second):
		t.Fatal("peer: no request")
		return 0
	}
}

// reply writes xid's framed success reply.
func (p *scriptedPeer) reply(t *testing.T, xid, result uint32) {
	t.Helper()
	if err := replyTo(p.w, xid, result); err != nil {
		t.Errorf("peer: reply: %v", err)
	}
}

func framedReply(t *testing.T, xid, result uint32) []byte {
	t.Helper()
	msg := successReplyBytes(t, xid, result)
	n := uint32(len(msg)) | 1<<31
	return append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, msg...)
}

// callUint32 calls procedure 1 under ctx. Under context.Background() that
// is Call: nothing but its deadline can end it, so it may read for itself.
func callUint32(ctx context.Context, c CtxCaller) (uint32, error) {
	var got uint32
	err := c.CallCtx(ctx, 1, Void, func(x *xdr.XDR) error { return x.Uint32(&got) })
	return got, err
}

// TestReaderTimesOutMidRecord: a call reading its own reply gives up at
// its deadline with half the record in. The half stays with the link;
// the next call to read there finishes the record, finds nobody waiting
// for it, and goes on to an intact reply of its own.
func TestReaderTimesOutMidRecord(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t)) // first, so that it runs after the peers' own clean-up
	tap := &readTap{}
	c, p := newScriptedPeer(t, Config{Prog: 1, Vers: 1, Timeout: 60 * time.Millisecond}, tap.wrap)

	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		a := p.nextXID(t)
		late := framedReply(t, a, 1)
		if _, err := p.conn.Write(late[:len(late)/2]); err != nil {
			t.Errorf("peer: first half: %v", err)
		}
		b := p.nextXID(t) // the first call has given up
		if _, err := p.conn.Write(late[len(late)/2:]); err != nil {
			t.Errorf("peer: second half: %v", err)
		}
		p.reply(t, b, 2)
	}()
	if _, err := callUint32(context.Background(), c); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first call: %v, want ErrTimeout", err)
	}
	if got, err := callUint32(context.Background(), c); err != nil || got != 2 {
		t.Fatalf("second call: %d, %v; want its own reply, 2", got, err)
	}
	<-wrote
	if tap.own.Load() == 0 {
		t.Fatal("no call read its own reply")
	}
}

// TestReaderDeliversOthersReply: while call A reads, call B — which has
// a context to watch and so waits on its slot — is answered first. A
// delivers B's reply and keeps reading. In the other order A finishes
// with B still waiting: the side goes to the pump, which delivers B's
// reply and, B being the last call registered, lets go in turn — the
// call after that reads for itself again.
func TestReaderDeliversOthersReply(t *testing.T) {
	for _, bFirst := range []bool{true, false} {
		t.Run(map[bool]string{true: "other first", false: "own first"}[bFirst], func(t *testing.T) {
			t.Cleanup(testutil.NoLeak(t))
			tap := &readTap{}
			c, p := newScriptedPeer(t, Config{Prog: 1, Vers: 1, Timeout: 5 * time.Second}, tap.wrap)
			type result struct {
				got uint32
				err error
			}
			aDone, bDone := make(chan result, 1), make(chan result, 1)
			go func() {
				got, err := callUint32(context.Background(), c)
				aDone <- result{got, err}
			}()
			a := p.nextXID(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				got, err := callUint32(ctx, c)
				bDone <- result{got, err}
			}()
			b := p.nextXID(t)

			order := []struct {
				xid, val uint32
				done     chan result
			}{{a, 100, aDone}, {b, 200, bDone}}
			if bFirst {
				order[0], order[1] = order[1], order[0]
			}
			for _, o := range order {
				p.reply(t, o.xid, o.val)
				select {
				case r := <-o.done:
					if r.err != nil || r.got != o.val {
						t.Fatalf("bFirst=%v: call got %d, %v; want %d", bFirst, r.got, r.err, o.val)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("bFirst=%v: reply %d never reached its call", bFirst, o.val)
				}
			}
			// With the idle timer standing still only A can have delivered
			// B's reply ahead of its own; behind it, only the pump A started.
			if !bFirst && tap.pump.Load() == 0 {
				t.Fatal("own first: B was answered, but not by the pump")
			}
			// Whoever read last lets go — the pump, perhaps only after B has
			// returned — and the next lone call reads for itself.
			awaitLetGo(c.current())
			own := tap.own.Load()
			replied := make(chan struct{})
			go func() { p.reply(t, p.nextXID(t), 300); close(replied) }()
			if got, err := callUint32(context.Background(), c); err != nil || got != 300 {
				t.Fatalf("bFirst=%v: next call got %d, %v", bFirst, got, err)
			}
			<-replied
			if tap.own.Load() == own {
				t.Fatalf("bFirst=%v: the next lone call did not read for itself", bFirst)
			}
		})
	}
}

// loopbackEcho serves procedure 1 (argument + 1) on loopback TCP, to any
// number of callers.
func loopbackEcho(t testing.TB) (addr string, stop func()) {
	t.Helper()
	s := server.New()
	s.Register(fusedProg, fusedVers, 1, func(dec *xdr.XDR) (server.Marshal, error) {
		var v uint32
		if err := dec.Uint32(&v); err != nil {
			return nil, server.ErrGarbageArgs
		}
		v++
		return func(x *xdr.XDR) error { return x.Uint32(&v) }, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	return ln.Addr().String(), func() { _ = s.Close() }
}

// TestLoneCallsStartNoGoroutine: a caller that waits for each reply
// before it sends the next call does all its own reading. The pump would
// read only if the caller stalled for idleWatch between two calls; on a
// clock that stands still it never does.
func TestLoneCallsStartNoGoroutine(t *testing.T) {
	defer testutil.NoLeak(t)()
	addr, stop := loopbackEcho(t)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &readTap{}
	c := newTCP(tap.wrap(conn), Config{Prog: fusedProg, Vers: fusedVers}, clock.NewFake())
	defer c.Close()

	const calls = 1000
	for i := uint32(0); i < calls; i++ {
		arg, got := i, uint32(0)
		err := c.Call(1, func(x *xdr.XDR) error { return x.Uint32(&arg) },
			func(x *xdr.XDR) error { return x.Uint32(&got) })
		if err != nil || got != i+1 {
			t.Fatalf("call %d: %d, %v", i, got, err)
		}
	}
	if own, pump := tap.own.Load(), tap.pump.Load(); own < calls*98/100 || pump > calls*2/100 {
		t.Fatalf("%d reads by the calls themselves, %d by the pump, of %d calls", own, pump, calls)
	}
}

// batchedClient is a client of loopbackEcho whose reads are tapped and
// whose idle timer runs on clk, which stands still until the test
// advances it.
func batchedClient(t *testing.T) (c *TCP, clk *clock.Fake, tap *readTap) {
	t.Helper()
	addr, stop := loopbackEcho(t)
	t.Cleanup(stop)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	clk, tap = clock.NewFake(), &readTap{}
	c = newTCP(tap.wrap(conn), Config{Prog: fusedProg, Vers: fusedVers}, clk)
	t.Cleanup(func() { _ = c.Close() })
	return c, clk, tap
}

// batchedOp is one op of a batching caller: seven CallBatched and a
// terminal Call, all of argument i, against a server that answers all
// eight.
func batchedOp(t *testing.T, c *TCP, i uint32) {
	t.Helper()
	arg, got := i, uint32(0)
	args := func(x *xdr.XDR) error { return x.Uint32(&arg) }
	for b := 0; b < 7; b++ {
		if err := c.CallBatched(1, args); err != nil {
			t.Fatalf("op %d: CallBatched: %v", i, err)
		}
	}
	if err := c.Call(1, args, func(x *xdr.XDR) error { return x.Uint32(&got) }); err != nil || got != i+1 {
		t.Fatalf("op %d: %d, %v", i, got, err)
	}
}

// TestBatchedOpsStartNoGoroutine: the same caller, batching. The
// terminal call of each op takes the read side, reads past the seven
// replies nobody asked for to its own, and lets go. No link is pinned to
// the pump for having carried a batched call.
func TestBatchedOpsStartNoGoroutine(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	c, _, tap := batchedClient(t)
	const ops = 1000
	for i := uint32(0); i < ops; i++ {
		batchedOp(t, c, i)
	}
	if c.current().pumped.Load() {
		t.Fatal("link pinned to the pump")
	}
	if own, pump := tap.own.Load(), tap.pump.Load(); own < ops*98/100 || pump > ops*2/100 {
		t.Fatalf("%d reads by the terminal calls themselves, %d by the pump, of %d ops", own, pump, ops)
	}
}

// TestBatchedOpsIdleWatchTakesSide: the same ops with the clock moved
// past idleWatch before every other one, as if the caller had thought
// that long. The idle timer puts the pump on the free read side, so that
// op's terminal call waits on its slot while the pump reads past the
// seven replies nobody asked for and delivers its reply; having
// delivered the reply of the only call registered, the pump lets go, and
// the next op's terminal call reads for itself again.
func TestBatchedOpsIdleWatchTakesSide(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	c, clk, tap := batchedClient(t)
	l := c.current()
	for i := uint32(0); i < 100; i++ {
		own, pump := tap.own.Load(), tap.pump.Load()
		idle := i%2 == 1
		if idle {
			clk.Advance(idleWatch)
			if owner := l.owner.Load(); owner != readPump {
				t.Fatalf("op %d: owner %d once idleWatch has passed, want the pump", i, owner)
			}
		}
		batchedOp(t, c, i)
		awaitLetGo(l)
		if ownRead, pumpRead := tap.own.Load() > own, tap.pump.Load() > pump; ownRead == idle || pumpRead != idle {
			t.Fatalf("op %d (idleWatch passed before it: %v): the terminal call read %v, the pump %v",
				i, idle, ownRead, pumpRead)
		}
	}
	if l.pumped.Load() {
		t.Fatal("link pinned to the pump")
	}
}

// TestBatchedTerminalCallWithContextWaitsOnPump: a terminal call that a
// context can end does not read for itself, batch or no batch; the pump
// it starts drops the batched calls' replies and delivers its own.
func TestBatchedTerminalCallWithContextWaitsOnPump(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	tap := &readTap{}
	c, p := newScriptedPeer(t, Config{Prog: 1, Vers: 1, Timeout: 5 * time.Second}, tap.wrap)
	const batched = 3
	for i := 0; i < batched; i++ {
		if err := c.CallBatched(1, Void); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		for i := uint32(0); i <= batched; i++ {
			p.reply(t, p.nextXID(t), 10+i) // the terminal call's is the last: 13
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if got, err := callUint32(ctx, c); err != nil || got != 10+batched {
		t.Fatalf("terminal call: %d, %v; want %d", got, err, 10+batched)
	}
	if own := tap.own.Load(); own != 0 || tap.pump.Load() == 0 {
		t.Fatalf("%d reads by the call, %d by the pump; want none and some", own, tap.pump.Load())
	}
}

// TestBatchingReaderDeliversOthersReply: the terminal call of a batch
// reads for itself while another caller, with a context to watch, waits
// on its slot. Behind the batched calls' replies comes the other
// caller's, then its own: it drops the first kind, delivers the second
// and returns with the third.
func TestBatchingReaderDeliversOthersReply(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	tap := &readTap{}
	c, p := newScriptedPeer(t, Config{Prog: 1, Vers: 1, Timeout: 5 * time.Second}, tap.wrap)
	const batched = 3
	for i := 0; i < batched; i++ {
		if err := c.CallBatched(1, Void); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		got uint32
		err error
	}
	aDone, bDone := make(chan result, 1), make(chan result, 1)
	go func() {
		got, err := callUint32(context.Background(), c)
		aDone <- result{got, err}
	}()
	var unasked [batched]uint32
	for i := range unasked {
		unasked[i] = p.nextXID(t)
	}
	a := p.nextXID(t)
	for l := c.current(); l.owner.Load() != readCaller; { // sent; about to read
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		got, err := callUint32(ctx, c)
		bDone <- result{got, err}
	}()
	b := p.nextXID(t)
	for _, xid := range unasked {
		p.reply(t, xid, 1)
	}
	p.reply(t, b, 200)
	// The pipe's write returns once it has been read, and with the idle
	// timer standing still and A not yet answered nobody but A can have
	// read it.
	if tap.pump.Load() != 0 || tap.own.Load() == 0 {
		t.Fatalf("%d reads by the pump, %d by the terminal call; want none and some", tap.pump.Load(), tap.own.Load())
	}
	p.reply(t, a, 100)
	for _, o := range []struct {
		want uint32
		done chan result
	}{{200, bDone}, {100, aDone}} {
		select {
		case r := <-o.done:
			if r.err != nil || r.got != o.want {
				t.Fatalf("call got %d, %v; want %d", r.got, r.err, o.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reply %d never reached its call", o.want)
		}
	}
}

// TestReadSideStress: eight callers with think times around idleWatch
// share one link for two seconds, half of them with a context to watch,
// so the read side keeps going from free to a caller to the pump and
// back. Every call must get its own answer, once, and promptly: a call
// registered just as an owner let go, and seen by neither, would sit
// until the idle timer found it — or, with that broken too, its
// deadline.
func TestReadSideStress(t *testing.T) {
	if testing.Short() {
		t.Skip("two seconds of load")
	}
	defer testutil.NoLeak(t)()
	addr, stop := loopbackEcho(t)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTCP(conn, Config{Prog: fusedProg, Vers: fusedVers, Timeout: 5 * time.Second})
	defer c.Close()

	var wg sync.WaitGroup
	var calls atomic.Int64
	var worst atomic.Int64
	end := time.Now().Add(2 * time.Second)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if g%2 == 0 {
				ctx = context.Background()
			}
			for i := uint32(0); time.Now().Before(end); i++ {
				arg, got := uint32(g)<<24|i, uint32(0)
				start := time.Now()
				err := c.CallCtx(ctx, 1, func(x *xdr.XDR) error { return x.Uint32(&arg) },
					func(x *xdr.XDR) error { return x.Uint32(&got) })
				if err != nil || got != arg+1 {
					t.Errorf("caller %d call %d: %d, %v", g, i, got, err)
					return
				}
				if d := int64(time.Since(start)); d > worst.Load() {
					worst.Store(d) // approximate under contention; a bound, not a statistic
				}
				calls.Add(1)
				time.Sleep(time.Duration(rng.Int63n(int64(2 * time.Millisecond))))
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d calls, slowest %v", calls.Load(), time.Duration(worst.Load()))
	if w := time.Duration(worst.Load()); w > time.Second {
		t.Fatalf("a call waited %v", w)
	}
	if n := c.Snapshot().InFlight; n != 0 {
		t.Fatalf("%d calls still registered", n)
	}
}

// TestIdleClosedLinkRedialsTransparently: nobody reads a link between
// two lone calls, so nobody would notice the server closing it — the
// next call would write into the dead socket, read EOF, and surface a
// failure it cannot tell from an executed call. The idle timer puts the
// pump there: the close is seen within idleWatch, the next call finds
// the link failed before it sends, and redials.
func TestIdleClosedLinkRedialsTransparently(t *testing.T) {
	for _, ambiguous := range []bool{false, true} {
		func() {
			defer testutil.NoLeak(t)()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Skipf("no loopback TCP: %v", err)
			}
			var served sync.WaitGroup
			defer served.Wait()
			defer ln.Close()
			served.Add(1)
			go func() { // the first connection answers one call; the second, all
				defer served.Done()
				for limit := 1; ; limit = -1 {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					served.Add(1)
					go func(limit int) {
						defer served.Done()
						defer conn.Close()
						r, w := xdr.NewRecStream(conn, 0), xdr.NewRecStream(conn, 0)
						for n := 0; n != limit; n++ {
							rec, err := r.ReadRecord(nil)
							if err != nil {
								return
							}
							xid, _ := rpcmsg.PeekXID(rec)
							if replyTo(w, xid, 7) != nil {
								return
							}
						}
					}(limit)
				}
			}()
			c, err := DialTCP("tcp", ln.Addr().String(), Config{Prog: 1, Vers: 1, Timeout: 2 * time.Second,
				Retry: &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, RetryAmbiguous: ambiguous}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 2; i++ {
				if got, err := callUint32(context.Background(), c); err != nil || got != 7 {
					t.Fatalf("ambiguous=%v call %d: %d, %v", ambiguous, i, got, err)
				}
				time.Sleep(20 * time.Millisecond) // the peer has hung up; the watcher has seen it
			}
			if st := c.Snapshot(); st.Reconnects != 1 || st.Retries != 0 {
				t.Fatalf("ambiguous=%v: %d reconnects, %d retries; want one redial before the send and no retry",
					ambiguous, st.Reconnects, st.Retries)
			}
		}()
	}
}

// TestUnsolicitedRecordsAreDrained: records no call is waiting for leave
// the socket without a caller's help once idleWatch has passed — the
// replies to a run of batched calls with no terminal call behind it, and
// the reply that arrives after its call has timed out. The peer is a
// pipe, so each of its writes returns only when the client has read it.
func TestUnsolicitedRecordsAreDrained(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	tap := &readTap{}
	c, p := newScriptedPeer(t, Config{Prog: 1, Vers: 1, Timeout: 40 * time.Millisecond}, tap.wrap)
	written := func(what string, write func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { write(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: nobody read it", what)
		}
	}

	const batched = 5
	for i := 0; i < batched; i++ {
		if err := c.CallBatched(1, Void); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	p.clock.Advance(idleWatch)
	written("replies to batched calls", func() {
		for i := 0; i < batched; i++ {
			p.reply(t, p.nextXID(t), 1)
		}
	})
	// No call was there to read them and nothing pins the link to the
	// pump: the idle timer found the side free and the pump it started is
	// what read every byte.
	if l := c.current(); l.pumped.Load() || l.owner.Load() != readPump || tap.own.Load() != 0 || tap.pump.Load() == 0 {
		t.Fatalf("pinned=%v owner=%d, %d reads by calls and %d by the pump; want the watch pump alone",
			l.pumped.Load(), l.owner.Load(), tap.own.Load(), tap.pump.Load())
	}

	// The same after a call: the read side is nobody's once it has timed
	// out.
	c, p = newScriptedPeer(t, Config{Prog: 1, Vers: 1, Timeout: 40 * time.Millisecond}, nil)
	if _, err := callUint32(context.Background(), c); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered call: %v, want ErrTimeout", err)
	}
	late := p.nextXID(t)
	p.clock.Advance(idleWatch)
	written("late reply", func() { p.reply(t, late, 1) })
	replied := make(chan struct{})
	go func() { p.reply(t, p.nextXID(t), 2); close(replied) }()
	if got, err := callUint32(context.Background(), c); err != nil || got != 2 {
		t.Fatalf("call after the late reply: %d, %v", got, err)
	}
	<-replied
}

// TestReplyRecordBounded: the buffer a reply is read into belongs to the
// link, so a reply record is bounded as a request record is on the
// server. A mark announcing 1 GiB fails the link before a byte of it is
// buffered; the call ends with that error, well inside its deadline.
func TestReplyRecordBounded(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	c, p := newScriptedPeer(t, Config{Prog: 1, Vers: 1, Timeout: 500 * time.Millisecond}, nil)
	go func() {
		p.nextXID(t)
		_, _ = p.conn.Write([]byte{0xC0, 0, 0, 0}) // last fragment, 1 GiB; then silence
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := callUint32(context.Background(), c)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, xdr.ErrRecordTooLarge) {
		t.Fatalf("err = %v, want xdr.ErrRecordTooLarge", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("call took %v against a 500ms Timeout", elapsed)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("%d bytes allocated reading a reply that never came", grew)
	}
	if _, err := callUint32(context.Background(), c); !errors.Is(err, xdr.ErrRecordTooLarge) {
		t.Fatalf("next call on the failed link: %v", err)
	}
}

// TestLetGoLooksAgain pins the owner's half of the hand-over: having
// freed the read side it looks at the registrations, and with a call
// other than its own registered — one that saw the side owned a moment
// ago and went to wait on its slot — it takes the side for the pump. The
// idle timer would find that call too, a millisecond later; this is the
// check that it is not left to.
func TestLetGoLooksAgain(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	c, _ := newScriptedPeer(t, Config{Prog: 1, Vers: 1}, nil)
	l := c.current()
	l.owner.Store(readCaller)
	own, _, err := l.dmx.register(&c.xid)
	if err != nil {
		t.Fatal(err)
	}
	if c.letGo(l, own) || l.owner.Load() != readFree {
		t.Fatalf("alone: the side went to owner %d, want free", l.owner.Load())
	}
	l.owner.Store(readCaller)
	other, _, err := l.dmx.register(&c.xid)
	if err != nil {
		t.Fatal(err)
	}
	if !c.letGo(l, own) || l.owner.Load() != readPump {
		t.Fatalf("another call registered: owner %d, want the pump", l.owner.Load())
	}
	l.owner.Store(readCaller)
	l.dmx.unregister(other)
	l.pumped.Store(true)
	if !c.letGo(l, own) || l.owner.Load() != readPump {
		t.Fatalf("link pinned to the pump: owner %d, want the pump", l.owner.Load())
	}
	l.dmx.unregister(own)
}
