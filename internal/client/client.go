// Package client implements the client half of Sun RPC: the Go rendering
// of clnt_udp.c and clnt_tcp.c, extended with a concurrent multiplexed
// transport. A Client owns a transport, assigns XIDs atomically, marshals
// the call header and arguments into pooled buffers, retransmits over
// datagram transports, and decodes the reply header before handing the
// result stream to the caller's unmarshaler.
//
// Unlike the original one-call-at-a-time clients, both transports allow
// many in-flight calls per connection: whoever is reading the connection
// demultiplexes replies on their XID and routes each to the per-call
// channel registered by the issuing goroutine. Call is therefore safe —
// and useful — to invoke from many goroutines at once: over TCP the call
// records are pipelined onto one record-marked stream, and over datagram
// transports each call retransmits independently. The reader is a
// goroutine of the link's (the pump) whenever several calls, a call that
// can be cancelled, or nobody at all is waiting; a call that is alone on
// a stream reads its own reply, as clnttcp_call did, and no goroutine is
// woken to hand it over (see link).
//
// Argument and result marshalers are pluggable (the Marshal type), which
// is what lets the benchmark harness swap the generic micro-layered stubs
// for the specialized stubs produced by internal/tempo without touching
// the transport code.
//
// In the five-layer specialization stack (see DESIGN.md) this is layer
// 4, the transport endpoint: it drives the internal/xdr streams and
// internal/rpcmsg headers on behalf of the stubs from internal/wire.
// Two batching mechanisms amortize its syscalls (DESIGN.md, "Batching
// and flush policy"): concurrent TCP calls coalesce their records into
// shared vectored writes via the group-commit RecBatcher, and
// CallBatched queues ONC fire-and-forget calls that leave with the next
// terminal Call, Flush, or Close. On the way in, replies are read
// through the record layer's read-ahead window: one read per reply, or
// per burst of replies.
package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// Marshal serializes or deserializes one value against an XDR handle; it
// is the xdrproc_t of the original API.
type Marshal func(x *xdr.XDR) error

// Void is the marshaler for procedures without arguments or results.
func Void(*xdr.XDR) error { return nil }

// Errors returned by calls.
var (
	// ErrTimeout reports that the total call timeout elapsed without a
	// matching reply.
	ErrTimeout = errors.New("client: call timed out")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("client: closed")
)

// RPCError reports a failure delivered inside an RPC reply (rather than a
// transport fault): a non-success accept status or a rejection.
type RPCError struct {
	// Stat is the reply status (accepted vs denied).
	Stat rpcmsg.ReplyStat
	// AcceptStat holds the failure for accepted replies.
	AcceptStat rpcmsg.AcceptStat
	// RejectStat and AuthStat hold the failure for denied replies.
	RejectStat rpcmsg.RejectStat
	AuthStat   rpcmsg.AuthStat
	// Mismatch holds the supported version range for mismatch failures.
	Mismatch rpcmsg.MismatchInfo
}

// Error describes the failure in RFC terms.
func (e *RPCError) Error() string {
	if e.Stat == rpcmsg.MsgDenied {
		if e.RejectStat == rpcmsg.RPCMismatch {
			return fmt.Sprintf("rpc denied: RPC_MISMATCH (server supports %d..%d)",
				e.Mismatch.Low, e.Mismatch.High)
		}
		return fmt.Sprintf("rpc denied: AUTH_ERROR (auth_stat %d)", e.AuthStat)
	}
	if e.AcceptStat == rpcmsg.ProgMismatch {
		return fmt.Sprintf("rpc failed: PROG_MISMATCH (server supports %d..%d)",
			e.Mismatch.Low, e.Mismatch.High)
	}
	return fmt.Sprintf("rpc failed: %v", e.AcceptStat)
}

// Config carries the knobs shared by the UDP and TCP clients.
type Config struct {
	// Prog and Vers identify the remote program.
	Prog, Vers uint32
	// Cred is the credential attached to every call (default AUTH_NULL).
	Cred rpcmsg.OpaqueAuth
	// Timeout bounds the whole call including retransmissions
	// (clnt_call's total timeout). Default 5s.
	Timeout time.Duration
	// Retransmit is the datagram retransmission interval (clntudp_create's
	// wait argument). Default 500ms. Ignored over TCP.
	Retransmit time.Duration
	// BufSize is the marshaling buffer size. Default 8900 bytes (UDPMSGSIZE
	// was 8800 in the original; we round up for headers); <= 0 takes the
	// default. Over TCP it is only the initial buffer size: records grow
	// as needed.
	BufSize int
	// FirstXID seeds the transaction-id sequence; 0 derives one from the
	// clock, as gettimeofday did in clntudp_create.
	FirstXID uint32
	// NoBatch disables write coalescing on stream transports: every call
	// record is written with its own syscall, the pre-batching behavior.
	// Kept as the measurable baseline for the batch benchmarks; queued
	// batched calls (CallBatched) still queue, they just flush one record
	// per Write.
	NoBatch bool
	// Retry selects policy-driven retransmission and retry: over UDP the
	// fixed Retransmit tick becomes exponential backoff with full jitter
	// under a token-bucket budget; over TCP (with Redial set) calls that
	// fail on a broken connection are retried across reconnects when the
	// policy classifies them as safe. nil keeps the legacy semantics.
	Retry *RetryPolicy
	// Redial, on a stream client, enables transparent reconnect: when the
	// connection breaks, in-flight calls fail with a *TransportError, the
	// client redials through this function under the retry policy's
	// backoff and budget, and later calls proceed on the replacement
	// connection reusing the client's cached header templates and fused/
	// compiled codecs. nil (the default) keeps the legacy one-connection
	// lifetime. DialTCP installs a Redial automatically.
	Redial func() (net.Conn, error)
}

func (c *Config) fill() {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Retransmit == 0 {
		c.Retransmit = 500 * time.Millisecond
	}
	if c.BufSize <= 0 {
		c.BufSize = 8900
	}
	if c.FirstXID == 0 {
		c.FirstXID = uint32(time.Now().UnixNano())
	}
	if c.Cred.Flavor == 0 && c.Cred.Body == nil {
		c.Cred = rpcmsg.None()
	}
}

// ---------------------------------------------------------------------------
// Reply demultiplexer

// demux routes reply buffers from whoever reads a link to the per-call
// channels registered by issuing goroutines, keyed on XID.
type demux struct {
	mu    sync.Mutex // guards calls, free, err
	calls map[uint32]chan *[]byte
	free  []chan *[]byte // idle reply slots, each empty; at most the peak calls in flight
	err   error          // terminal transport error; set once
	done  chan struct{}  // closed when err is set
}

func newDemux() *demux {
	return &demux{calls: make(map[uint32]chan *[]byte), done: make(chan struct{})}
}

// register claims the next XID off the client's counter and installs a
// reply channel for it. The channel stays registered until unregister,
// so duplicate replies and ill-formed datagrams can be absorbed without
// losing the slot. XIDs still claimed by in-flight calls from a previous
// counter epoch are skipped: silently replacing the slot — what an
// unchecked map store would do — loses the first call's channel, and a
// reply for that XID would then be delivered to the wrong waiter. The
// collision is reachable once the 32-bit counter wraps on a long-lived
// connection while a slow call from the previous epoch is still waiting;
// the skip loop terminates because fewer than 2^32 calls can be in
// flight at once.
func (d *demux) register(counter *atomic.Uint32) (uint32, chan *[]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return 0, nil, d.err
	}
	xid := counter.Add(1)
	for d.calls[xid] != nil {
		xid = counter.Add(1)
	}
	var ch chan *[]byte
	if n := len(d.free); n > 0 {
		ch, d.free = d.free[n-1], d.free[:n-1]
	} else {
		ch = make(chan *[]byte, 1)
	}
	d.calls[xid] = ch
	return xid, ch, nil
}

// unregister removes the slot, reclaims any undelivered reply buffer and
// keeps the channel for the next call. The caller must be done with the
// channel. Removing and draining under the lock deliver sends under is
// what makes the reuse safe: once the slot is off the map no reply can
// reach it, so it goes back on the free list empty.
func (d *demux) unregister(xid uint32) {
	d.mu.Lock()
	ch := d.calls[xid]
	var stale *[]byte
	if ch != nil {
		delete(d.calls, xid)
		select {
		case stale = <-ch:
		default:
		}
		d.free = append(d.free, ch)
	}
	d.mu.Unlock()
	xdr.PutBuf(stale)
}

// deliver hands a pooled reply buffer to the call waiting on xid. It
// reports false — and the caller keeps ownership of bp — when no call
// waits on that xid (a stale reply, dropped exactly as clntudp_call
// dropped mismatched XIDs). A slot holds one reply: one that arrives
// before the call has taken the last replaces it. For a duplicate that
// changes nothing, and a datagram call that is going to skip an
// undecodable reply must not have lost the good copy behind it to a
// full slot — clntudp_call found that one next in the socket buffer.
// Only deliver sends, and under mu, so the slot it has just emptied (or
// the call has) takes the send. last reports that the call delivered to
// is the only one registered: what the pump lets go of the read side on.
func (d *demux) deliver(xid uint32, bp *[]byte) (ok, last bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ch, ok := d.calls[xid]
	if !ok {
		return false, false
	}
	select {
	case ch <- bp:
	default:
		select {
		case older := <-ch:
			xdr.PutBuf(older)
		default:
		}
		ch <- bp
	}
	return true, len(d.calls) == 1
}

// others reports how many calls besides xid's are registered — whether
// or not xid's own still is — and whether the link has failed: what an
// owner of the read side looks at after letting go of it.
func (d *demux) others(xid uint32) (n int, dead bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n = len(d.calls)
	if _, ok := d.calls[xid]; ok {
		n--
	}
	return n, d.err != nil
}

// fail records the terminal transport error and wakes every waiter. Only
// the first error sticks.
func (d *demux) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		d.err = err
		close(d.done)
	}
}

func (d *demux) error() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// inFlight reports how many reply slots are registered — the in-flight
// call count, exposed so leak tests can pin "cancelled calls release
// their slot".
func (d *demux) inFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.calls)
}

// ---------------------------------------------------------------------------
// The call engine and its transport seam
//
// One state machine runs every call on either transport — register XID →
// encode once → send → await → classify → retry under RetryPolicy — over
// a small transport seam (the cl_ops vector under clnt_call in the
// original CLIENT). Everything a call needs that outlives it lives on
// the engine; everything that differs between a datagram socket and a
// record stream sits behind transport and traits.

// link is one connection's worth of engine state: the demultiplexer and
// the read side feeding it. A datagram client has one for life; a stream
// client has one per connection generation, so a dead generation's
// state never bleeds into its replacement.
//
// The read side has one owner at a time (owner), and only the owner
// touches rbp and, on a stream, rrec. On a stream link a lone call reads
// its own reply: a call whose context cannot be cancelled and that finds
// the side free takes it (engine.await), reads records until its own
// arrives — delivering any other to its slot, as the pump would — and
// lets go. Whoever lets go looks again (engine.letGo): with other calls
// registered the side goes to the pump, and otherwise it stays free with
// the idle timer pushed idleWatch ahead. If that timer ever fires on a
// side still free its goroutine becomes the pump — the reader of a quiet
// link, there to notice the peer closing it and to drain what no call
// asked for — until it has delivered the reply of the only call
// registered, when it lets go in turn. Taking and letting go are a
// Dekker pair with registration: a call registers and then looks at
// owner, an owner frees the side and then looks at the registrations, so
// one of the two always sees the other.
type link struct {
	dmx *demux

	owner atomic.Int32 // readFree, readCaller or readPump
	// pumped pins the read side to the pump for the link's life: a
	// datagram link (its retransmit tick is no read deadline) or a stream
	// whose conn refused a read deadline. Batched calls pin nothing: the
	// replies nobody asked for are read past by the terminal call, or by
	// the pump the idle timer starts when none follows.
	pumped atomic.Bool
	rbp    *[]byte // the message being read, pooled; nil between deliveries

	// Stream generations only; nil on a datagram link.
	conn  net.Conn
	batch *xdr.RecBatcher // owns the write side of the record stream
	rrec  *xdr.RecStream  // the read side
	idle  *time.Timer     // fires engine.watch, idleWatch after the side was last let go
}

// Owners of a link's read side.
const (
	readFree   int32 = iota // nobody reads; the idle timer is pending
	readCaller              // a call reads its own reply
	readPump                // the pump goroutine
)

// idleWatch is how long a stream link's read side may stay free before
// a goroutine is put on it. It bounds how stale the client's view of a
// quiet connection gets — a peer that closed it (an idle timeout, a
// restart) is noticed within idleWatch of the last reply, so the next
// call redials instead of writing into a dead socket — and what it costs
// a closed-loop caller is one Reset of a pending timer per call (51 ns,
// no wake-up) as long as its think time is shorter. One millisecond is the runtime's timer resolution on an idle
// process, so nothing shorter would fire sooner, and is two orders above
// the 12 µs round trip the lone path exists for; a caller that thinks
// longer pays, per call, the wake-up every call paid before.
const idleWatch = time.Millisecond

// start puts the pump on a read side nobody owns. A call that will wait
// on its slot calls it after registering.
func (l *link) start(e *engine) {
	if l.pumpTakes() {
		go e.pump(l)
	}
}

// take claims a free read side for who. The load spares the callers of
// a busy link a read-modify-write of the line they all look at.
func (l *link) take(who int32) bool {
	return l.owner.Load() == readFree && l.owner.CompareAndSwap(readFree, who)
}

// pumpTakes claims a free read side for the pump, minus the read
// deadline the last call to read there left armed.
func (l *link) pumpTakes() bool {
	if !l.take(readPump) {
		return false
	}
	if l.conn != nil {
		_ = l.conn.SetReadDeadline(time.Time{})
	}
	return true
}

// transport is what differs per transport at run time.
type transport interface {
	// acquire returns the link the next attempt goes out on: a datagram
	// socket's one fixed link, or a stream's current generation —
	// redialing, single-flight, when that generation has failed. A caller
	// that finds a redial already under way gets its completion channel
	// instead, to wait on and ask again (engine.linkFor).
	acquire() (l *link, redialing <-chan struct{}, err error)
	// send puts one encoded request on l. kept reports who owns buf
	// afterwards: a datagram transport leaves it with the engine, which
	// re-sends the same bytes on the backoff tick; a stream's batcher
	// takes it, error or not.
	send(l *link, buf *[]byte, deadline time.Time) (kept bool, err error)
	// recv reads the next reply message on l into bp. ok=false with a
	// nil error is a message to discard and keep reading; an error is
	// terminal for the link and fails every call waiting on it.
	recv(l *link, bp *[]byte) (ok bool, err error)
}

// traits are the constants a transport fixes for its engine.
type traits struct {
	// prefix is the bytes reserved ahead of every encoded request: the
	// stream's record mark, which the record layer patches in place so
	// the message is never copied again.
	prefix int
	// maxReq is the exclusive bound on an encoded request, 0 for none.
	// A datagram that *fills* the receiver's buffer is indistinguishable
	// from a truncated one and is dropped on arrival, so sending it
	// would only burn the timeout; stream records grow freely.
	maxReq int
	// illFormed is what an undecodable reply ends the call with. nil
	// ignores it and keeps waiting, as clntudp_call did: a retransmission
	// can still draw a good one. A stream's reply will not come again.
	illFormed error
}

// engine owns the client-lifetime state — header template, XID counter,
// fused/compiled codec cache, retry policy, budget, counters — and the
// call state machine. UDP and TCP embed one; what makes reconnect cheap
// is that none of it belongs to a link, so a replacement connection
// recompiles nothing.
type engine struct {
	traits
	cfg     Config
	tr      transport
	tmpl    *rpcmsg.CallTemplate
	tmplErr error // cfg's auth material failed to compile; every call returns it

	xid atomic.Uint32

	planMu sync.RWMutex // guards plans
	plans  map[uint32]*plannedProc

	policy *RetryPolicy // nil → fixed-tick retransmission, no call retry
	budget *retryBudget // shared by retransmits, call retries and redials

	retransmits, retries, budgetDenied atomic.Uint64
	reconnects, redialFailures         atomic.Uint64

	// closed is set, and done closed, the moment Close begins, so backoff
	// and redial sleeps select on done and unblock immediately instead of
	// finishing their timer (the client-side mirror of the server's
	// accept-backoff fix).
	closeMu sync.Mutex // guards closed
	closed  bool
	done    chan struct{}
}

// init fills the engine in place from a filled Config. baseDelay seeds
// the policy's BaseDelay (the datagram client's Retransmit knob; 0
// elsewhere). The template compiler rejects only auth material the
// generic encoder rejects too, so the encoder's error under the
// compiler's wrap is the call's marshal error, derived once.
func (e *engine) init(cfg Config, tr transport, t traits, baseDelay time.Duration) {
	e.cfg, e.tr, e.traits = cfg, tr, t
	e.done = make(chan struct{})
	e.xid.Store(cfg.FirstXID)
	var err error
	if e.tmpl, err = rpcmsg.NewCallTemplate(cfg.Prog, cfg.Vers, cfg.Cred, rpcmsg.None()); err != nil {
		if inner := errors.Unwrap(err); inner != nil {
			err = inner
		}
		e.tmplErr = fmt.Errorf("client: marshal call header: %w", err)
	}
	if cfg.Retry != nil || cfg.Redial != nil {
		var p RetryPolicy
		if cfg.Retry != nil {
			p = *cfg.Retry
		}
		p = p.norm(baseDelay)
		e.policy = &p
		e.budget = newRetryBudget(&p)
	}
}

func (e *engine) isClosed() bool {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	return e.closed
}

// beginClose marks the client closed and wakes every sleeper selecting
// on done. It reports whether this call was the one that performed the
// transition (repeat closes are no-ops).
func (e *engine) beginClose() bool {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return false
	}
	e.closed = true
	close(e.done)
	return true
}

// Snapshot is a client's counters since it was made, its gauges, and its
// plan cache, read in one call (UDP.Snapshot, TCP.Snapshot). Counters
// only grow; each field is read on its own, so a call may land between
// two of them.
type Snapshot struct {
	RetryStats

	Reconnects     uint64 // replacement stream connections installed
	RedialFailures uint64 // dial attempts that failed, each backing off under the retry policy
	TruncatedDrops uint64 // reply datagrams that filled Config.BufSize, dropped as possibly truncated

	// InFlight is the calls holding a reply slot now (on a stream, the
	// live connection's), and QueuedRecords the records unflushed in the
	// live stream connection's batcher. Both return to zero once every
	// outstanding call finishes, times out, or is cancelled: no slot or
	// queue entry leaks.
	InFlight, QueuedRecords int

	// Procs is the plan cache in procedure order: each procedure a typed
	// call has reached, and the rung its call and reply codecs run on.
	Procs []ProcInfo
}

// ProcInfo is one procedure of a client's plan cache and the marshaling
// engine each half of it runs on: compiled for an rpcgen-emitted stub,
// fused for a plan with none, generic for a Generic-mode plan.
type ProcInfo struct {
	Proc          uint32
	Args, Results wire.Rung
}

// snapshot reads what the engine counts for both transports.
func (e *engine) snapshot() Snapshot {
	st := Snapshot{
		RetryStats: RetryStats{Retransmits: e.retransmits.Load(), Retries: e.retries.Load(),
			BudgetDenied: e.budgetDenied.Load()},
		Reconnects: e.reconnects.Load(), RedialFailures: e.redialFailures.Load(),
	}
	e.planMu.RLock()
	st.Procs = make([]ProcInfo, 0, len(e.plans))
	for proc, p := range e.plans {
		st.Procs = append(st.Procs, ProcInfo{proc, p.call.Rung(), p.rep.Rung()})
	}
	e.planMu.RUnlock()
	slices.SortFunc(st.Procs, func(a, b ProcInfo) int { return cmp.Compare(a.Proc, b.Proc) })
	return st
}

// RetryStats is Snapshot.RetryStats, kept for benchmark/ until ROADMAP
// item 2a/2b moves it onto Snapshot.
func (e *engine) RetryStats() RetryStats {
	return RetryStats{
		Retransmits:  e.retransmits.Load(),
		Retries:      e.retries.Load(),
		BudgetDenied: e.budgetDenied.Load(),
	}
}

// Call performs one remote procedure call: marshal header + args into a
// pooled buffer, send, await the XID-matched reply, then decode the
// results with reply. It is safe for concurrent use: calls from many
// goroutines proceed in parallel on one socket or connection and their
// replies may arrive in any order. Over UDP the call retransmits until
// answered (every cfg.Retransmit, or on the retry policy's backoff);
// over TCP it is one record out and one back, pipelined with its
// neighbours.
func (e *engine) Call(proc uint32, args, reply Marshal) error {
	return e.doCall(context.Background(), proc, callReq{args: args}, replySink{fn: reply})
}

// CallCtx is Call with a per-call context: the call's deadline is the
// earlier of the context deadline and the client's Timeout, and
// cancelling the context abandons the call immediately (releasing its
// reply slot; a late reply is dropped by the demultiplexer exactly like
// any stale datagram). A reply wait that ends at the context's own
// deadline reports context.DeadlineExceeded; one that ends at Timeout,
// ErrTimeout. Over a stream the deadline also bounds the shared
// record write (the batcher arms the connection's write deadline from
// the earliest deadline in each batch).
func (e *engine) CallCtx(ctx context.Context, proc uint32, args, reply Marshal) error {
	return e.doCall(ctx, proc, callReq{args: args}, replySink{fn: reply})
}

// plannedCaller is the hook CallTyped probes for: a transport that
// encodes requests and decodes replies with cached per-procedure codecs
// instead of per-call closures.
type plannedCaller interface {
	callPlanned(ctx context.Context, proc uint32, argc *wire.Codec, arg unsafe.Pointer, resc *wire.Codec, res unsafe.Pointer) error
}

// callPlanned is the entry point CallTyped routes typed calls through:
// same transport semantics as Call, with the request encoded by the
// procedure's cached whole-call codec and the results decoded straight
// from the reply.
func (e *engine) callPlanned(ctx context.Context, proc uint32, argc *wire.Codec, arg unsafe.Pointer, resc *wire.Codec, res unsafe.Pointer) error {
	p, err := e.lookup(proc, argc, resc)
	if err != nil {
		return err
	}
	return e.doCall(ctx, proc,
		callReq{cc: p.call, argp: arg},
		replySink{rc: p.rep, resc: resc, resp: res})
}

// call is the state one call's stages share; it lives on doCall's stack.
type call struct {
	ctx      context.Context
	proc     uint32
	req      callReq
	sink     replySink
	deadline time.Time
	ctxBound bool        // deadline is ctx's own, not cfg.Timeout
	timer    *time.Timer // pooled; armed for deadline by the first wait
}

// begin starts the clock of one call under ctx and the client's Timeout.
func (e *engine) begin(ctx context.Context) call {
	c := call{ctx: ctx}
	c.deadline, c.ctxBound = callDeadline(ctx, e.cfg.Timeout)
	return c
}

// expired is the channel a wait selects on for the call's deadline. The
// timer behind it is armed by the first wait, so a call that never
// blocks (CallBatched on a healthy link) never touches one.
//
//specrpc:hotpath
func (c *call) expired() <-chan time.Time {
	if c.timer == nil {
		c.timer = getTimer(time.Until(c.deadline))
	}
	return c.timer.C
}

// end releases the call's timer.
//
//specrpc:hotpath
func (c *call) end() {
	if c.timer != nil {
		putTimer(c.timer)
	}
}

// timedOut is what a wait does with a tick from expired: the error the
// call ends with, or nil for a tick that came early — a recycled timer
// can deliver one left over from its previous use — after re-arming the
// timer for what is left. The deadline ends a call, never the tick. When
// the deadline is the context's own, the engine's timer and the
// context's are due in the same instant and the error is the context's
// whichever fired first.
func (c *call) timedOut() error {
	if left := time.Until(c.deadline); left > 0 {
		c.timer.Reset(left)
		return nil
	}
	return c.deadlineErr()
}

// deadlineErr is the error of a call whose deadline has passed.
func (c *call) deadlineErr() error {
	switch {
	case c.ctx.Err() != nil:
		return c.ctx.Err()
	case c.ctxBound:
		return context.DeadlineExceeded
	default:
		return ErrTimeout
	}
}

// timers recycles stopped timers between calls: a deadline timer per
// call and a retransmit timer per datagram call were three heap objects
// each. Both modules say go 1.22, so a timer's channel is the buffered,
// asynchronous kind: Stop and a drain cannot rule out a send already on
// its way, and a recycled timer may deliver one stale tick. Every
// receiver therefore checks the clock against the time it is waiting
// for (call.timedOut, await's retransmit arm) instead of trusting the
// tick.
var timers sync.Pool

//specrpc:hotpath
func getTimer(d time.Duration) *time.Timer {
	if t, _ := timers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

//specrpc:hotpath
func putTimer(t *time.Timer) {
	t.Stop()
	select {
	case <-t.C:
	default:
	}
	timers.Put(t)
}

// verdict classifies how one attempt ended.
type verdict uint8

const (
	// final: the error is the call's outcome — reply decoded, RPC
	// error, timeout, cancellation, closed client.
	final verdict = iota
	// notSent: a transport failure before the request could reach the
	// wire (the link was dead at registration, or its batcher rejected
	// the record before queueing it). Always safe to retry.
	notSent
	// maybeSent: the request was handed to the wire before the link
	// died, so the server may have executed it. Retried only under
	// RetryPolicy.RetryAmbiguous: the stream path has no duplicate-
	// request cache to absorb a re-execution.
	maybeSent
)

// doCall drives one call to completion, possibly across links. Each
// attempt runs on the link acquire hands out; a datagram call has one
// attempt (its recover step is the retransmit arm inside await), a
// stream call with Redial loops here through single-flight reconnect.
//
//specrpc:hotpath
func (e *engine) doCall(ctx context.Context, proc uint32, req callReq, sink replySink) error {
	if e.isClosed() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c := e.begin(ctx)
	c.proc, c.req, c.sink = proc, req, sink
	defer c.end()

	attempts := 1
	if e.cfg.Redial != nil { // the call may outlive its link
		attempts = e.policy.MaxAttempts
	}
	var lastErr error
	lastSent := false
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if lastSent && !e.policy.RetryAmbiguous {
				break
			}
			if !e.budget.take() {
				e.budgetDenied.Add(1)
				lastErr = overBudget(lastErr)
				break
			}
			if err := e.sleep(ctx, e.policy.delay(attempt-1)); err != nil {
				return err
			}
			if time.Now().After(c.deadline) {
				break
			}
			e.retries.Add(1)
		}
		v, err := e.attempt(&c)
		if v == final {
			return err
		}
		lastErr, lastSent = err, v == maybeSent
	}
	if e.cfg.Redial == nil {
		return lastErr
	}
	return &TransportError{Err: lastErr, MaybeSent: lastSent}
}

// errBudget reports a retry or redial suppressed by the token-bucket
// budget: the client is failing faster than the policy lets it retry.
var errBudget = errors.New("client: retry budget exhausted")

func overBudget(err error) error { return fmt.Errorf("%w (%w)", err, errBudget) }

// sleep waits out one backoff delay, cut short by ctx or by Close.
func (e *engine) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.done:
		return ErrClosed
	}
}

// attempt runs one send/await cycle on the current link.
//
//specrpc:hotpath
func (e *engine) attempt(c *call) (verdict, error) {
	l, err := e.linkFor(c)
	if err != nil {
		return final, acquireFailed(err)
	}
	xid, ch, err := l.dmx.register(&e.xid)
	if err != nil {
		return e.linkFailed(notSent, err)
	}
	defer l.dmx.unregister(xid)

	buf, err := e.marshalReq(c.req, xid, c.proc)
	if err != nil {
		return final, err
	}
	kept, err := e.tr.send(l, buf, c.deadline)
	if kept {
		defer xdr.PutBuf(buf)
	} else {
		buf = nil
	}
	if err != nil {
		return e.linkFailed(sendVerdict(err), err)
	}
	return e.await(c, l, xid, ch, buf)
}

// linkFor gets the link for c's next attempt, waiting out another
// caller's redial if one is under way — on the call's own timer, and
// ending as any other wait of the call ends.
func (e *engine) linkFor(c *call) (*link, error) {
	for {
		l, redialing, err := e.tr.acquire()
		if redialing == nil {
			return l, err
		}
		for waiting := true; waiting; {
			select {
			case <-redialing:
				waiting = false
			case <-c.expired():
				if err := c.timedOut(); err != nil {
					return nil, err
				}
			case <-c.ctx.Done():
				return nil, c.ctx.Err()
			case <-e.done:
				return nil, ErrClosed
			}
		}
	}
}

// acquireFailed classifies an acquire error: a closed client, an expired
// deadline and a cancelled context are the call's own outcome; anything
// else is a reconnect that already retried dialing under the policy, so
// it surfaces with the not-sent classification rather than looping.
func acquireFailed(err error) error {
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrTimeout) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &TransportError{Err: err, MaybeSent: false}
}

// sendVerdict classifies a failed send: a record rejected by an
// already-failed batcher never entered the queue; any other write
// failure may have put a prefix of the batch — including this record —
// on the wire.
func sendVerdict(err error) verdict {
	if errors.Is(err, xdr.ErrRejected) {
		return notSent
	}
	return maybeSent
}

// linkFailed ends an attempt whose link broke under it: a closed client
// reports ErrClosed, anything else goes to the retry loop as v.
func (e *engine) linkFailed(v verdict, err error) (verdict, error) {
	if e.isClosed() {
		return final, ErrClosed
	}
	return v, err
}

// await is the one wait every call makes: reply, retransmit tick,
// deadline, cancellation, link death. resend is the request a datagram
// transport left with the engine; nil (a stream) leaves the retransmit
// arm a nil channel. With a policy the retransmit schedule is
// exponential backoff with full jitter, bounded by MaxAttempts and the
// retry budget; without one it is the classic fixed tick. Either way
// the deadline — not the attempt bound — ends the call: a stopped
// schedule still waits for a straggling reply.
//
// A call that nothing but its deadline can end early, and that finds
// the link's read side free, does not wait at all: it reads its reply
// itself (readOwn), and no goroutine is woken to hand it over.
//
//specrpc:hotpath
func (e *engine) await(c *call, l *link, xid uint32, ch chan *[]byte, resend *[]byte) (verdict, error) {
	if c.ctx.Done() == nil && !l.pumped.Load() && l.take(readCaller) {
		done, v, err := e.readOwn(c, l, xid, ch)
		if e.letGo(l, xid) {
			go e.pump(l)
		}
		if done {
			return v, err
		}
	}
	l.start(e)
	var retrans *time.Timer
	var tick <-chan time.Time
	var due time.Time // when the next retransmission is scheduled
	sends := 1        // datagrams sent so far
	if resend != nil {
		d := e.retransmitDelay(sends)
		retrans, due = getTimer(d), time.Now().Add(d)
		defer putTimer(retrans)
		tick = retrans.C
	}
	for {
		v, err := final, error(nil) // what this wake-up ends the attempt with
		select {
		case bp := <-ch:
			done, err := e.settle(c, *bp)
			xdr.PutBuf(bp)
			if !done {
				continue
			}
			return final, err
		case <-tick:
			if early := time.Until(due); early > 0 {
				retrans.Reset(early) // a tick left in the recycled timer
				continue
			}
			if e.policy != nil {
				if sends >= e.policy.MaxAttempts {
					continue // schedule exhausted: wait out the deadline
				}
				if !e.budget.take() {
					// Suppressed, not failed: count it, keep the schedule
					// running so a refilled bucket resumes retransmitting.
					e.budgetDenied.Add(1)
					due = rearm(retrans, e.policy.delay(sends))
					continue
				}
			}
			if _, err = e.tr.send(l, resend, c.deadline); err == nil {
				sends++
				e.retransmits.Add(1)
				due = rearm(retrans, e.retransmitDelay(sends))
				continue
			}
			v, err = e.linkFailed(maybeSent, err)
		case <-c.expired():
			if err = c.timedOut(); err == nil {
				continue
			}
		case <-c.ctx.Done():
			err = c.ctx.Err()
		case <-l.dmx.done:
			v, err = e.linkFailed(maybeSent, l.dmx.error())
		}
		// The call is about to end without its reply — but the reader may
		// have delivered one in the same instant the link failed or the
		// clock ran out, and select picks among ready arms at random. A
		// last non-blocking look keeps a call from discarding its own
		// answer.
		if ok, derr := drainReply(ch, &c.sink); ok {
			return final, derr
		}
		return v, err
	}
}

// settle decodes raw as c's reply. done is false for an undecodable
// reply on a transport that ignores those (traits.illFormed): the call
// goes on waiting for a better copy.
//
//specrpc:hotpath
func (e *engine) settle(c *call, raw []byte) (done bool, err error) {
	err = c.sink.decode(raw)
	if err == errIllFormed {
		if e.illFormed == nil {
			return false, nil
		}
		err = e.illFormed
	}
	return true, err
}

// readOwn is a call reading its own reply off a stream link whose read
// side it has just taken: the connection's read deadline is the call's,
// the records are read through the same seam and into the same buffer as
// the pump's, the call's own reply is decoded where it lies and any
// other goes to its slot. It returns when the call is over — reply,
// deadline, link death — and the caller lets the side go. A read that
// timed out inside a record leaves the rest of it to the next owner: the
// record layer resumes, and the bytes that came are in the link's
// buffer. done is false only when the connection takes no read deadline:
// the link is pumped from then on and the call waits like any other.
//
//specrpc:hotpath
func (e *engine) readOwn(c *call, l *link, xid uint32, ch chan *[]byte) (done bool, v verdict, err error) {
	// The side's last owner may have read this call's reply before it let
	// go: nobody delivers to the slot from here on, so one look is enough.
	select {
	case bp := <-ch:
		done, err = e.settle(c, *bp)
		xdr.PutBuf(bp)
		if done {
			return true, final, err
		}
	default:
	}
	if l.conn.SetReadDeadline(c.deadline) != nil {
		l.pumped.Store(true)
		return false, final, nil
	}
	for {
		got, has, err := e.next(l)
		if err != nil {
			if again, v, err := e.readFailed(c, l, err); !again {
				return true, v, err
			}
			continue
		}
		if !has || got != xid {
			e.route(l, got, has)
			continue
		}
		done, err = e.settle(c, *l.rbp)
		*l.rbp = (*l.rbp)[:0]
		if done {
			return true, final, err
		}
	}
}

// readFailed is what a call reading its own reply does with a failed
// read. A timeout is the call's own deadline, armed on the connection:
// the call is over and the link is not (again is for a timeout that came
// early). Anything else ends the link, and the call with the link's
// error, as it would have ended waiting on its slot.
func (e *engine) readFailed(c *call, l *link, err error) (again bool, v verdict, cerr error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if time.Until(c.deadline) <= 0 {
			return false, final, c.deadlineErr()
		}
		if l.conn.SetReadDeadline(c.deadline) == nil {
			return true, final, nil
		}
	}
	e.readDied(l, err)
	v, cerr = e.linkFailed(maybeSent, l.dmx.error())
	return false, v, cerr
}

// letGo frees l's read side after its owner — the call registered as
// xid, or the pump that has just delivered xid's reply — is done with
// it, and looks again: if the link is pinned to the pump, or a call
// other than xid's is registered (it may have looked at owner a moment
// ago and gone to wait on its slot), the side is taken for the pump and
// letGo reports true: a call starts one, the pump carries on. Otherwise
// the side stays free with the idle timer pushed forward — before the
// look at the link's health, so that a timer Close has stopped is never
// left re-armed.
//
//specrpc:hotpath
func (e *engine) letGo(l *link, xid uint32) (pump bool) {
	l.owner.Store(readFree)
	l.idle.Reset(idleWatch)
	others, dead := l.dmx.others(xid)
	if dead {
		l.idle.Stop()
		return false
	}
	return (others > 0 || l.pumped.Load()) && l.pumpTakes()
}

// watch is the idle timer firing: a read side still free gets the pump,
// on the timer's own goroutine.
func (e *engine) watch(l *link) {
	if l.dmx.error() == nil && l.pumpTakes() {
		e.pump(l)
	}
}

// rearm sets t to fire after d and returns the time that is: what the
// retransmit arm checks a tick against.
//
//specrpc:hotpath
func rearm(t *time.Timer, d time.Duration) time.Time {
	t.Reset(d)
	return time.Now().Add(d)
}

// retransmitDelay is the wait before datagram send n+1.
func (e *engine) retransmitDelay(n int) time.Duration {
	if e.policy != nil {
		return e.policy.delay(n)
	}
	return e.cfg.Retransmit
}

// drainReply is await's last non-blocking check of the reply channel.
// Reports true when a decodable reply was found.
func drainReply(ch chan *[]byte, sink *replySink) (bool, error) {
	select {
	case bp := <-ch:
		err := sink.decode(*bp)
		xdr.PutBuf(bp)
		if err == errIllFormed {
			return false, nil
		}
		return true, err
	default:
		return false, nil
	}
}

// pump is the demultiplexer's feed while it owns l's read side: it reads
// one reply message at a time, peeks its XID, and hands the buffer to
// the matching call. Messages no call waits on (a reply arriving after
// its call timed out, a duplicate, the answer to a batched call) are
// dropped. It exits — failing only this link — on the transport's
// terminal read error, and, on a link not pinned to it, when it has
// delivered the reply of the only call registered and nobody else has
// turned up since: the next lone call reads for itself.
//
//specrpc:hotpath
func (e *engine) pump(l *link) {
	for {
		xid, has, err := e.next(l)
		if err != nil {
			e.readDied(l, err)
			return
		}
		if e.route(l, xid, has) && !l.pumped.Load() && !e.letGo(l, xid) {
			return
		}
	}
}

// next reads the next reply message on l into the link's buffer and
// peeks its XID. has is false for a message to discard. Owner only.
//
//specrpc:hotpath
func (e *engine) next(l *link) (xid uint32, has bool, err error) {
	if l.rbp == nil {
		l.rbp = xdr.GetBuf(e.cfg.BufSize)
	}
	ok, err := e.tr.recv(l, l.rbp)
	if err != nil || !ok {
		return 0, false, err
	}
	xid, has = rpcmsg.PeekXID(*l.rbp)
	return xid, has, nil
}

// route hands the message next read to the call registered as xid, or
// drops it. last reports a delivery to the only call registered.
//
//specrpc:hotpath
func (e *engine) route(l *link, xid uint32, has bool) (last bool) {
	if has {
		if ok, last := l.dmx.deliver(xid, l.rbp); ok {
			l.rbp = nil // the call's now
			return last
		}
	}
	*l.rbp = (*l.rbp)[:0]
	return false
}

// readDied fails l after a terminal read error. Owner only.
func (e *engine) readDied(l *link, err error) {
	xdr.PutBuf(l.rbp)
	l.rbp = nil
	if e.isClosed() {
		err = ErrClosed
	}
	l.dmx.fail(err)
}

// ---------------------------------------------------------------------------
// Request encoding and reply decoding

// callReq selects how a call's request bytes are produced: args is the
// closure path (the Marshal API), cc+argp the codec path (one whole-call
// pass). Exactly one is set.
type callReq struct {
	args Marshal
	cc   *wire.CallCodec
	argp unsafe.Pointer
}

// marshalReq encodes one complete request into a pooled buffer behind
// the transport's reserved prefix. The closure path copies the header
// template, patches XID and procedure, and runs the args closure; the
// codec path reserves header and fixed-size argument bytes in one
// bounds check and stamps the XID into the image. Both produce
// byte-identical messages. The returned buffer must go back via
// xdr.PutBuf.
func (e *engine) marshalReq(r callReq, xid, proc uint32) (*[]byte, error) {
	if e.tmplErr != nil {
		return nil, e.tmplErr
	}
	bp := xdr.GetBuf(e.cfg.BufSize + e.prefix)
	// One pooled handle serves both branches: its stream escapes into the
	// codec's emitted routine and its XDR handle into the closure.
	enc := xdr.GetEnc((*bp)[:e.prefix])
	var err error
	if r.cc != nil {
		err = r.cc.Append(&enc.BS, xid, r.argp)
	} else {
		enc.BS.SetBuffer(e.tmpl.AppendCall(enc.BS.Buffer(), xid, proc))
		err = r.args(&enc.X)
	}
	*bp = enc.BS.Buffer() // keep any growth pooled
	xdr.PutEnc(enc)
	if err == nil && e.maxReq > 0 && len(*bp) >= e.maxReq {
		// The growable buffer fits any request; the transport does not.
		err = fmt.Errorf("%w (request %d bytes reaches datagram buffer %d)",
			xdr.ErrOverflow, len(*bp), e.maxReq)
	}
	if err != nil {
		xdr.PutBuf(bp)
		return nil, fmt.Errorf("client: marshal args: %w", err)
	}
	return bp, nil
}

// replySink selects how a call's reply bytes are consumed: fn is the
// closure path, rc+resp the codec path. The codec path decodes results
// straight out of the accepted-success reply; any other reply shape
// falls back to the generic header walk (via resc for the results), so
// failure detail is identical on both paths.
type replySink struct {
	fn   Marshal
	rc   *wire.ReplyCodec
	resc *wire.Codec // fallback result codec; nil for void results
	resp unsafe.Pointer
}

func (s *replySink) decode(raw []byte) error {
	if s.rc == nil {
		return decodeReply(raw, s.fn)
	}
	if handled, err := s.rc.DecodeReply(raw, s.resp); handled {
		if err != nil {
			return fmt.Errorf("client: unmarshal results: %w", err)
		}
		return nil
	}
	// Non-success, exotic, or ill-formed reply: cold path — extract the
	// full failure detail interpretively, exactly as the closure path
	// would.
	rm := Void
	if s.resc != nil {
		resc, resp := s.resc, s.resp
		rm = func(x *xdr.XDR) error { return resc.Marshal(x, resp) }
	}
	return decodeReply(raw, rm)
}

// errIllFormed marks a reply buffer whose header failed to decode.
// decodeReply returns it bare; it only surfaces wrapped (as a stream's
// traits.illFormed), so it carries no "client:" prefix of its own.
var errIllFormed = errors.New("ill-formed reply header")

// decodeReply interprets one complete reply message and runs the caller's
// result unmarshaler. The common shape — an accepted SUCCESS with an
// in-bounds verifier — is recognized at fixed offsets without touching
// the interpretive walker; anything unusual (error statuses, denials,
// ill-formed headers) falls back to the generic ReplyHeader.Marshal so
// the full failure detail is still extracted.
func decodeReply(raw []byte, reply Marshal) error {
	if body, ok := rpcmsg.AcceptedSuccessBody(raw); ok {
		d := xdr.GetDec(body)
		err := reply(&d.X)
		xdr.PutDec(d)
		if err != nil {
			return fmt.Errorf("client: unmarshal results: %w", err)
		}
		return nil
	}
	d := xdr.GetDec(raw)
	defer xdr.PutDec(d)
	var rh rpcmsg.ReplyHeader
	if err := rh.Marshal(&d.X); err != nil {
		return errIllFormed
	}
	if err := checkReply(&rh); err != nil {
		return err
	}
	if err := reply(&d.X); err != nil {
		return fmt.Errorf("client: unmarshal results: %w", err)
	}
	return nil
}

func checkReply(rh *rpcmsg.ReplyHeader) error {
	if rh.Stat == rpcmsg.MsgAccepted && rh.AcceptStat == rpcmsg.Success {
		return nil
	}
	return &RPCError{
		Stat:       rh.Stat,
		AcceptStat: rh.AcceptStat,
		RejectStat: rh.RejectStat,
		AuthStat:   rh.AuthStat,
		Mismatch:   rh.Mismatch,
	}
}

// ---------------------------------------------------------------------------
// Per-procedure whole-call codecs

// plannedProc is one entry of the engine's plan cache: the whole-call
// codecs a client builds on first typed use of a (procedure, plan pair).
// The call side joins the client's header template with the argument
// plan, the reply side wraps the result plan for direct decode; which
// marshaling engine each runs on is the constructors' choice and the
// codecs' to report (Rung).
type plannedProc struct {
	argc, resc *wire.Codec // identity of the plans the entry was built for
	call       *wire.CallCodec
	rep        *wire.ReplyCodec
}

// lookup resolves (building on first use, or when the plans changed) the
// whole-call codecs for proc. The cache keys on the procedure and
// re-resolves when the caller's plans differ from the cached pair, so
// the codec always belongs to the plans in hand, never to whichever
// caller happened to arrive first. It fails only where every call does:
// the client has no header template to build on.
func (e *engine) lookup(proc uint32, argc, resc *wire.Codec) (*plannedProc, error) {
	if e.tmplErr != nil {
		return nil, e.tmplErr
	}
	e.planMu.RLock()
	p := e.plans[proc]
	e.planMu.RUnlock()
	if p == nil || p.argc != argc || p.resc != resc {
		call, err := wire.NewCallCodec(e.tmpl, proc, argc)
		if err != nil {
			return nil, err
		}
		p = &plannedProc{argc: argc, resc: resc, call: call, rep: wire.NewReplyCodec(nil, resc)}
		e.planMu.Lock()
		if e.plans == nil {
			e.plans = make(map[uint32]*plannedProc)
		}
		// Last writer wins: concurrent compilations for the same pair are
		// equivalent, and a different pair claims the slot for its own
		// steady state (alternating pairs on one procedure would thrash
		// the cache, but each call still gets a correct codec).
		e.plans[proc] = p
		e.planMu.Unlock()
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// UDP

// UDP is a datagram client (CLIENT from clntudp_create): unreliable
// transport, at-least-once semantics via retransmission, reply matched to
// request by XID. Any number of goroutines may Call concurrently; each
// call retransmits independently while a shared reader goroutine routes
// replies.
type UDP struct {
	engine
	conn   net.PacketConn
	udp    *net.UDPConn // conn, when it is a kernel socket; else nil
	server net.Addr
	link   link // the socket's one link

	truncated atomic.Uint64
	readErrs  int // back-to-back read errors; only the pump touches it
}

// NewUDP returns a client sending calls for cfg.Prog/cfg.Vers to server
// over conn. The caller retains ownership of conn's lifetime via Close.
func NewUDP(conn net.PacketConn, server net.Addr, cfg Config) *UDP {
	cfg.fill()
	cfg.Redial = nil // a stream knob: a datagram client has its one link for life
	c := &UDP{conn: conn, server: server, link: link{dmx: newDemux()}}
	c.link.pumped.Store(true)
	c.udp, _ = conn.(*net.UDPConn)
	c.engine.init(cfg, c, traits{maxReq: cfg.BufSize}, cfg.Retransmit)
	return c
}

func (c *UDP) acquire() (*link, <-chan struct{}, error) { return &c.link, nil, nil }

func (c *UDP) send(_ *link, buf *[]byte, _ time.Time) (bool, error) {
	if _, err := c.conn.WriteTo(*buf, c.server); err != nil {
		return true, fmt.Errorf("client: send: %w", err)
	}
	return true, nil
}

// maxConsecReadErrs bounds how many back-to-back datagram read errors the
// reader tolerates before declaring the socket dead.
const maxConsecReadErrs = 64

func (c *UDP) recv(_ *link, bp *[]byte) (bool, error) {
	// Read into exactly BufSize bytes: recycled pool buffers may be
	// larger, and the datagram size bound must not vary with them.
	buf := (*bp)[:c.cfg.BufSize]
	var n int
	var err error
	if c.udp != nil {
		// The source is discarded either way (replies match on XID); this
		// form returns it by value instead of boxing an address per reply.
		n, _, err = c.udp.ReadFromUDPAddrPort(buf)
	} else {
		n, _, err = c.conn.ReadFrom(buf)
	}
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return false, ErrClosed
		}
		// Datagram read errors are usually per-packet (e.g. an ICMP
		// port-unreachable surfaced on read after a send to a briefly
		// down server): keep reading so one transient error does not
		// brick the client — calls keep retransmitting meanwhile. A
		// persistent error stream means the socket is dead; fail every
		// call rather than spinning forever.
		if c.readErrs++; c.readErrs < maxConsecReadErrs && !c.isClosed() {
			return false, nil
		}
		return false, fmt.Errorf("client: recv: %w", err)
	}
	c.readErrs = 0
	if n == c.cfg.BufSize {
		// A datagram that fills the read buffer exactly cannot be told
		// apart from one the kernel truncated to fit it; handing it to
		// the reply decoder would risk parsing a prefix of the real
		// message as if complete. Drop it — the call retransmits — and
		// count the drop so operators can size BufSize accordingly.
		c.truncated.Add(1)
		return false, nil
	}
	*bp = buf[:n]
	return true, nil
}

// Snapshot reads the client's counters, gauges and plan cache.
func (c *UDP) Snapshot() Snapshot {
	st := c.snapshot()
	st.TruncatedDrops = c.truncated.Load()
	st.InFlight = c.link.dmx.inFlight()
	return st
}

// TruncatedDrops is Snapshot.TruncatedDrops, kept for benchmark/ until
// ROADMAP item 2a/2b moves it onto Snapshot.
func (c *UDP) TruncatedDrops() uint64 { return c.truncated.Load() }

// Close releases the client and its socket. In-flight calls fail with
// ErrClosed. Repeat closes are no-ops.
func (c *UDP) Close() error {
	if !c.beginClose() {
		return nil
	}
	err := c.conn.Close() // stops the reader goroutine
	c.link.dmx.fail(ErrClosed)
	return err
}

// ---------------------------------------------------------------------------
// TCP

// TCP is a connection-oriented client (clnttcp_create): reliable
// transport, record-marked stream, no retransmission. Calls from many
// goroutines are pipelined onto the single connection: requests are
// written back to back and the connection's reader — the pump, or a call
// reading its own reply — routes each reply record to its call by XID,
// so replies may be consumed out of order.
//
// Record writes go through a group-commit batcher: when several calls
// are in flight their request records coalesce into one vectored write,
// so syscalls amortize across the pipeline depth (Config.NoBatch keeps
// the one-write-per-record baseline). CallBatched queues fire-and-forget
// requests on the same writer.
type TCP struct {
	engine

	// connMu guards cur, redialCh — the connection generations. cur is the
	// link calls go out on; each generation owns its conn, demultiplexer,
	// batcher, and reader. redialCh is non-nil while one goroutine is
	// reconnecting (closed when it finishes): single-flight, so a burst
	// of failing calls produces one dial sequence, not one each.
	connMu   sync.Mutex
	cur      *link
	redialCh chan struct{}
}

// errIllFormedReply is a stream's traits.illFormed: the record framing
// delivered a whole reply, so an undecodable one will not be followed by
// a better copy.
var errIllFormedReply = fmt.Errorf("client: read reply: %w", errIllFormed)

// NewTCP returns a client issuing calls over the established connection.
// With cfg.Redial set the connection is only the first of possibly many:
// when it breaks, the client redials under the retry policy and swaps in
// a replacement generation transparently. conn's SetReadDeadline must
// work or say that it does not: a call that reads its own reply is timed
// out by it, and a conn that returns an error from it is read by the
// pump alone.
func NewTCP(conn net.Conn, cfg Config) *TCP {
	cfg.fill()
	c := &TCP{}
	c.engine.init(cfg, c, traits{prefix: xdr.RecordMarkLen, illFormed: errIllFormedReply}, 0)
	c.cur = c.newLink(conn)
	return c
}

// DialTCP dials addr and returns a stream client with transparent
// reconnect enabled: cfg.Redial defaults to redialing the same address.
func DialTCP(network, addr string, cfg Config) (*TCP, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if cfg.Redial == nil {
		cfg.Redial = func() (net.Conn, error) { return net.Dial(network, addr) }
	}
	return NewTCP(conn, cfg), nil
}

// minWriteGrace floors the armed write deadline: a call whose own
// deadline already passed (it will time out regardless) must not arm an
// instantly-expired deadline and poison the shared write for the
// healthy calls batched with it.
const minWriteGrace = 5 * time.Millisecond

// newLink builds a connection generation around conn, wiring the
// batcher's deadline and failure hooks to this generation only.
func (c *TCP) newLink(conn net.Conn) *link {
	l := &link{dmx: newDemux(), conn: conn,
		batch: xdr.NewRecBatcher(xdr.NewRecStream(conn, 0)),
		rrec:  xdr.NewRecStream(conn, 0)}
	// A reply is bounded like a request: the buffer it is read into lives
	// as long as the link, and a peer must not be able to grow it without
	// end by never finishing a record.
	l.rrec.MaxRecord = xdr.DefaultMaxRecord
	l.idle = time.AfterFunc(idleWatch, func() { c.watch(l) })
	// The write deadline covers each vectored write: a peer that stopped
	// reading must not wedge the writers sharing the stream past their
	// call budget. earliest is the tightest per-call deadline among the
	// batched records (from WriteDeadline), so a nearly-expired call
	// bounds the write by its own remaining budget, never by a whole
	// fresh Timeout; records with no deadline fall back to Timeout.
	l.batch.PreWrite = func(earliest time.Time) error {
		dl := time.Now().Add(c.cfg.Timeout)
		if !earliest.IsZero() && earliest.Before(dl) {
			dl = earliest
			if floor := time.Now().Add(minWriteGrace); dl.Before(floor) {
				dl = floor
			}
		}
		return conn.SetWriteDeadline(dl)
	}
	// A failed or timed-out batch write leaves the record framing
	// unusable for every call sharing the stream — including calls whose
	// records were queued by a leader that already returned — so fail the
	// generation and close its connection so everyone unblocks now.
	l.batch.OnError = func(err error) {
		if c.isClosed() {
			l.dmx.fail(ErrClosed)
		} else {
			l.dmx.fail(sendRecordFailed(err))
		}
		_ = conn.Close()
	}
	if c.cfg.NoBatch {
		l.batch.MaxBatch = 1
	}
	return l
}

// retire closes a stream generation's connection — which ends whoever
// is reading it — and stops its idle timer. A call letting go of a dead
// link stops the timer again (letGo), so it is not left pending.
func (l *link) retire() error {
	l.idle.Stop()
	return l.conn.Close()
}

func sendRecordFailed(err error) error { return fmt.Errorf("client: send record: %w", err) }

// current returns the live connection generation.
func (c *TCP) current() *link {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.cur
}

// acquire returns a healthy connection generation, reconnecting if the
// current one has failed. Without a Redial it returns the current
// generation regardless of health — the call then surfaces the dead
// generation's error. With one, the first goroutine to find the
// generation dead becomes the redialer and the rest are handed the
// channel its outcome is announced on.
func (c *TCP) acquire() (*link, <-chan struct{}, error) {
	for {
		c.connMu.Lock()
		if c.isClosed() {
			c.connMu.Unlock()
			return nil, nil, ErrClosed
		}
		l := c.cur
		if c.cfg.Redial == nil || l.dmx.error() == nil {
			c.connMu.Unlock()
			return l, nil, nil
		}
		if ch := c.redialCh; ch != nil {
			c.connMu.Unlock()
			return nil, ch, nil
		}
		ch := make(chan struct{})
		c.redialCh = ch
		c.connMu.Unlock()
		err := c.reconnect(l)
		c.connMu.Lock()
		c.redialCh = nil
		c.connMu.Unlock()
		close(ch)
		if err != nil {
			return nil, nil, err
		}
	}
}

// reconnect retires the dead generation and dials its replacement under
// the retry policy: each attempt after the first spends a budget token
// and backs off with full jitter. On success the replacement is
// installed as cur (unless Close won the race, in which case the fresh
// connection is closed again).
func (c *TCP) reconnect(old *link) error {
	old.retire()
	var lastErr error
	for attempt := 1; attempt <= c.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			if !c.budget.take() {
				c.budgetDenied.Add(1)
				return fmt.Errorf("client: reconnect: %w", errBudget)
			}
			// The redial belongs to the client, not to whichever call
			// tripped it: only Close cuts its backoff short.
			if err := c.sleep(context.Background(), c.policy.delay(attempt-1)); err != nil {
				return err
			}
		}
		if c.isClosed() {
			return ErrClosed
		}
		conn, err := c.cfg.Redial()
		if err != nil {
			c.redialFailures.Add(1)
			lastErr = err
			continue
		}
		l := c.newLink(conn)
		c.connMu.Lock()
		if c.isClosed() {
			c.connMu.Unlock()
			l.retire()
			return ErrClosed
		}
		c.cur = l
		c.connMu.Unlock()
		c.reconnects.Add(1)
		return nil
	}
	return fmt.Errorf("client: reconnect: %w", lastErr)
}

// send hands the record to the generation's batcher. Concurrent callers
// coalesce — their records leave in one vectored write — and any queued
// batched calls (CallBatched) ride out with this record. The call's
// deadline rides along so the batch write is armed with the earliest
// deadline among its records.
func (c *TCP) send(l *link, buf *[]byte, deadline time.Time) (bool, error) {
	if err := l.batch.WriteDeadline(buf, deadline); err != nil {
		return false, sendRecordFailed(err)
	}
	return false, nil
}

func (c *TCP) recv(l *link, bp *[]byte) (bool, error) {
	// *bp holds what a read that timed out inside this record left there.
	rec, err := l.rrec.ReadRecord(*bp)
	*bp = rec // keep any growth pooled, and the front of a record cut short
	if err != nil {
		return false, fmt.Errorf("client: read reply: %w", err)
	}
	return true, nil
}

// Snapshot reads the client's counters, gauges and plan cache; the
// gauges are the live connection generation's.
func (c *TCP) Snapshot() Snapshot {
	st, l := c.snapshot(), c.current()
	st.InFlight = l.dmx.inFlight()
	st.QueuedRecords = l.batch.Pending()
	return st
}

// CallBatched issues one ONC batched (fire-and-forget) call: the request
// is marshaled and queued on the connection's record writer, and no
// reply is awaited — the original batching protocol of clnt_tcp, where a
// sequence of batched calls is terminated by a normal Call whose write
// flushes the queue and whose reply confirms the connection is alive.
// Queued calls also leave when the queued bytes reach the batcher's
// watermark, on an explicit Flush, or on Close.
//
// The semantics are strictly weaker than Call: no reply means no
// at-most-once confirmation and no error report from the server, and a
// transport failure after CallBatched returns surfaces only on the next
// Call, Flush, or CallBatched. What the server does with a batched call
// is the handler's choice, since the call message itself does not say
// it is batched: a handler that returns server.ErrNoReply sends nothing
// (RFC 5531 §8.4.1; a procedure meant to be called only this way should),
// and any other handler replies as it would to a Call — those replies
// share the burst's reply write and are discarded here by the
// demultiplexer, XID unknown, by whoever reads the link next: the
// terminal Call, which reads through them to its own reply on the
// calling goroutine as any lone call does (the batch wakes nobody), or,
// when no call follows within idleWatch, the pump the link's idle timer
// starts. Not supported over UDP, exactly as in the original: a datagram
// transport would need retransmission, which needs a reply.
func (c *TCP) CallBatched(proc uint32, args Marshal) error {
	if c.isClosed() {
		return ErrClosed
	}
	cl := c.begin(context.Background())
	defer cl.end()
	l, err := c.linkFor(&cl)
	if err != nil {
		return err
	}
	// A link whose reader has already failed takes no more records: the
	// queue would never be flushed to anyone, and the failure a terminal
	// call reported must stick for the batched calls after it.
	if err := l.dmx.error(); err != nil {
		return err
	}
	buf, err := c.marshalReq(callReq{args: args}, c.xid.Add(1), proc)
	if err != nil {
		return err
	}
	return c.wrote(l.batch.Queue(buf))
}

// Flush forces out every queued batched call without issuing a terminal
// Call. A failure here poisons the connection like any other write
// failure.
func (c *TCP) Flush() error { return c.wrote(c.current().batch.Flush()) }

// wrote maps a batcher write outcome to the client's error surface.
func (c *TCP) wrote(err error) error {
	if err == nil {
		return nil
	}
	if c.isClosed() {
		return ErrClosed
	}
	return sendRecordFailed(err)
}

// Close flushes any queued batched calls, then releases the client and
// its connection. In-flight calls fail with ErrClosed; a flush failure
// is reported once close itself succeeded (repeat closes stay nil — the
// batcher's empty Flush is a no-op even after a transport failure).
// Closing also interrupts any in-progress retry backoff or redial sleep
// immediately: sleepers select on the lifecycle's done channel.
func (c *TCP) Close() error {
	if !c.beginClose() {
		return nil
	}
	l := c.current()
	ferr := l.batch.Flush()
	l.dmx.fail(ErrClosed)
	err := l.retire()
	if err == nil && ferr != nil {
		err = fmt.Errorf("client: flush batched calls: %w", ferr)
	}
	return err
}

// Caller is the interface satisfied by both transports; generated stubs
// are written against it.
type Caller interface {
	Call(proc uint32, args, reply Marshal) error
	Close() error
}

// CtxCaller extends Caller with per-call contexts; both transports
// satisfy it.
type CtxCaller interface {
	Caller
	CallCtx(ctx context.Context, proc uint32, args, reply Marshal) error
}

var (
	_ CtxCaller     = (*UDP)(nil)
	_ CtxCaller     = (*TCP)(nil)
	_ plannedCaller = (*UDP)(nil)
	_ plannedCaller = (*TCP)(nil)
)
