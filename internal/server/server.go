// Package server implements the service half of Sun RPC: the Go rendering
// of svc.c, svc_udp.c, and svc_tcp.c. A Server holds a dispatch table
// keyed by (program, version, procedure), serves datagram and stream
// transports, enforces the RFC 1057 error replies (PROG_UNAVAIL,
// PROG_MISMATCH, PROC_UNAVAIL, GARBAGE_ARGS), and keeps a bounded
// duplicate-request cache so retransmitted datagram calls are answered
// from memory instead of re-executed (svcudp_enablecache).
//
// Unlike the original single-threaded svc_run loop, dispatch is
// concurrent. Datagrams fan out to a bounded worker pool, and the
// duplicate-request cache doubles as the in-flight set: one (peer, xid)
// table behind one lock, in which a call is executing or done, so a
// retransmission of an executing call does not run twice. Each stream
// connection serves its pipelined requests with a bounded number of
// in-flight handlers whose reply records are serialized back onto the
// stream. Request and reply buffers come from the shared XDR buffer
// pool, keeping the hot path allocation-free between garbage
// collections; each collection empties the pools, and the calls after
// it allocate their buffers, pool slots and argument values again.
//
// In the five-layer specialization stack (see DESIGN.md) this is layer
// 4, the transport endpoint: the service-side twin of internal/client,
// executing internal/wire plans over internal/xdr streams. Its syscalls
// are batched where a series shows it pays (DESIGN.md, "Batching and
// flush policy"): concurrent stream handlers group-commit their reply
// records into shared coalesced writes, a stream connection's pipelined
// requests are picked up through the record layer's read-ahead window
// (one read per burst), and ServeUDP reads datagrams in recvmmsg batches
// through internal/platform/batchio where the kernel supports it. Each
// datagram reply is one write, as svc_udp's sendto was.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"specrpc/internal/clock"
	"specrpc/internal/platform/batchio"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// Marshal serializes or deserializes one value against an XDR handle.
type Marshal func(x *xdr.XDR) error

// Proc handles one procedure: it decodes arguments from dec and returns
// the marshaler producing the results. Returning ErrGarbageArgs (or any
// error wrapping it) yields a GARBAGE_ARGS reply; ErrNoReply yields no
// reply at all; any other error yields SYSTEM_ERR. Handlers run
// concurrently and must be safe for that.
type Proc func(dec *xdr.XDR) (reply Marshal, err error)

// ErrGarbageArgs signals that the arguments failed to decode.
var ErrGarbageArgs = errors.New("server: garbage args")

// ErrNoReply (or any error wrapping it), returned by a handler of
// either registration kind, makes the server send nothing for the call
// — the service routine returning NULL in the C library, and what RFC
// 5531 §8.4.1 asks of a batched call: the client (TCP.CallBatched) is
// not waiting, so a reply is a record written only to be thrown away.
// The call still executed: over UDP its XID is remembered, and a
// retransmission is answered with the same silence instead of a second
// execution. It is the only silent outcome — a one-way handler that
// fails or panics answers SYSTEM_ERR — and a procedure a client may also
// Call must not return it, or that call waits out its timeout.
var ErrNoReply = errors.New("server: no reply")

type procKey struct {
	prog, vers, proc uint32
}

// procEntry is one row of the dispatch table: the handler, and the rungs
// its argument and result bodies are marshaled on (zero for a closure
// registered through Register).
type procEntry struct {
	h             TypedProc
	args, results wire.Rung
}

// TypedProc is the one handler shape the dispatch table holds: body is
// the raw argument bytes located at fixed offsets by rpcmsg.CallBody,
// and the handler appends its complete success reply (header + results)
// onto bs. Returning an error makes handleCall rewind bs and emit the
// matching error reply — GARBAGE_ARGS for ErrGarbageArgs, SYSTEM_ERR for
// anything else — or, for ErrNoReply, nothing. Register and
// RegisterTyped both install one.
//
// Arguments are valid until the handler returns; results may alias
// them. body is a window of the transport's request buffer, which is
// recycled once the reply is out, and whatever the handler appended to
// bs was copied there: a handler may encode straight out of body, and
// must copy anything it keeps.
type TypedProc func(body []byte, xid uint32, bs *xdr.BufStream) error

// Server dispatches RPC calls to registered procedures.
type Server struct {
	mu       sync.RWMutex // guards procs and dgio
	procs    map[procKey]procEntry
	calls    *callTable // ServeUDP's in-flight calls and cached replies
	bufSize  int
	workers  int
	cacheCap int // duplicate-reply cache capacity (0 disables)
	queue    int // datagram admission queue depth
	maxConns int // stream connection limit (0 = unlimited)

	maxRecord int // stream request-record size limit

	idleTimeout time.Duration // stream idle-connection reap (0 = never)

	clock clock.Clock // what stream connections' lend rules time calls by

	// dgio holds the batched-I/O wrapper of every ServeUDP loop started,
	// whose counters Snapshot sums.
	dgio []*batchio.Conn

	truncated atomic.Uint64
	cacheHits atomic.Uint64 // duplicate calls answered from the reply cache
	qdrops    atomic.Uint64 // datagrams shed by admission control
	connDrops atomic.Uint64 // connections refused by the limit
	idleDrops atomic.Uint64 // connections reaped by the idle timeout
	recDrops  atomic.Uint64 // connections closed for an over-limit record
	panics    atomic.Uint64 // handler panics contained as SYSTEM_ERR
	conns     atomic.Int64  // live stream connections

	wg        sync.WaitGroup
	closeMu   sync.Mutex // guards closers, closerSeq, closed
	closers   map[uint64]func() error
	closerSeq uint64
	closed    bool
	done      chan struct{} // closed by Close; interrupts accept backoff
}

// Option configures a Server.
type Option func(*Server)

// WithCacheSize sets the duplicate-request cache capacity in entries
// (default 128; 0 disables the cache). The entries are shared by every
// peer and evicted oldest first, so one peer alone can have n replies
// remembered: size n as the number of calls a retransmission may lag
// behind across all clients. With the cache disabled a retransmission
// that arrives while its call executes is still dropped, not run twice.
func WithCacheSize(n int) Option {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.cacheCap = n
	}
}

// WithQueueDepth sets how many received datagrams may wait for a free
// worker before admission control sheds new arrivals (default
// max(4*workers, 64)). The queue is the overload buffer: once it fills,
// further datagrams are counted (Snapshot.QueueDrops) and dropped —
// clients retransmit — instead of backpressuring the read loop into the
// kernel's invisible socket-buffer drops.
func WithQueueDepth(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.queue = n
	}
}

// WithMaxConns bounds the number of concurrently served stream
// connections (default 0 = unlimited). Connections accepted beyond the
// bound are closed immediately and counted (Snapshot.ConnLimitDrops):
// shedding a connection at accept time is cheaper than collapsing under
// tens of thousands of half-serviced ones.
func WithMaxConns(n int) Option {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.maxConns = n
	}
}

// WithIdleTimeout reaps stream connections that stay silent for d
// (default 0 = never): a connection with no bytes arriving, no handler
// running, and no reply finishing for a full window is closed and
// counted (Snapshot.IdleDrops), freeing its goroutine and descriptor —
// the svc answer to clients that dial, go quiet, and hold resources
// forever.
// A connection busy serving calls is never reaped, however slow the
// calls: silence while a handler runs is the client waiting on the
// server. The window also bounds how long one record may trickle in:
// a peer that stalls mid-record past d is closed (uncounted — that is
// a broken stream, not an idle one).
func WithIdleTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d < 0 {
			d = 0
		}
		s.idleTimeout = d
	}
}

// DefaultMaxRecord is the default bound on one stream request record
// (the client bounds a reply record by the same constant).
const DefaultMaxRecord = xdr.DefaultMaxRecord

// WithMaxRecord bounds the size of one request record on stream
// connections (default DefaultMaxRecord), summed over its fragments. A
// record announcing more ends the stream before the excess is buffered —
// the connection closes behind the replies of the calls read before it —
// and is counted (Snapshot.RecordLimitDrops): without the bound
// a peer streaming fragments that never set the last-fragment bit grows
// the request buffer until the process dies. n <= 0 keeps the default.
func WithMaxRecord(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxRecord = n
		}
	}
}

// WithBufSize sets the datagram receive/reply buffer size (default
// 8900). n <= 0 keeps the default.
func WithBufSize(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.bufSize = n
		}
	}
}

// DefaultDatagramBatch is how many datagrams ServeUDP may read per
// syscall: big enough to amortize a kernel crossing across a bursty
// queue, small enough that the per-loop buffer set stays modest. It
// engages recvmmsg only where the platform and socket support it (Linux
// kernel UDP sockets); everywhere else each read is one recvfrom.
// Replies are one WriteTo each, so the bytes on the wire never depend
// on it.
const DefaultDatagramBatch = 32

// WithWorkers bounds the number of concurrently executing handlers per
// transport: the size of the datagram worker pool and the in-flight cap
// per stream connection. The default is max(8, GOMAXPROCS): handlers may
// block on locks or downstream I/O, so the bound is a pipelining depth,
// not a parallelism count, and must stay useful on single-CPU hosts.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

// New returns an empty server.
func New(opts ...Option) *Server {
	workers := runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	s := &Server{
		procs:     make(map[procKey]procEntry),
		bufSize:   8900,
		workers:   workers,
		cacheCap:  128,
		maxRecord: DefaultMaxRecord,
		clock:     clock.Real{},
		done:      make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.calls = newCallTable(s.cacheCap)
	if s.queue == 0 {
		s.queue = max(4*s.workers, 64)
	}
	return s
}

// Register installs the handler for (prog, vers, proc), the svc_register
// step. Registering the same triple twice replaces the handler. The
// closure API is an adapter over the table's handler shape: a pooled
// decoder over the argument bytes, the precompiled success header, then
// the results closure on a pooled encode handle.
func (s *Server) Register(prog, vers, proc uint32, h Proc) {
	s.register(procKey{prog, vers, proc}, procEntry{h: func(body []byte, xid uint32, bs *xdr.BufStream) error {
		d := xdr.GetDec(body)
		results, err := h(&d.X)
		xdr.PutDec(d)
		if err != nil {
			return err
		}
		appendSuccess(bs, xid)
		if results == nil {
			return nil
		}
		// The handle escapes into the closure, so it is borrowed — and
		// pointed at the caller's stream — rather than built per call.
		e := xdr.GetEnc(nil)
		e.X.Stream = bs
		err = results(&e.X)
		xdr.PutEnc(e)
		if err != nil {
			return errEncodeResults
		}
		return nil
	}})
}

// errEncodeResults reports a results closure that failed mid-encode. It
// deliberately wraps nothing: whatever the closure returned, the reply
// is SYSTEM_ERR.
var errEncodeResults = errors.New("server: results failed to encode")

// register installs e for p, replacing any earlier entry.
func (s *Server) register(p procKey, e procEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.procs[p] = e
}

// lookup resolves a routing triple to its handler, or to the RFC 1057
// accept_stat that refuses it — with, for PROG_MISMATCH, the range of
// versions the program is registered under. Refusals are the cold path,
// so the range is read off the table itself rather than kept in step
// beside it.
func (s *Server) lookup(p procKey) (TypedProc, rpcmsg.AcceptStat, rpcmsg.MismatchInfo) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.procs[p]; ok {
		return e.h, rpcmsg.Success, rpcmsg.MismatchInfo{}
	}
	stat := rpcmsg.ProgUnavail
	vr := rpcmsg.MismatchInfo{Low: ^uint32(0)}
	for k := range s.procs {
		if k.prog == p.prog {
			stat = rpcmsg.ProcUnavail
			vr.Low, vr.High = min(vr.Low, k.vers), max(vr.High, k.vers)
		}
	}
	if stat == rpcmsg.ProcUnavail && (p.vers < vr.Low || p.vers > vr.High) {
		stat = rpcmsg.ProgMismatch
	}
	return nil, stat, vr
}

// successTemplate is the precompiled accepted-success reply header
// (AUTH_NULL verifier) that every healthy reply starts with; only the
// XID varies per call, so the hot path copies the template and patches
// one word instead of walking the generic header encoder.
var successTemplate = rpcmsg.MustReplyTemplate(rpcmsg.None())

// appendSuccess appends the accepted-success header for xid onto bs.
func appendSuccess(bs *xdr.BufStream, xid uint32) {
	successTemplate.CopyTo(bs.Extend(successTemplate.Len()), xid)
}

// errBadCallHeader reports a message the fixed-offset call parse
// rejects — exactly the messages CallHeader.Marshal rejects
// (FuzzCallBody). There is no XID to reply to; datagram transports drop
// it, as svc_udp did, and a stream connection hangs up on it before it
// runs anything, as svc_vc did.
var errBadCallHeader = errors.New("server: bad call header")

// handleCall decodes one request from req and produces the reply bytes,
// appending after replyBuf's existing contents (the TCP path reserves
// the record mark there) and growing the backing array when the reply
// is larger. The routing triple and argument bytes are located at fixed
// offsets; the rest is dispatch's.
//
//specrpc:hotpath
func (s *Server) handleCall(req []byte, replyBuf []byte) ([]byte, error) {
	xid, prog, vers, proc, body, ok := rpcmsg.CallBody(req)
	if !ok {
		return nil, errBadCallHeader
	}
	return s.dispatch(xid, procKey{prog, vers, proc}, body, replyBuf)
}

// dispatch runs one parsed call: the handler appends the whole success
// reply itself, and every refusal or handler failure rewinds to the
// reserved prefix and marshals the RFC 1057 error reply. A handler that
// returned ErrNoReply produces no reply: nil bytes, nil error. It is
// shared by the UDP and TCP paths and safe to run from many workers at
// once.
//
//specrpc:hotpath
func (s *Server) dispatch(xid uint32, p procKey, body, replyBuf []byte) ([]byte, error) {
	e := xdr.GetEnc(replyBuf)
	defer xdr.PutEnc(e)
	h, stat, vr := s.lookup(p)
	if h != nil {
		switch stat = s.invoke(h, body, xid, &e.BS); stat {
		case rpcmsg.Success:
			return e.BS.Buffer(), nil
		case statNoReply:
			return nil, nil
		}
		// Rewind past anything a partially-failed handler wrote, keeping
		// the reserved prefix in place.
		e.BS.SetBuffer(e.BS.Buffer()[:len(replyBuf)])
	}
	rh := rpcmsg.ErrorReply(xid, stat)
	rh.Mismatch = vr
	if err := rh.Marshal(&e.X); err != nil {
		return nil, fmt.Errorf("server: marshal error reply: %w", err) //specvet:ok hotpath (error path only)
	}
	return e.BS.Buffer(), nil
}

// invoke is the single point every handler runs at. It maps the
// handler's outcome to an accept_stat and contains a panic: a handler
// bug answers its one call with SYSTEM_ERR, counted, instead of taking
// down the process and every other call in it.
func (s *Server) invoke(h TypedProc, body []byte, xid uint32, bs *xdr.BufStream) (stat rpcmsg.AcceptStat) {
	defer func() {
		if recover() != nil {
			s.panics.Add(1)
			stat = rpcmsg.SystemErr
		}
	}()
	switch err := h(body, xid, bs); {
	case err == nil:
		return rpcmsg.Success
	case errors.Is(err, ErrNoReply):
		return statNoReply
	case errors.Is(err, ErrGarbageArgs):
		return rpcmsg.GarbageArgs
	}
	return rpcmsg.SystemErr
}

// statNoReply is invoke's verdict for ErrNoReply. It is no accept_stat
// of the protocol and never reaches the wire.
const statNoReply rpcmsg.AcceptStat = -1

// dgram is one received datagram in flight to a worker.
type dgram struct {
	from net.Addr
	req  *[]byte // pooled; the worker returns it
}

// ServeUDP answers datagram calls on conn until the connection or server
// is closed. It blocks; run it on its own goroutine when serving multiple
// transports. Datagrams fan out to a bounded pool of workers, any of
// which may take any datagram. Each well-formed call passes through the
// server's call table twice: once to claim (peer, xid) or be answered
// from it, once to store the reply. A retransmission that arrives while
// the original is still executing finds it claimed and is dropped (the
// client retransmits again and is answered from the duplicate-request
// cache once the first execution lands), so the at-most-once guarantee
// holds without pinning calls to workers — pinning (e.g. on XID) would
// serialize unrelated calls that collide and cap the useful concurrency
// below the pool size. A datagram that is not a well-formed call has no
// XID to answer and is dropped, as svc_udp dropped it. The read loop
// takes datagrams in recvmmsg batches (DefaultDatagramBatch); a worker
// writes its reply itself, one WriteTo per datagram.
//
// Admission control: the queue between the read loop and the pool is
// bounded (WithQueueDepth). When every worker is busy and the queue is
// full the datagram is dropped and counted (Snapshot.QueueDrops) —
// datagram clients retransmit, so shedding load visibly at the door
// beats stalling the read loop until the kernel sheds it invisibly.
//
// A server may serve several datagram sockets at once (IPv4 and IPv6,
// say), one ServeUDP each; Snapshot's datagram counters sum them all.
func (s *Server) ServeUDP(conn net.PacketConn) error {
	if _, ok := s.track(conn.Close); !ok {
		return nil
	}
	defer s.wg.Done()

	// Batched-read wrapper: up to DefaultDatagramBatch datagrams per
	// recvmmsg where the platform supports it; anywhere the mmsg path is
	// unavailable every read is one recvfrom. Each reply leaves from the
	// worker that ran it, with one counted WriteTo.
	bc := batchio.New(conn, DefaultDatagramBatch)
	s.mu.Lock()
	s.dgio = append(s.dgio, bc)
	s.mu.Unlock()

	jobs := make(chan dgram, s.queue)
	var workers sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for d := range jobs {
				s.answerDatagram(bc, d.from, *d.req)
				xdr.PutBuf(d.req)
			}
		}()
	}
	defer workers.Wait()
	defer close(jobs)

	msgs := make([]batchio.Message, bc.Batch())
	bps := make([]*[]byte, bc.Batch())
	defer func() {
		for _, bp := range bps {
			if bp != nil {
				xdr.PutBuf(bp)
			}
		}
	}()
	for {
		// Arm each slot with a receive buffer of exactly bufSize bytes:
		// recycled pool buffers may be larger, and the datagram size bound
		// must not vary with them. Slots whose buffer was handed to a
		// worker get a fresh one; the rest reuse theirs.
		for i := range msgs {
			if bps[i] == nil {
				bps[i] = xdr.GetBuf(s.bufSize)
			}
			msgs[i].Buf = (*bps[i])[:s.bufSize]
			msgs[i].N, msgs[i].Addr = 0, nil
		}
		n, err := bc.ReadBatch(msgs)
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return fmt.Errorf("server: read: %w", err)
		}
		for i := 0; i < n; i++ {
			m := &msgs[i]
			if m.N == s.bufSize {
				// A request that fills the buffer exactly cannot be told
				// apart from one the kernel truncated to fit it (recvmmsg
				// truncates just as silently as recvfrom); decoding the
				// prefix as if complete risks executing a call on garbage
				// arguments. Drop it (the client retransmits) and count the
				// drop — the mirror of the client-side reply check.
				s.truncated.Add(1)
				continue
			}
			bp := bps[i]
			*bp = m.Buf[:m.N]
			select {
			case jobs <- dgram{from: m.Addr, req: bp}:
				bps[i] = nil // ownership moved to the worker; rearm next pass
			default:
				// Pool saturated and queue full: shed the call here, where
				// it is countable, instead of blocking the read loop.
				s.qdrops.Add(1)
			}
		}
	}
}

// Snapshot is a server's counters since New, its gauges, and its
// dispatch table, read in one call — the PMAPPROC_DUMP idiom of RFC 1833
// for the server's own state. Counters only grow; each field is read on
// its own, so a call may land between two of them.
type Snapshot struct {
	// The datagram syscalls of every ServeUDP loop started: reads, the
	// datagrams they moved (the ratio is the realized recvmmsg batch
	// factor, 1 on the unbatched path), and reply writes, one a datagram.
	DatagramReadCalls, DatagramReadMsgs, DatagramWrites uint64

	TruncatedDrops   uint64 // request datagrams that filled the buffer (WithBufSize), dropped as possibly truncated
	QueueDrops       uint64 // datagrams shed by admission control (WithQueueDepth)
	CacheHits        uint64 // duplicate datagram calls answered from the reply cache, not re-executed
	ConnLimitDrops   uint64 // stream connections refused by WithMaxConns
	IdleDrops        uint64 // stream connections reaped by WithIdleTimeout
	RecordLimitDrops uint64 // stream connections closed for a record over WithMaxRecord
	HandlerPanics    uint64 // handler panics contained and answered with SYSTEM_ERR
	Conns            int    // stream connections being served now

	Procs []ProcInfo // every registered procedure, in (Prog, Vers, Proc) order
}

// ProcInfo is one registered procedure and the marshaling engine each
// half of it is served on: the rung RegisterTyped's codecs chose for the
// argument decode and the reply encode (compiled for an rpcgen-emitted
// stub, fused for a plan with none, generic for a Generic-mode plan), or
// the zero Rung for a closure registered through Register, whose
// handler marshals its own values.
type ProcInfo struct {
	Prog, Vers, Proc uint32
	Args, Results    wire.Rung
}

// Snapshot reads the server's counters, gauges and dispatch table.
func (s *Server) Snapshot() Snapshot {
	st := Snapshot{
		TruncatedDrops:   s.truncated.Load(),
		QueueDrops:       s.qdrops.Load(),
		CacheHits:        s.cacheHits.Load(),
		ConnLimitDrops:   s.connDrops.Load(),
		IdleDrops:        s.idleDrops.Load(),
		RecordLimitDrops: s.recDrops.Load(),
		HandlerPanics:    s.panics.Load(),
		Conns:            int(s.conns.Load()),
	}
	st.DatagramReadCalls, st.DatagramReadMsgs, st.DatagramWrites = s.datagramIO()
	s.mu.RLock()
	st.Procs = make([]ProcInfo, 0, len(s.procs))
	for k, e := range s.procs {
		st.Procs = append(st.Procs, ProcInfo{k.prog, k.vers, k.proc, e.args, e.results})
	}
	s.mu.RUnlock()
	slices.SortFunc(st.Procs, func(a, b ProcInfo) int {
		return cmp.Or(cmp.Compare(a.Prog, b.Prog), cmp.Compare(a.Vers, b.Vers), cmp.Compare(a.Proc, b.Proc))
	})
	return st
}

// datagramIO sums the syscall counters of every ServeUDP loop started.
func (s *Server) datagramIO() (readCalls, readMsgs, writes uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, bc := range s.dgio {
		st := bc.Stats()
		readCalls += st.ReadCalls.Load()
		readMsgs += st.ReadMsgs.Load()
		writes += st.WriteCalls.Load()
	}
	return readCalls, readMsgs, writes
}

// DatagramIOStats is Snapshot's datagram counters, kept for benchmark/
// until ROADMAP item 2a/2b moves it onto Snapshot. Each reply is one
// write, so writeMsgs repeats writeCalls.
func (s *Server) DatagramIOStats() (readCalls, readMsgs, writeCalls, writeMsgs uint64) {
	readCalls, readMsgs, writeCalls = s.datagramIO()
	return readCalls, readMsgs, writeCalls, writeCalls
}

// TruncatedDrops is Snapshot.TruncatedDrops, kept for benchmark/ until
// ROADMAP item 2a/2b moves it onto Snapshot.
func (s *Server) TruncatedDrops() uint64 { return s.truncated.Load() }

// QueueDrops is Snapshot.QueueDrops, kept for benchmark/ until ROADMAP
// item 2a/2b moves it onto Snapshot.
func (s *Server) QueueDrops() uint64 { return s.qdrops.Load() }

// CacheHits is Snapshot.CacheHits, kept for benchmark/ until ROADMAP
// item 2a/2b moves it onto Snapshot.
func (s *Server) CacheHits() uint64 { return s.cacheHits.Load() }

func (s *Server) answerDatagram(bc *batchio.Conn, from net.Addr, req []byte) {
	xid, prog, vers, proc, body, ok := rpcmsg.CallBody(req)
	if !ok {
		return // not a call: nothing to answer
	}
	// The pooled reply buffer doubles as the destination for cache hits:
	// begin copies the cached bytes into it under the table lock (the
	// table's own buffers are recycled by concurrent evictions, so they
	// must never be written to the socket after the lock is released).
	rp := xdr.GetBuf(s.bufSize)
	defer xdr.PutBuf(rp)
	k, p := cacheKey{makePeerKey(from), xid}, procKey{prog, vers, proc}
	cached, st := s.calls.begin(k, p, (*rp)[:0])
	switch st {
	case callBusy:
		// A retransmission of a call executing on another worker: drop it
		// and let a later retransmission be answered from the cache.
		return
	case callCached:
		// A retransmission of a call already executed. An empty entry is
		// the record of a call that got no reply (ErrNoReply), and gets
		// none again.
		s.cacheHits.Add(1)
		if len(cached) > 0 {
			*rp = cached
			bc.WriteTo(cached, from)
		}
		return
	}
	out, err := s.dispatch(xid, p, body, *rp)
	if err == nil && len(out) >= s.bufSize {
		// The growable reply buffer fits any results, but a datagram
		// cannot carry them: replace the reply with SYSTEM_ERR — which
		// always fits, and is sent and cached like any reply so the
		// handler is not re-executed per retransmission — exactly what
		// the original fixed-buffer encode produced when the results
		// overflowed it. The bound is exclusive: a reply that *fills*
		// the peer's receive buffer is dropped there as possibly
		// truncated, so it must stay strictly below. Stream replies
		// grow freely.
		buf := xdr.NewBufEncode(out[:0])
		se := rpcmsg.ErrorReply(xid, rpcmsg.SystemErr)
		err = se.Marshal(xdr.NewEncoder(buf))
		out = buf.Buffer()
	}
	if err != nil {
		out = nil // no reply could be built: the call answers nothing
	}
	// ErrNoReply leaves out nil too: nothing is sent, but the call ran, and
	// its empty entry answers a retransmission with the same silence.
	s.calls.finish(k, out)
	if out != nil {
		*rp = out // keep any growth pooled
		bc.WriteTo(out, from)
	}
}

// ServeTCP accepts stream connections and answers record-marked calls on
// each, one goroutine per connection. It blocks until the listener or
// server is closed.
//
// Transient accept failures (ECONNABORTED, EMFILE, and anything else the
// runtime reports as temporary) are retried with capped exponential
// backoff — the net/http.Server pattern — so one aborted handshake or a
// momentary descriptor squeeze cannot take down the listener; only close
// or a permanent failure exits the loop. When WithMaxConns is set,
// connections beyond the bound are closed at accept and counted.
func (s *Server) ServeTCP(ln net.Listener) error {
	if _, ok := s.track(ln.Close); !ok {
		return nil
	}
	defer s.wg.Done()
	var tempDelay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if tempDelay == 0 {
					tempDelay = 5 * time.Millisecond
				} else {
					tempDelay *= 2
				}
				if tempDelay > time.Second {
					tempDelay = time.Second
				}
				// Sleep interruptibly: Close must not wait out a capped
				// backoff (up to a second) before the loop notices the
				// server shut down.
				t := time.NewTimer(tempDelay)
				select {
				case <-t.C:
				case <-s.done:
					t.Stop()
					return nil
				}
				continue
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		tempDelay = 0
		// Add-then-check keeps the bound exact when several ServeTCP
		// loops share one Server; load-then-add would let concurrent
		// accepts race past it by up to the listener count.
		if n := s.conns.Add(1); s.maxConns > 0 && n > int64(s.maxConns) {
			s.conns.Add(-1)
			s.connDrops.Add(1)
			_ = conn.Close()
			continue
		}
		id, ok := s.track(conn.Close)
		if !ok {
			s.conns.Add(-1)
			continue // closed meanwhile: the next Accept says so
		}
		go func() {
			defer s.wg.Done()
			defer s.conns.Add(-1)
			// Untrack on exit: a long-lived server accepts unbounded
			// connections, and retaining every dead connection's closer
			// would grow the set without bound (and re-close them all on
			// shutdown).
			defer s.untrack(id)
			s.serveConn(conn)
		}()
	}
}

// streamConn is one stream connection being served. Every goroutine of
// the connection runs the same loop (serve) and is, at any moment, in one
// of three places: holding the read token (in read, the only code that
// touches rrec, spawned, queued and the lend rule's began and noLend),
// running a call (in handle), or parked on work. The token exists exactly
// once, so the read side needs no lock; it travels over work as a nil
// record — or stays where it is, lent to the call its holder just read
// (lend), one call of a burst after the other. The stream ends in one
// place: the token holder decides (hangUp), and run closes the
// connection once every call read before the end has been answered. Only
// a failed reply write closes it sooner (OnError), and Server.Close.
type streamConn struct {
	s    *Server
	conn net.Conn
	rrec *xdr.RecStream  // read side: the token holder's, over tokenReader
	wb   *xdr.RecBatcher // write side: group commit, any handler

	// work carries a request record to run or, as nil, the read token.
	// Only the token holder sends on it, and it closes it when the stream
	// ends; unbuffered, so whatever is sent has a goroutine behind it.
	work    chan *[]byte
	spawned int            // workers started so far, at most s.workers
	workers sync.WaitGroup // the spawned workers

	lending lendRule // whether a call just read runs under a lent token

	// queued says that replies of the burst the token holder is working
	// through sit on wb without a writer behind them (lend); the token
	// holder writes them before it reads the connection again
	// (tokenReader), so none waits on the peer.
	queued bool

	// inFlight/completed drive the idle reaper: a timeout only reaps when
	// no handler is running and none finished during the armed window.
	// Handlers bump completed before dropping inFlight, so the reaper can
	// never observe "nothing running, nothing finished" mid-handoff. The
	// same count tells the batcher when to hold a write: a call stays in
	// flight from the moment it was read until its reply is handed to the
	// batcher, so anything above one is another call of this connection,
	// about to reply.
	inFlight, completed atomic.Int64
}

// lendRule is when a stream connection's token holder may keep the read
// token while it runs the call it has just read — lend it to the call —
// and the watchdog that takes a lent token back. It has a method for
// each moment of that: a read returned, may this call be lent, a lend
// begins and ends, the watchdog fires, a handed-off call was timed, the
// stream is over. The time it goes by is clock's: package time in
// production, a fake that moves only when advanced in tests. (The
// datagram reader of ROADMAP item 4 is to hold one too.)
type lendRule struct {
	clock  clock.Clock
	handOn func() // gives the token to a worker, as read would have

	// lent is set while the token holder runs a call with the token in its
	// pocket. Whoever clears it has the token: the lender, back from the
	// call, or the watchdog, lendLimit after the newest lend. slow is what
	// the last call to finish told the next: its handler took longer than
	// lendUnder or, under a lent token, the token holder had by then
	// spent longer than that on what its last read of the connection
	// brought — so hand the token on first. It starts set: nothing is
	// known about a connection's first call. noLend is the watchdog's
	// verdict, and the token holder's to read: nothing is lent before it
	// (lendAgain).
	lent     atomic.Bool
	slow     atomic.Bool
	watchdog clock.Timer // armed by each lend
	noLend   time.Time

	// began is when the token holder's last read of the connection
	// returned: the start of the burst it is working through.
	began time.Time
}

// init readies the rule for a connection: nothing is known about its
// first call yet, and the watchdog is armed stopped, for lends to push.
func (r *lendRule) init(clk clock.Clock, handOn func()) {
	r.clock, r.handOn = clk, handOn
	r.slow.Store(true)
	r.watchdog = clk.AfterFunc(lendLimit, r.reclaim)
	r.watchdog.Stop()
}

// readReturned is the token holder's read of the connection returning:
// what it brought is a new burst.
func (r *lendRule) readReturned() { r.began = r.clock.Now() }

// mayLend reports whether the call just read may run under a lent token:
// the last call to finish was quick, and the watchdog's verdict is over.
// Token holder only.
func (r *lendRule) mayLend() bool { return !r.slow.Load() && r.began.After(r.noLend) }

// lendBegins pushes the watchdog lendLimit ahead and lends the token. It
// returns the start of the lender's burst, for lendEnds: once the
// watchdog has taken the token, the next holder's reads move began.
//
//specrpc:hotpath
func (r *lendRule) lendBegins() (began time.Time) {
	r.watchdog.Reset(lendLimit)
	began = r.began
	r.lent.Store(true)
	return began
}

// lendEnds is the lent call returning: it leaves word whether the burst
// begun at began has kept the token holder past lendUnder, and takes the
// token back, reporting whether the watchdog had taken it first.
func (r *lendRule) lendEnds(began time.Time) (back bool) {
	r.timed(began)
	return r.lent.CompareAndSwap(true, false)
}

// reclaim is the watchdog: a token still lent is taken from its lender
// and handed on, so the connection's next request is read — and the rest
// of the lender's burst run — while the call that outstayed lendLimit
// runs on; and nothing is lent for lendAgain.
func (r *lendRule) reclaim() {
	if r.lent.CompareAndSwap(true, false) {
		r.noLend = r.clock.Now().Add(lendAgain)
		r.handOn()
	}
}

// timed leaves word of a call that started at start for the next one
// read: slow if it took longer than lendUnder.
func (r *lendRule) timed(start time.Time) { r.slow.Store(r.clock.Since(start) > lendUnder) }

// stop disarms the watchdog: the stream ended in the hands of a token
// holder, so nothing is lent and a watchdog still pending has nothing to
// take.
func (r *lendRule) stop() { r.watchdog.Stop() }

// lendLimit is how long a lent token may stay lent. Below it a handler
// that blocks keeps the connection's next request unread, and the rest
// of its burst unrun; at it the watchdog takes the token away and gives
// it to a worker, and the calls after that are handed off at once (slow).
// One millisecond is the runtime's own timer resolution on an otherwise
// idle process — a shorter limit would not fire sooner — and is 80 round
// trips of the closed-loop peer the lend exists for, so the watchdog's
// timer is always pushed forward (a Reset of a pending timer: 51 ns, no
// wake-up) and never fires there.
const lendLimit = time.Millisecond

// lendAgain is how long a connection whose lent token had to be taken
// away is not lent to. A handler that blocks is not found out by timing
// it once it is handed off: what it waits for may be the very calls a
// lend keeps behind it (BenchmarkServeTCPBurst8/oneBlocked: the first of
// eight waits for the replies of the other seven — 20 µs handed off,
// lendLimit when lent), so a connection that looks quick again a burst
// later would pay lendLimit every other burst (36 µs → 410 µs a burst).
// A hundred lendLimits bounds what lending to the wrong connection can
// cost it at one part in a hundred of its time, and what a quick
// connection loses to one stalled thread at a tenth of a second of
// handing the token on as every connection did before it was lent.
const lendAgain = 100 * lendLimit

// lendUnder is the token holder's budget for one read of the connection:
// while what that read brought — a lone call, or the calls of a burst so
// far — has kept it no longer than this, the next call is lent the token
// too. Handing the token on costs a channel wake-up — a futex wake, a
// thread that spins up, reads EAGAIN and parks again; this one and the
// client's twin cost a tcp_echo20 call 13.8 µs of CPU between them on
// the reference host (EXPERIMENTS.md, "Repo benchmark, PR 22"), and a
// burst of eight handed-off calls pays it up to eight times (11.3 µs of
// burst for 2 µs of handlers, "Repo benchmark, PR 24") — and buys the
// rest of the connection's requests being read and run while this
// handler runs. Handlers that together run longer than the wake-ups cost
// have something to overlap, and the calls behind them are handed off;
// shorter ones would be over before a woken worker reached its record.
// 20 µs sits above both (the handlers of the benchmark run in 0.05–4 µs,
// eight to a burst at most) and below any handler that blocks.
// BenchmarkServeTCPBurst8 is the measurement behind it.
const lendUnder = 20 * time.Microsecond

// drainLimit bounds how long a hung-up connection waits to write the
// replies of the calls it read before the end: hangUp arms it as the
// connection's write deadline. A peer that reads its replies gets all of
// them; one that stopped reading would otherwise hold, for as long as it
// liked, every worker blocked writing to it and so the connection's
// goroutines and descriptor. A call whose handler outlasts it loses its
// reply. A second is far longer than a reply write to a peer that is
// reading takes, and a fifth of the client's default call timeout.
const drainLimit = time.Second

// serveConn serves one stream connection. Pipelined requests execute
// concurrently — up to s.workers handlers, plus the goroutine holding
// the read token — and nothing is started per request, nor, for a peer
// that waits for its replies before it sends again, woken: the goroutine
// the poller woke runs what it read to completion itself — a lone call,
// or every call of a burst, one after the other — and goes back to
// reading. It does so with the token lent to each call (lend) while the
// connection is quick, and after handing the token to a parked worker
// when it is not, so that handlers that take their time never keep the
// connection's next request waiting: the calls behind them in the read
// window then go to the workers, as fast as they can be parsed. A lent
// token that is not back within lendLimit is taken away and handed on
// all the same. When s.workers handlers are running, the next request is
// read and then waits, unexecuted, for one of them to return:
// backpressure through the peer's send window, not a drop.
//
// Reply records leave through a group-commit batcher. The replies of
// calls run under a lent token are queued and leave in one vectored
// write when the token holder next has to ask the connection for bytes —
// the reply half of a burst that arrived in one read, and for a lone
// call the write it always was. A handler finishing anywhere else that
// is alone on the connection writes immediately; one that is not claims
// the flush, yields the processor once so the handlers that are ready to
// run finish and queue behind it, and its one write carries them all. A
// handler that is blocked is not runnable, so it delays nobody: a slow
// call never holds the replies of faster calls (the client
// demultiplexes them by XID).
func (s *Server) serveConn(conn net.Conn) { s.newStreamConn(conn).run() }

func (s *Server) newStreamConn(conn net.Conn) *streamConn {
	c := &streamConn{s: s, conn: conn,
		wb:   xdr.NewRecBatcher(conn),
		work: make(chan *[]byte)}
	c.rrec = xdr.NewRecStream((*tokenReader)(c), 0)
	c.lending.init(s.clock, func() { c.give(nil) })
	c.rrec.MaxRecord = s.maxRecord
	// A failed reply write leaves the record stream unusable; close the
	// connection so the read loop exits and the peer fails fast instead
	// of waiting out its call timeouts.
	c.wb.OnError = func(error) { _ = conn.Close() }
	c.wb.MoreWriters = func() bool { return c.inFlight.Load() > 1 }
	return c
}

// tokenReader is the connection as rrec reads it: the one place a read
// of the token holder's can reach the kernel, and so block on the peer.
// The replies the holder has queued are written first — no reply is ever
// held across a read that may wait for the peer's next request, whether
// the window ran dry between two records or inside one — and what the
// read brings starts a new burst. It is the streamConn under another
// method set: a wrapper value around the conn costs a lone call 0.1 µs
// (an interface inside an interface), a pointer conversion nothing.
type tokenReader streamConn

//specrpc:hotpath
func (r *tokenReader) Read(p []byte) (int, error) {
	c := (*streamConn)(r)
	c.flush()
	n, err := c.conn.Read(p)
	c.lending.readReturned()
	return n, err
}

// Write is there because a RecStream is built over a ReadWriter; rrec
// only reads.
func (r *tokenReader) Write(p []byte) (int, error) { return r.conn.Write(p) }

// flush writes the replies the token holder has queued. Token holder
// only.
//
//specrpc:hotpath
func (c *streamConn) flush() {
	if c.queued {
		c.queued = false
		_ = c.wb.Flush() // a failure closes the connection (OnError)
	}
}

// run serves the connection until its stream ends, on the calling
// goroutine and the workers it starts, and returns when all are done.
func (c *streamConn) run() {
	// Flush invariant: every record handed to wb is flushed before the
	// goroutine that handed it in can block on the peer — a Write by its
	// handler before it returns (the leader loops until the queue is
	// empty, and a record queued after the leader exits makes its own
	// writer the new leader), a Queue by the token holder before its next
	// read of the connection, or before it hangs up — and the Wait below
	// holds run open until every worker has returned, so the close that
	// follows comes behind the reply of every call read before the stream
	// ended. A worker blocked writing to a peer that stopped reading is
	// freed by the write deadline hangUp armed (drainLimit).
	c.serve(nil) // the accepting goroutine starts out holding the token
	c.workers.Wait()
	_ = c.conn.Close()
	c.lending.stop()
}

// serve is the loop every goroutine of the connection runs, entered with
// what it was started for: a record to run, or nil — the read token.
//
//specrpc:hotpath
func (c *streamConn) serve(bp *[]byte) {
	for open := true; open; bp, open = <-c.work {
		if bp != nil {
			c.handle(bp)
		} else {
			c.read()
		}
	}
}

// read is the token holder's turn, and lasts as long as it holds the
// token: it reads request records and, each time, lends the token to the
// record's call, gives away the record, or gives away the token. On a
// quick connection a record is run where it was read, under a lent
// token, whether it came alone or with a burst behind it in the
// read-ahead window: the goroutine the poller woke parses, runs and
// answers all of it, nobody is woken, and the next read is this
// goroutine's again. Other calls of the connection still in flight do
// not change that — they are the handed-off stragglers of a burst that
// ran over its budget as often as a pipeline, and a rule that fanned the
// next burst out because of them would keep itself true (measured: one
// stall, and the four hundred bursts behind it fanned out). On a
// connection that is not quick — its first call, handlers that take
// their time, what is left of a burst that has used up lendUnder, a
// lend the watchdog had to end — while the window still holds bytes the
// rest of a burst is already here, so the record goes to a worker and
// the reader keeps the token: it fans out as fast as it can be parsed.
// When the window is empty the next read would block in the kernel
// anyway: the token goes to a worker and the record is run here. Every
// record is checked to be a call before any of that: one that is not
// ends the stream like a failed read. read returns without the token:
// given away, taken by the watchdog while it was lent, or gone with the
// stream — work is closed then.
//
//specrpc:hotpath
func (c *streamConn) read() {
	for {
		// Unlike a datagram, a stream record may exceed the datagram
		// buffer size, so the buffer grows as needed.
		bp := xdr.GetBuf(c.s.bufSize)
		req, err := c.s.readRecordIdle(c.conn, c.rrec, (*bp)[:0], &c.inFlight, &c.completed)
		*bp = req
		if _, _, _, _, _, ok := rpcmsg.CallBody(req); err == nil && !ok {
			err = errBadCallHeader // no record after it is run, as in svc_vc
		}
		if err != nil {
			xdr.PutBuf(bp)
			c.hangUp(err)
			return
		}
		c.inFlight.Add(1)
		switch {
		case c.lending.mayLend():
			if !c.lend(bp) {
				return
			}
		case !c.rrec.AtBoundary():
			c.give(bp)
		default:
			c.give(nil)
			c.handle(bp)
			return
		}
	}
}

// lend runs bp's call on the token holder with the token lent to it, and
// reports whether the token came back. The watchdog is pushed lendLimit
// ahead first; should the call still be running then, it takes the token
// (clearing lent is taking it) and gives it to a worker as read would
// have, and the lender returns to find it gone. A watchdog that fires
// between two lends finds nothing lent; one armed by an earlier lend
// that fires into this one only hands the token on early.
//
// The reply is queued, not written, when the token is back and the
// window holds more: its holder is the one goroutine that knows the rest
// of a burst is waiting there, and it flushes before it next reads the
// connection (tokenReader). With the window empty that read comes next,
// so the reply is written here — a lone call's at the point it always
// was, ahead of the bookkeeping for the next read, and a burst's last
// with the rest of the burst's behind it. The token is taken back first
// and the reply queued second, so nobody queues who cannot promise that
// flush: a lender whose token was taken writes, like any other handler,
// and its write carries whatever it had queued before.
//
//specrpc:hotpath
func (c *streamConn) lend(bp *[]byte) (back bool) {
	began := c.lending.lendBegins()
	rp := c.call(bp)
	back = c.lending.lendEnds(began)
	c.reply(bp, rp, back && !c.rrec.AtBoundary())
	return back
}

// hangUp ends the stream after a failed read — connection closed, broken
// framing, over-limit record, idle-reaped — or a record that is not a
// call: it stops reading and releases the parked workers, and leaves the
// close to run, behind the replies of the calls already handed out. Only
// the token holder calls it, so nobody is left to send on work. It arms
// the drain deadline first, so neither its own flush nor a worker's
// reply write waits on a peer that stopped reading for longer than
// drainLimit. The replies it had queued are owed to calls read before
// the end; a read that ended on what was already in the window (an
// over-limit mark or a non-call record behind them in a burst) never
// reached tokenReader, so they leave here.
func (c *streamConn) hangUp(err error) {
	if errors.Is(err, xdr.ErrRecordTooLarge) {
		c.s.recDrops.Add(1)
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(drainLimit))
	c.flush()
	close(c.work)
}

// give hands a record (or, as nil, the token) to another goroutine of
// the connection: a parked worker if there is one, a new worker while
// fewer than s.workers exist, and otherwise whichever worker returns
// from its handler first. The last case is the in-flight bound.
//
//specrpc:hotpath
func (c *streamConn) give(bp *[]byte) {
	select {
	case c.work <- bp:
		return
	default:
	}
	if c.spawned < c.s.workers {
		c.spawned++
		c.workers.Add(1)
		go c.worker(bp)
		return
	}
	c.work <- bp
}

func (c *streamConn) worker(bp *[]byte) {
	defer c.workers.Done()
	c.serve(bp)
}

// handle runs one call without the token and writes its reply. Like
// every call it leaves word whether its handler was quick (slow,
// lendUnder) for the next one read: that is how a connection starts
// being lent to — one that only ever sends bursts included — and how one
// whose bursts hold a handler that blocks stays handed off, since the
// call that blocked is the last of its burst to finish.
//
//specrpc:hotpath
func (c *streamConn) handle(bp *[]byte) {
	start := c.lending.clock.Now()
	rp := c.call(bp)
	c.lending.timed(start)
	c.reply(bp, rp, false)
}

// call runs the handler of bp's call and returns the reply record, nil
// when there is none to send. It leaves the connection alone: read lets
// through only records that parse as calls, so a call here is answered
// unless its handler asked for no reply (ErrNoReply). svc_tcp's promise
// — a stream that breaks is closed behind the replies of the calls that
// came before it — is kept by hangUp and run.
//
//specrpc:hotpath
func (c *streamConn) call(bp *[]byte) (rp *[]byte) {
	rp = xdr.GetBuf(c.s.bufSize)
	// Reserve the record mark at the head of the reply buffer:
	// handleCall marshals the reply behind it and the batcher patches
	// the mark in place, so the fully-formed reply goes to the socket
	// with no second copy. An error leaves nothing to send: read let no
	// record through that is not a call.
	if out, _ := c.s.handleCall(*bp, (*rp)[:xdr.RecordMarkLen]); out != nil {
		*rp = out
		return rp
	}
	xdr.PutBuf(rp)
	return nil
}

// reply hands a call's reply record, if it has one, to the batcher,
// releases its request record and takes the call out of flight. queue is
// the token holder's (lend): it leaves the writing to its own flush.
// Otherwise the record is written before reply returns, by this
// goroutine or by a leader already writing.
//
//specrpc:hotpath
func (c *streamConn) reply(bp, rp *[]byte, queue bool) {
	// Ownership of rp transfers to the batcher, which releases it once
	// the batch carrying it is written (or dropped on a poisoned stream).
	// Write errors are handled by OnError.
	switch {
	case rp == nil:
	case queue:
		c.queued = true
		_ = c.wb.Queue(rp)
	default:
		_ = c.wb.Write(rp)
	}
	xdr.PutBuf(bp)
	c.completed.Add(1)
	c.inFlight.Add(-1)
}

// readRecordIdle reads one request record, enforcing the idle timeout
// when one is configured. The deadline re-arms as long as the window
// saw any sign of life — a handler still running, or one that finished
// (its client is likely composing the next call) — so only a
// connection that stayed truly silent for a full window is reaped and
// counted. Bytes arriving mid-window reset nothing: a record either
// completes within the window or the stream is declared stalled. The
// record layer says which it was: a timeout that leaves it on a record
// boundary with nothing read ahead found the wire quiet (retriable,
// reapable); one that leaves it inside a record, or holding the front of
// the next, cannot be resumed and the connection is done.
func (s *Server) readRecordIdle(conn net.Conn, rrec *xdr.RecStream, dst []byte,
	inFlight, completed *atomic.Int64) ([]byte, error) {
	if s.idleTimeout <= 0 {
		return rrec.ReadRecord(dst)
	}
	for {
		done0 := completed.Load()
		_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		out, err := rrec.ReadRecord(dst)
		if err == nil {
			return out, nil
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() || !rrec.AtBoundary() {
			return out, err // closed, broken framing, or stalled mid-record
		}
		if inFlight.Load() > 0 || completed.Load() != done0 {
			continue // busy serving: silence here is the client waiting on us
		}
		s.idleDrops.Add(1)
		return out, err
	}
}

// track registers a service loop about to start: its transport's closer,
// to be invoked by Close, and the loop itself on wg — under the lock
// Close marks the server closed under, so the Add can never race Close's
// Wait. It returns a handle for untrack. Once Close has begun nothing is
// registered: the closer is invoked at once (the transport must still
// shut down) and ok is false — there is no loop to start.
func (s *Server) track(close func() error) (id uint64, ok bool) {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		_ = close()
		return 0, false
	}
	if s.closers == nil {
		s.closers = make(map[uint64]func() error)
	}
	s.closerSeq++
	id = s.closerSeq
	s.closers[id] = close
	s.wg.Add(1)
	s.closeMu.Unlock()
	return id, true
}

// untrack drops a closer whose transport has already shut down, so the
// set tracks live transports instead of growing with every connection
// ever accepted.
func (s *Server) untrack(id uint64) {
	s.closeMu.Lock()
	delete(s.closers, id)
	s.closeMu.Unlock()
}

// trackedClosers reports the number of live tracked closers (tests pin
// the connection-closer leak with it).
func (s *Server) trackedClosers() int {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	return len(s.closers)
}

func (s *Server) isClosed() bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	return s.closed
}

// Close stops all transports and waits for the service loops to drain.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	closers := make([]func() error, 0, len(s.closers))
	for _, c := range s.closers {
		closers = append(closers, c)
	}
	s.closers = nil
	s.closeMu.Unlock()
	var firstErr error
	for _, c := range closers {
		if err := c(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.wg.Wait()
	return firstErr
}

// peerKeyBytes is the fixed-size address window of a peerKey: room for
// a 16-byte IPv6 address, and for the names in-process simulators use
// as addresses.
const peerKeyBytes = 24

// peerKey identifies a datagram sender without allocating: the call
// table keys every datagram on (peer, xid), so a heap key — the
// peer+xid string the first implementation built — costs one
// allocation per received datagram on the hot path. The key is a comparable value type instead: address
// bytes (or a short textual address) inline in a fixed array, with a
// string spill only for exotic address types whose rendering does not
// fit.
type peerKey struct {
	kind uint8 // 0 none, 1 UDP, 2 textual
	n    uint8 // bytes of b in use
	port uint16
	b    [peerKeyBytes]byte
	rest string // overflow/zone spill; empty on the hot paths
}

// makePeerKey builds the key for one sender. *net.UDPAddr (the kernel
// UDP path) and compact textual addresses (netsim) stay allocation-free;
// anything else falls back to the address's String rendering.
func makePeerKey(a net.Addr) peerKey {
	if u, ok := a.(*net.UDPAddr); ok {
		k := peerKey{kind: 1, port: uint16(u.Port), rest: u.Zone}
		k.n = uint8(copy(k.b[:], u.IP)) // 4 or 16 bytes, already canonical
		return k
	}
	s := a.String()
	k := peerKey{kind: 2}
	if len(s) <= peerKeyBytes {
		k.n = uint8(copy(k.b[:], s))
		return k
	}
	k.rest = s
	return k
}

// cacheKey is the (peer, xid) identity of one datagram call in the call
// table (calltable.go).
type cacheKey struct {
	peer peerKey
	xid  uint32
}
