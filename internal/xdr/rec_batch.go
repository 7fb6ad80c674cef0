package xdr

// Queued-record mode and the group-commit record batcher: the syscall
// amortization layer for stream transports. WriteRecord (rec.go) made
// one message cost one Write; at pipeline depth the next measurable
// overhead is that *each* message still costs its own Write. Here
// complete framed records queue on the stream and leave together —
// one writev (net.Buffers) or one coalesced Write — and RecBatcher
// wraps that queue in a leader/follower protocol so concurrent
// handlers or callers sharing a connection amortize syscalls without
// adding latency. The bytes on the wire are identical either way;
// only the syscall boundaries move.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// coalesceLimit bounds the copy-and-single-Write flush path: batches at
// or below it are copied into one contiguous buffer and written with a
// single Write (cheaper than writev for small records, and the only
// single-syscall path through writers that are not kernel sockets —
// test shims, counting wrappers, in-process pipes). Larger batches go
// out via net.Buffers, which uses writev on kernel-socket writers.
const coalesceLimit = 32 << 10

// QueueRecord frames buf as one complete record — patching the record
// mark into its reserved head exactly as WriteRecord does — and queues
// it for the next Flush instead of writing it. The caller must keep buf
// untouched until Flush returns; the wire bytes are identical to
// WriteRecord's, only the syscall boundary moves.
//
// A record left open by PutBytes must be completed (EndRecord) before
// queueing: its fragments may already be on the wire, and a queued
// record injected after them would corrupt the stream framing. A
// payload too large for a single fragment flushes the queue (keeping
// FIFO order) and then writes through the generic fragmenting path
// immediately.
func (r *RecStream) QueueRecord(buf []byte) error {
	if r.werr != nil {
		return r.werr
	}
	if len(buf) < RecordMarkLen {
		return fmt.Errorf("xdr: QueueRecord: buffer shorter than the %d-byte record mark", RecordMarkLen)
	}
	if r.wpos != 0 || r.sent != 0 {
		return fmt.Errorf("xdr: QueueRecord: record open (mixing queued and incremental writes)")
	}
	payload := len(buf) - RecordMarkLen
	if payload > maxFragPayload {
		if err := r.Flush(); err != nil {
			return err
		}
		if err := r.PutBytes(buf[RecordMarkLen:]); err != nil {
			return err
		}
		return r.EndRecord()
	}
	u := uint32(payload) | lastFragFlag
	buf[0], buf[1], buf[2], buf[3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
	r.wq = append(r.wq, buf)
	r.wqBytes += len(buf)
	return nil
}

// Queued reports the records and bytes waiting for Flush.
func (r *RecStream) Queued() (records, bytes int) { return len(r.wq), r.wqBytes }

// Flush writes every queued record in one vectored write: small batches
// coalesce into a single contiguous Write, larger ones leave via
// net.Buffers (writev on kernel sockets). On a stream whose write side
// has already failed the queue is discarded and the sticky error
// returned — the records' delivery state is unknowable anyway.
func (r *RecStream) Flush() error {
	if r.werr != nil {
		r.dropQueue()
		return r.werr
	}
	var err error
	switch {
	case len(r.wq) == 0:
		return nil
	case len(r.wq) == 1:
		_, err = r.rw.Write(r.wq[0])
	case r.wqBytes <= coalesceLimit:
		r.wcoal = r.wcoal[:0]
		for _, b := range r.wq {
			r.wcoal = append(r.wcoal, b...)
		}
		_, err = r.rw.Write(r.wcoal)
	default:
		bufs := net.Buffers(r.wq)
		_, err = bufs.WriteTo(r.rw)
	}
	r.dropQueue()
	if err != nil {
		r.werr = fmt.Errorf("xdr: write record batch: %w", err)
		return r.werr
	}
	r.wseal = true
	return nil
}

// dropQueue forgets the queued records without retaining references to
// their (caller-owned, typically pooled) buffers.
func (r *RecStream) dropQueue() {
	for i := range r.wq {
		r.wq[i] = nil
	}
	r.wq = r.wq[:0]
	r.wqBytes = 0
}

// DefaultBatchWatermark is the queued-bytes threshold at which
// RecBatcher.Queue flushes on its own, bounding the memory a
// fire-and-forget caller can pin before a terminal flush arrives.
const DefaultBatchWatermark = coalesceLimit

// RecBatcher serializes concurrent record writes onto one RecStream and
// coalesces them by group commit: the first writer to find no flush in
// progress becomes the leader and writes the queued batch outside the
// lock; records queued by other goroutines while the leader is inside
// the write syscall are picked up on its next loop iteration. Under
// contention many records leave per syscall; an uncontended write
// flushes immediately, so batching never *adds* latency — coalescing
// happens exactly when concurrency makes it possible. An owner that
// knows more writers are coming says so through MoreWriters, and the
// leader lets them queue first.
//
// Buffer ownership transfers on every call: the batcher releases each
// pooled buffer with PutBuf after its batch is written (or dropped on a
// sticky error), so callers must not touch a buffer after handing it
// in. Exported fields must be set before first use and not changed
// afterwards.
type RecBatcher struct {
	// PreWrite, when non-nil, runs before each vectored write (under the
	// leader, outside the queue lock) — the hook a client uses to arm a
	// write deadline covering the whole batch. earliest is the earliest
	// per-record deadline attached to the pending records (WriteDeadline),
	// or the zero time when none carries one: the hook can then bound the
	// write by the tightest caller budget in the batch instead of a fixed
	// transport-wide timeout.
	PreWrite func(earliest time.Time) error
	// OnError, when non-nil, is called once with the first write error —
	// the hook a transport uses to fail its demultiplexer and close the
	// connection so every sharer unblocks promptly.
	OnError func(error)
	// MoreWriters, when non-nil, reports whether other goroutines are
	// about to Write on this batcher — the one fact group commit lacks.
	// A Write that finds it true and becomes the leader yields the
	// processor once (runtime.Gosched) between claiming the flush and its
	// first vectored write: writers that are already runnable run, queue
	// behind the claim, and leave in that write — xdrrec_endofrecord's
	// sendnow = FALSE, decided per record from what the owner knows. A
	// writer that is blocked is not runnable, so the yield returns at
	// once and nothing waits for it: no timer, no delay bound to tune. It
	// is called on every Write, outside the queue lock, so it must be
	// cheap (the server's is one atomic load). nil (the client's
	// batchers), a false answer, an explicit Flush and a
	// watermark-triggered flush all write immediately.
	MoreWriters func() bool

	mu        sync.Mutex // guards pend, spare, pendBytes, pendDL, flushing, err, errFired
	rec       *RecStream
	pend      []*[]byte
	spare     []*[]byte // the emptied backing array pend swaps with at the next flush
	pendBytes int
	pendDL    time.Time // earliest non-zero per-record deadline in pend
	flushing  bool
	err       error
	errFired  bool
}

// ErrRejected wraps the sticky error when a record is refused before
// entering the queue: the batcher had already failed, so the rejected
// record's bytes were definitively never written. A transport can
// therefore treat an ErrRejected failure as "not sent" — safe to retry
// on a fresh connection without risking double execution — whereas any
// other write failure leaves the record's delivery state unknowable.
var ErrRejected = errors.New("xdr: record rejected by failed batcher")

// NewRecBatcher returns a batcher owning the write side of rec. The
// stream must not be written through directly while the batcher is in
// use.
func NewRecBatcher(rec *RecStream) *RecBatcher {
	return &RecBatcher{rec: rec}
}

// Write queues bp's record and ensures a flush is running: the caller
// becomes the leader if no flush is in progress, otherwise the current
// leader writes the record on its next iteration and Write returns
// without waiting (a later failure then surfaces through OnError, not
// this call). Ownership of bp transfers to the batcher.
func (b *RecBatcher) Write(bp *[]byte) error { return b.add(bp, true, time.Time{}) }

// WriteDeadline is Write with the issuing call's absolute deadline
// attached: PreWrite receives the earliest deadline across the batch,
// so the transport can arm a write deadline matching the tightest
// remaining call budget instead of a full fresh timeout.
func (b *RecBatcher) WriteDeadline(bp *[]byte, deadline time.Time) error {
	return b.add(bp, true, deadline)
}

// Queue queues bp's record without forcing a flush: the record leaves
// with the next Write or Flush on this batcher, or immediately once the
// queued bytes reach DefaultBatchWatermark. It is for a caller that knows a
// flush is coming and will see to it — the client's ONC fire-and-forget
// calls, flushed by the terminal call, and the replies of a burst the
// server's read-token holder is working through, flushed before it next
// waits for the peer. Ownership of bp transfers to the batcher.
func (b *RecBatcher) Queue(bp *[]byte) error { return b.add(bp, false, time.Time{}) }

// Pending reports the records queued and not yet handed to a write —
// the leak gauge chaos tests pin at zero once every call has returned.
func (b *RecBatcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pend)
}

func (b *RecBatcher) add(bp *[]byte, flush bool, dl time.Time) error {
	// Asked before the lock: MoreWriters is the owner's code.
	yield := flush && b.MoreWriters != nil && b.MoreWriters()
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		PutBuf(bp)
		return fmt.Errorf("%w: %w", ErrRejected, err)
	}
	b.pend = append(b.pend, bp)
	b.pendBytes += len(*bp)
	if !dl.IsZero() && (b.pendDL.IsZero() || dl.Before(b.pendDL)) {
		b.pendDL = dl
	}
	if !flush && b.pendBytes < DefaultBatchWatermark {
		b.mu.Unlock()
		return nil
	}
	return b.flushLocked(yield)
}

// Flush writes everything queued. With nothing queued it is a no-op
// that returns nil even after a transport failure, so an idempotent
// Close stays clean.
func (b *RecBatcher) Flush() error {
	b.mu.Lock()
	if len(b.pend) == 0 && !b.flushing {
		b.mu.Unlock()
		return nil
	}
	return b.flushLocked(false)
}

// flushLocked runs the leader protocol. Called with b.mu held; returns
// with it released. If another leader is already flushing, the queued
// work is left to it. yield marks a Write whose MoreWriters said other
// writers are on their way.
func (b *RecBatcher) flushLocked(yield bool) error {
	if b.flushing {
		err := b.err
		b.mu.Unlock()
		return err
	}
	b.flushing = true
	if yield {
		// Yield with the leadership claim held but the lock released:
		// writers that run meanwhile queue behind the claim and return,
		// and everything they add leaves in this leader's first write.
		b.mu.Unlock()
		runtime.Gosched()
		b.mu.Lock()
	}
	for b.err == nil && len(b.pend) > 0 {
		// The whole queue leaves with this leader: arrivals during its
		// writes collect in the other backing array, and this one comes
		// back as the spare, so a steady stream of records allocates no
		// queue slices.
		taken, dl := b.pend, b.pendDL
		b.pend, b.spare = b.spare[:0], nil
		b.pendBytes = 0
		b.pendDL = time.Time{}
		b.mu.Unlock()
		err := b.writeTaken(taken, dl)
		b.mu.Lock()
		clear(taken) // the buffers went back to the pool; keep no reference
		b.spare = taken[:0]
		if err != nil && b.err == nil {
			b.err = err
		}
	}
	b.flushing = false
	err := b.err
	if err != nil {
		// Records queued behind a failure can never be delivered in
		// order; drop them so their buffers recycle.
		for _, bp := range b.pend {
			PutBuf(bp)
		}
		b.pend = nil
		b.pendBytes = 0
		b.pendDL = time.Time{}
	}
	fire := err != nil && !b.errFired
	if fire {
		b.errFired = true
	}
	b.mu.Unlock()
	if fire && b.OnError != nil {
		b.OnError(err)
	}
	return err
}

// writeTaken writes the records a leader took off the queue in one
// vectored write and releases every buffer — written, or stranded
// behind a failed write. earliest is the tightest per-record deadline
// among them (zero when none was attached).
func (b *RecBatcher) writeTaken(taken []*[]byte, earliest time.Time) error {
	err := b.writeBatch(taken, earliest)
	for _, bp := range taken {
		PutBuf(bp)
	}
	return err
}

// writeBatch frames one batch and writes it with one vectored write.
func (b *RecBatcher) writeBatch(batch []*[]byte, earliest time.Time) error {
	var err error
	if b.PreWrite != nil {
		err = b.PreWrite(earliest)
	}
	if err == nil {
		for _, bp := range batch {
			if err = b.rec.QueueRecord(*bp); err != nil {
				break
			}
		}
	}
	// Flush even after an error: it discards the stream's queue, so no
	// reference to a buffer about to be released survives.
	if ferr := b.rec.Flush(); err == nil {
		err = ferr
	}
	return err
}

// Err reports the sticky write error, if any.
func (b *RecBatcher) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}
