package xdr

// The group-commit record batcher: the write side of a stream
// transport and its syscall amortization layer. WriteRecord (rec.go)
// made one message cost one Write; at pipeline depth the next
// measurable overhead is that *each* message still costs its own Write.
// Here complete messages queue on the batcher, which frames them and
// writes them together — one coalesced Write or one writev
// (net.Buffers) — under a leader/follower protocol, so concurrent
// handlers or callers sharing a connection amortize syscalls without
// adding latency. It is the stream's one write buffer and one flush
// decision, as xdr_rec.c's were; the bytes on the wire are those
// WriteRecord writes record by record, only the syscall boundaries move.

import (
	"errors"
	"fmt"
	"io"
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

// appendFramed frames rec — a message after RecordMarkLen reserved
// bytes, as WriteRecord takes it — and appends its wire form to vec. A
// payload of at most limit bytes is one final fragment, its mark patched
// into the reserved head: the bytes WriteRecord writes. A longer one
// leaves in fragments of limit bytes, the first behind the reserved head
// and each of the others behind a mark of its own.
func appendFramed(vec [][]byte, rec []byte, limit int) [][]byte {
	payload := rec[RecordMarkLen:]
	if len(payload) <= limit {
		putMark(rec, len(payload), true)
		return append(vec, rec)
	}
	putMark(rec, limit, false)
	vec = append(vec, rec[:RecordMarkLen+limit])
	for payload = payload[limit:]; len(payload) > 0; {
		n := min(len(payload), limit)
		m := make([]byte, RecordMarkLen)
		putMark(m, n, n == len(payload))
		vec = append(vec, m, payload[:n])
		payload = payload[n:]
	}
	return vec
}

// DefaultBatchWatermark is the queued-bytes threshold at which
// RecBatcher.Queue flushes on its own, bounding the memory a
// fire-and-forget caller can pin before a terminal flush arrives.
const DefaultBatchWatermark = coalesceLimit

// RecBatcher serializes concurrent record writes onto one connection and
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

	w         io.Writer
	mu        sync.Mutex // guards pend, spare, pendBytes, pendDL, flushing, err, errFired
	pend      []*[]byte
	spare     []*[]byte // the emptied backing array pend swaps with at the next flush
	pendBytes int
	pendDL    time.Time // earliest non-zero per-record deadline in pend
	flushing  bool
	err       error
	errFired  bool

	// The leader's scratch, touched only under the flush claim: the
	// framed batch as a write vector, its coalesced copy, and the
	// net.Buffers a vectored write consumes — a field, as a local would
	// move to the heap on every such write (WriteTo's receiver escapes).
	vec  [][]byte
	coal []byte
	bufs net.Buffers
}

// ErrRejected wraps the sticky error when a record is refused before
// entering the queue: the batcher had already failed, so the rejected
// record's bytes were definitively never written. A transport can
// therefore treat an ErrRejected failure as "not sent" — safe to retry
// on a fresh connection without risking double execution — whereas any
// other write failure leaves the record's delivery state unknowable.
var ErrRejected = errors.New("xdr: record rejected by failed batcher")

// NewRecBatcher returns a batcher owning the write side of w, which
// must not be written through directly while the batcher is in use.
func NewRecBatcher(w io.Writer) *RecBatcher {
	return &RecBatcher{w: w}
}

// Write queues bp's record and ensures a flush is running: the caller
// becomes the leader if no flush is in progress, otherwise the current
// leader writes the record on its next iteration and Write returns
// without waiting (a later failure then surfaces through OnError, not
// this call). *bp is a message after RecordMarkLen reserved bytes, as
// WriteRecord takes it; a buffer too short to hold the mark is refused
// with an error. Ownership of bp transfers to the batcher.
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
	if len(*bp) < RecordMarkLen {
		PutBuf(bp)
		return fmt.Errorf("xdr: RecBatcher: buffer shorter than the %d-byte record mark", RecordMarkLen)
	}
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
		err := b.writeBatch(taken, dl)
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

// writeBatch frames the records a leader took off the queue, writes
// them in one Write or one vectored write, and releases every buffer —
// written, or stranded behind a failed write. earliest is the tightest
// per-record deadline among them (zero when none was attached).
func (b *RecBatcher) writeBatch(batch []*[]byte, earliest time.Time) error {
	var err error
	if b.PreWrite != nil {
		err = b.PreWrite(earliest)
	}
	if err == nil {
		size := 0
		for _, bp := range batch {
			b.vec = appendFramed(b.vec, *bp, maxFragPayload)
			size += len(*bp)
		}
		switch {
		case len(b.vec) == 1:
			_, err = b.w.Write(b.vec[0])
		case size <= coalesceLimit:
			b.coal = b.coal[:0]
			for _, v := range b.vec {
				b.coal = append(b.coal, v...)
			}
			_, err = b.w.Write(b.coal)
		default:
			b.bufs = b.vec
			_, err = b.bufs.WriteTo(b.w)
		}
		clear(b.vec) // keep no reference to a buffer about to be released
		b.vec = b.vec[:0]
		if err != nil {
			err = fmt.Errorf("xdr: write record batch: %w", err)
		}
	}
	for _, bp := range batch {
		PutBuf(bp)
	}
	return err
}
