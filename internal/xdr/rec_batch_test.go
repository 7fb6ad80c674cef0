package xdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
)

// queueWire hands each payload to a RecBatcher with Queue, flushing
// after every flushEvery records (0: only at the end), and returns the
// wire bytes plus the number of Write calls they took.
func queueWire(t *testing.T, payloads [][]byte, flushEvery int) ([]byte, int) {
	t.Helper()
	var cw countingWriter
	var wire bytes.Buffer
	b := NewRecBatcher(io.MultiWriter(&cw, &wire))
	for i, p := range payloads {
		if err := b.Queue(pooled(p)); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes(), cw.writes
}

// TestQueueRecordWireIdentical: batched+flushed bytes on the wire equal
// the same records written one WriteRecord at a time, at every batch
// size, including batches past the coalesce limit (the writev path).
func TestQueueRecordWireIdentical(t *testing.T) {
	payloads := [][]byte{
		[]byte("alpha"), {}, []byte("gamma-gamma"),
		bytes.Repeat([]byte{0xAB}, DefaultFragmentSize+17), // big final fragment
		[]byte("tail"),
		bytes.Repeat([]byte{0x5C}, coalesceLimit), // pushes a batch past coalescing
	}
	var want bytes.Buffer
	uw := NewRecStream(&rwPair{Writer: &want}, 0)
	for _, p := range payloads {
		if err := uw.WriteRecord(preframed(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, every := range []int{0, 1, 2, len(payloads)} {
		got, _ := queueWire(t, payloads, every)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("flushEvery=%d: wire bytes diverge from WriteRecord", every)
		}
	}
}

// TestFlushSingleWrite: a batch of records at or under the coalesce
// limit leaves in exactly one Write call.
func TestFlushSingleWrite(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	_, writes := queueWire(t, payloads, 0)
	if writes != 1 {
		t.Fatalf("flush of %d queued records issued %d writes, want 1", len(payloads), writes)
	}
}

// TestAppendFramedSplits: a payload longer than the fragment limit
// leaves as fragments of at most limit bytes, only the last one final,
// and reads back as the one record; one within the limit is framed as
// WriteRecord frames it.
func TestAppendFramedSplits(t *testing.T) {
	payload := pattern(16, 3)
	var wire bytes.Buffer
	bufs := net.Buffers(appendFramed(nil, preframed(payload), 5))
	if _, err := bufs.WriteTo(&wire); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, frag := range [][]byte{payload[:5], payload[5:10], payload[10:15], payload[15:]} {
		mark := []byte{0, 0, 0, byte(len(frag))}
		if i == 3 {
			mark[0] = 0x80 // the last fragment
		}
		want = append(append(want, mark...), frag...)
	}
	if !bytes.Equal(wire.Bytes(), want) {
		t.Fatalf("16 bytes at limit 5:\n got %x\nwant %x", wire.Bytes(), want)
	}
	got, err := NewRecStream(&rwPair{Reader: &wire}, 0).ReadRecord(nil)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back %x, %v; want %x", got, err, payload)
	}

	for limit := 1; limit <= 17; limit++ {
		for n := 0; n <= 20; n++ {
			payload := pattern(n, byte(limit))
			var wire, single bytes.Buffer
			bufs := net.Buffers(appendFramed(nil, preframed(payload), limit))
			if _, err := bufs.WriteTo(&wire); err != nil {
				t.Fatal(err)
			}
			if n <= limit {
				if err := NewRecStream(&rwPair{Writer: &single}, 0).WriteRecord(preframed(payload)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wire.Bytes(), single.Bytes()) {
					t.Fatalf("%d bytes at limit %d: %x, WriteRecord wrote %x", n, limit, wire.Bytes(), single.Bytes())
				}
			}
			if frags, wantFrags := (wire.Len()-n)/RecordMarkLen, max(1, (n+limit-1)/limit); frags != wantFrags {
				t.Fatalf("%d bytes at limit %d: %d fragments, want %d", n, limit, frags, wantFrags)
			}
			got, err := NewRecStream(&rwPair{Reader: &wire}, 0).ReadRecord(nil)
			if err != nil || !bytes.Equal(got, payload) || wire.Len() != 0 {
				t.Fatalf("%d bytes at limit %d: read back %x, %v, %d bytes left", n, limit, got, err, wire.Len())
			}
		}
	}
}

type failingWriter struct{ err error }

func (f *failingWriter) Write([]byte) (int, error) { return 0, f.err }

// retained counts the slots of b's queue arrays and write vector that
// still reference a buffer. Every buffer goes back to the pool once its
// batch is written or dropped, so any count above zero is a pooled
// buffer the batcher can still reach.
func retained(b *RecBatcher) int {
	n := 0
	for _, q := range [][]*[]byte{b.pend, b.spare} {
		for _, bp := range q[:cap(q)] {
			if bp != nil {
				n++
			}
		}
	}
	for _, v := range b.vec[:cap(b.vec)] {
		if v != nil {
			n++
		}
	}
	return n
}

// TestFlushStickyError: a failed flush poisons the batcher, rejects the
// records handed in after it, and retains no buffer, written or not.
func TestFlushStickyError(t *testing.T) {
	boom := errors.New("boom")
	b := NewRecBatcher(&failingWriter{boom})
	for _, p := range []string{"a", "b"} {
		if err := b.Queue(pooled([]byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want %v", err, boom)
	}
	if err := b.Queue(pooled([]byte("c"))); !errors.Is(err, ErrRejected) || !errors.Is(err, boom) {
		t.Fatalf("Queue after failure = %v, want ErrRejected wrapping %v", err, boom)
	}
	if n := b.Pending(); n != 0 {
		t.Fatalf("%d records pending after sticky error", n)
	}
	if n := retained(b); n != 0 {
		t.Fatalf("%d buffers still referenced after sticky error", n)
	}
}

// TestRecBatcherShortBuffer: a buffer with no room for the record mark
// is refused with an error, not a panic, and refused alone: nothing was
// written, so the batcher carries on.
func TestRecBatcherShortBuffer(t *testing.T) {
	var wire bytes.Buffer
	b := NewRecBatcher(&wire)
	short := GetBuf(RecordMarkLen - 1)
	*short = (*short)[:RecordMarkLen-1]
	if err := b.Write(short); err == nil {
		t.Fatal("accepted a buffer shorter than the record mark")
	}
	if err := b.Write(pooled([]byte("next"))); err != nil {
		t.Fatalf("Write after a refused buffer: %v", err)
	}
	if got, err := NewRecStream(&rwPair{Reader: &wire}, 0).ReadRecord(nil); err != nil || string(got) != "next" {
		t.Fatalf("read back %q, %v; want %q", got, err, "next")
	}
}

// pooled returns a pooled buffer pre-framed with payload.
func pooled(payload []byte) *[]byte {
	bp := GetBuf(RecordMarkLen + len(payload))
	*bp = append(append((*bp)[:0], make([]byte, RecordMarkLen)...), payload...)
	return bp
}

// TestRecBatcherCoalesces: concurrent writers sharing one batcher
// produce the exact per-record wire stream with strictly fewer Write
// calls than records once writers contend.
func TestRecBatcherCoalesces(t *testing.T) {
	const writers, perWriter = 8, 50
	var cw countingWriter
	var wire bytes.Buffer
	var mu sync.Mutex
	lockedTee := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		cw.Write(p)
		return wire.Write(p)
	})
	b := NewRecBatcher(lockedTee)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := b.Write(pooled([]byte(fmt.Sprintf("w%d-%d", w, i)))); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewRecStream(&rwPair{Reader: &wire}, 0)
	for i := 0; i < writers*perWriter; i++ {
		rec, err := r.ReadRecord(nil)
		if err != nil {
			t.Fatalf("after %d records: %v", i, err)
		}
		if len(rec) == 0 {
			t.Fatalf("record %d empty", i)
		}
	}
	if wire.Len() != 0 {
		t.Fatalf("%d trailing bytes after the expected records", wire.Len())
	}
	if cw.writes > writers*perWriter {
		t.Fatalf("%d writes for %d records: batcher split records", cw.writes, writers*perWriter)
	}
	t.Logf("%d records in %d writes", writers*perWriter, cw.writes)
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestRecBatcherQueueWatermark: Queue alone does not write, up to one
// byte short of DefaultBatchWatermark queued; the record that reaches
// it flushes everything queued without an explicit Write/Flush.
func TestRecBatcherQueueWatermark(t *testing.T) {
	var cw countingWriter
	b := NewRecBatcher(&cw)
	first := pooled(bytes.Repeat([]byte{1}, 16))
	queued := len(*first)
	if err := b.Queue(first); err != nil {
		t.Fatal(err)
	}
	short := DefaultBatchWatermark - 1 - queued - RecordMarkLen
	if err := b.Queue(pooled(bytes.Repeat([]byte{2}, short))); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 0 || b.Pending() != 2 {
		t.Fatalf("Queue under watermark: %d writes, %d pending, want 0 and 2", cw.writes, b.Pending())
	}
	if err := b.Queue(pooled(nil)); err != nil {
		t.Fatal(err)
	}
	if cw.writes == 0 || b.Pending() != 0 {
		t.Fatalf("Queue past watermark: %d writes, %d pending, want some and 0", cw.writes, b.Pending())
	}
}

// TestRecBatcherErrorPropagates: the first failure surfaces on the
// flushing call, fires OnError exactly once, and poisons later writes.
func TestRecBatcherErrorPropagates(t *testing.T) {
	boom := errors.New("peer gone")
	b := NewRecBatcher(&failingWriter{boom})
	fired := 0
	b.OnError = func(err error) {
		fired++
		if !errors.Is(err, boom) {
			t.Errorf("OnError got %v", err)
		}
	}
	if err := b.Write(pooled([]byte("a"))); !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want %v", err, boom)
	}
	if err := b.Write(pooled([]byte("b"))); !errors.Is(err, boom) {
		t.Fatalf("second Write = %v, want sticky %v", err, boom)
	}
	if fired != 1 {
		t.Fatalf("OnError fired %d times", fired)
	}
	// Flush with nothing queued stays nil so Close is idempotent.
	if err := b.Flush(); err != nil {
		t.Fatalf("empty Flush after failure = %v, want nil", err)
	}
}

// TestRecBatcherLoneWriterOneWrite: a writer nobody is about to join
// pays exactly one write per record and the wire bytes match the
// per-record WriteRecord stream — with no MoreWriters and with one that
// answers false.
func TestRecBatcherLoneWriterOneWrite(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte("bb"), {}, []byte("dddd")}
	var want bytes.Buffer
	uw := NewRecStream(&rwPair{Writer: &want}, 0)
	for _, p := range payloads {
		if err := uw.WriteRecord(preframed(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		configure func(b *RecBatcher, asked *int)
		wantAsked int
	}{
		{"nil predicate", func(*RecBatcher, *int) {}, 0},
		{"predicate false", func(b *RecBatcher, asked *int) {
			b.MoreWriters = func() bool { *asked++; return false }
		}, len(payloads)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cw countingWriter
			var wire bytes.Buffer
			b := NewRecBatcher(io.MultiWriter(&cw, &wire))
			asked := 0
			tc.configure(b, &asked)
			for i, p := range payloads {
				if err := b.Write(pooled(p)); err != nil {
					t.Fatal(err)
				}
				if cw.writes != i+1 {
					t.Fatalf("after %d uncontended Writes: %d syscalls, want %d", i+1, cw.writes, i+1)
				}
			}
			if !bytes.Equal(wire.Bytes(), want.Bytes()) {
				t.Fatal("wire bytes diverge from WriteRecord")
			}
			if asked != tc.wantAsked {
				t.Fatalf("MoreWriters asked %d times, want %d", asked, tc.wantAsked)
			}
		})
	}
}

// yieldRound is one burst on b: followers goroutines that are runnable,
// their Write not yet begun, at the moment the calling goroutine's Write
// claims the flush. It needs the single P its callers set: closing the
// gate readies the followers without running them, so the leader reaches
// its claim first and only its yield lets them in. It returns each
// follower's Write error after all of them have returned.
func yieldRound(b *RecBatcher, followers int) (leaderErr error, followerErrs []error) {
	gate := make(chan struct{})
	followerErrs = make([]error, followers)
	var parked, done sync.WaitGroup
	for i := 0; i < followers; i++ {
		parked.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			parked.Done()
			<-gate
			followerErrs[i] = b.Write(pooled([]byte(fmt.Sprintf("follower-%d", i))))
		}(i)
	}
	parked.Wait()
	close(gate)
	leaderErr = b.Write(pooled([]byte("leader")))
	done.Wait()
	return leaderErr, followerErrs
}

// TestRecBatcherYieldPicksUpRunnableFollowers: a leader told that more
// writers are coming yields once, and the writers that were runnable at
// its claim leave in its write. One yield is one trip through the run
// queue, not a barrier — the scheduler may hand the leader back early
// now and then — so the pin is the average over many bursts, loose
// enough for that and an order of magnitude from the one record per
// write the same bursts cost without the yield.
func TestRecBatcherYieldPicksUpRunnableFollowers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const followers, rounds = 8, 50
	var cw countingWriter
	var wire bytes.Buffer
	b := NewRecBatcher(io.MultiWriter(&cw, &wire))
	b.MoreWriters = func() bool { return true }
	for i := 0; i < rounds; i++ {
		lerr, ferrs := yieldRound(b, followers)
		for _, err := range append(ferrs, lerr) {
			if err != nil {
				t.Fatalf("round %d: Write: %v", i, err)
			}
		}
	}
	if n := b.Pending(); n != 0 {
		t.Fatalf("%d records left queued after every writer returned", n)
	}
	records := rounds * (followers + 1)
	r := NewRecStream(&rwPair{Reader: &wire}, 0)
	for i := 0; i < records; i++ {
		if _, err := r.ReadRecord(nil); err != nil {
			t.Fatalf("after %d of %d records: %v", i, records, err)
		}
	}
	if wire.Len() != 0 {
		t.Fatalf("%d trailing bytes after the expected records", wire.Len())
	}
	t.Logf("%d records in %d writes", records, cw.writes)
	if cw.writes*3 > records {
		t.Fatalf("%d records left in %d writes: the leader is not picking up runnable followers (want >= 3 records per write)",
			records, cw.writes)
	}
}

// TestRecBatcherYieldError: a write that fails after the yield fails
// the whole batcher exactly as an unyielded one does — OnError fires
// once, the followers that queued behind the claim have their buffers
// recycled rather than stranded, and later writers are rejected.
func TestRecBatcherYieldError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	boom := errors.New("peer gone")
	var cw countingWriter
	failing := writerFunc(func(p []byte) (int, error) {
		cw.Write(p)
		return 0, boom
	})
	b := NewRecBatcher(failing)
	b.MoreWriters = func() bool { return true }
	fired := 0
	b.OnError = func(err error) {
		fired++
		if !errors.Is(err, boom) {
			t.Errorf("OnError got %v", err)
		}
	}
	lerr, ferrs := yieldRound(b, 8)
	// Whoever led got the failure; a follower either queued behind the
	// claim and returned before the write (nil) or came after it failed.
	sawBoom := errors.Is(lerr, boom)
	for i, err := range ferrs {
		sawBoom = sawBoom || errors.Is(err, boom)
		if err != nil && !errors.Is(err, boom) {
			t.Errorf("follower %d: Write = %v, want nil or %v", i, err, boom)
		}
	}
	if !sawBoom {
		t.Fatal("no writer saw the write failure")
	}
	if cw.writes != 1 {
		t.Fatalf("%d writes reached the failed stream, want 1", cw.writes)
	}
	if fired != 1 {
		t.Fatalf("OnError fired %d times, want 1", fired)
	}
	if n := b.Pending(); n != 0 {
		t.Fatalf("%d records stranded behind the failure", n)
	}
	if err := b.Write(pooled([]byte("late"))); !errors.Is(err, ErrRejected) {
		t.Fatalf("Write after failure = %v, want ErrRejected", err)
	}
}
