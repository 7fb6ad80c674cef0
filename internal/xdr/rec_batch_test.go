package xdr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
)

// queueWire writes each payload through QueueRecord+Flush and returns
// the wire bytes plus the number of Write calls it took.
func queueWire(t *testing.T, payloads [][]byte, flushEvery int) ([]byte, int) {
	t.Helper()
	var cw countingWriter
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: io.MultiWriter(&cw, &wire)}, 0)
	for i, p := range payloads {
		if err := w.QueueRecord(preframed(p)); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
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

// TestQueueRecordOpenRecordRejected: queued mode cannot interleave with
// an open incremental record (its fragments may already be on the wire).
func TestQueueRecordOpenRecordRejected(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 0)
	if err := w.PutLong(1); err != nil {
		t.Fatal(err)
	}
	if err := w.QueueRecord(preframed([]byte("x"))); err == nil {
		t.Fatal("QueueRecord on an open record succeeded; framing would corrupt")
	}
	if err := w.EndRecord(); err != nil {
		t.Fatal(err)
	}
	if err := w.QueueRecord(preframed([]byte("x"))); err != nil {
		t.Fatalf("QueueRecord after EndRecord: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

type failingWriter struct{ err error }

func (f *failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestFlushStickyError: a failed flush poisons the stream and discards
// later queued records instead of retaining their buffers.
func TestFlushStickyError(t *testing.T) {
	boom := errors.New("boom")
	w := NewRecStream(&rwPair{Writer: &failingWriter{boom}}, 0)
	if err := w.QueueRecord(preframed([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush error = %v, want %v", err, boom)
	}
	if err := w.QueueRecord(preframed([]byte("b"))); !errors.Is(err, boom) {
		t.Fatalf("QueueRecord after failure = %v, want sticky %v", err, boom)
	}
	if n, _ := w.Queued(); n != 0 {
		t.Fatalf("%d records retained after sticky error", n)
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
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: lockedTee}, 0))
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
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: &cw}, 0))
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
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: &failingWriter{boom}}, 0))
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
			b := NewRecBatcher(NewRecStream(&rwPair{Writer: io.MultiWriter(&cw, &wire)}, 0))
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
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: io.MultiWriter(&cw, &wire)}, 0))
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
	b := NewRecBatcher(NewRecStream(&rwPair{Writer: failing}, 0))
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
