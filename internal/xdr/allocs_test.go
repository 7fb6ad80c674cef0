//go:build !race

// Exact allocation counts do not hold under the race detector: sync.Pool
// drops a quarter of its puts there on purpose, and instrumented code
// escapes more.

package xdr

import (
	"io"
	"testing"
)

// TestReadRecordAllocFree: with a window to parse marks from and stream
// scratch for GetLong, reading into a caller's buffer allocates nothing
// per record (the mark used to escape to the heap on every one).
func TestReadRecordAllocFree(t *testing.T) {
	src := &loopReader{frame: frame(pattern(80, 1))}
	r := NewRecStream(&rwPair{Reader: src}, 0)
	dst := make([]byte, 0, 128)
	var v int32
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.ReadRecord(dst); err != nil {
			t.Fatal(err)
		}
		if err := r.GetLong(&v); err != nil {
			t.Fatal(err)
		}
		if err := r.SkipRecord(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per ReadRecord+GetLong+SkipRecord, want 0", allocs)
	}
}

// TestRecBatcherQueueArraysRecycle: the batcher swaps two queue arrays
// between flushes instead of regrowing one from nil after each (an
// allocation per record on both ends of every connection), frames into
// write scratch it keeps, and neither the arrays nor the scratch keep a
// pointer to a buffer that went back to the pool.
func TestRecBatcherQueueArraysRecycle(t *testing.T) {
	b := NewRecBatcher(io.Discard)
	payload := []byte("12345678")
	round := func() {
		for i := 0; i < 3; i++ {
			if err := b.Queue(pooled(payload)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Write(pooled(payload)); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("%.1f allocs per 4-record flush, want 0", allocs)
	}
	if n := retained(b); n != 0 {
		t.Errorf("%d queue or write-vector slots still reference a written buffer", n)
	}
}
