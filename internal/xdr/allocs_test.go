//go:build !race

// Exact allocation counts do not hold under the race detector: sync.Pool
// drops a quarter of its puts there on purpose, and instrumented code
// escapes more.

package xdr

import (
	"io"
	"testing"
)

// TestReadRecordAllocFree: with a window to parse marks from, reading
// records of several fragments into a caller's buffer allocates nothing
// per record (the mark used to escape to the heap on every one).
func TestReadRecordAllocFree(t *testing.T) {
	src := &loopReader{frame: fragmented(pattern(80, 1), 24)}
	r := NewRecStream(&rwPair{Reader: src}, 0)
	dst := make([]byte, 0, 128)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.ReadRecord(dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per ReadRecord, want 0", allocs)
	}
}

// TestWriteRecordAllocFree: WriteRecord frames a record through the
// batcher's framing routine and writes it without allocating.
func TestWriteRecordAllocFree(t *testing.T) {
	w := NewRecStream(&rwPair{Writer: io.Discard}, 0)
	buf := preframed(pattern(80, 2))
	if allocs := testing.AllocsPerRun(200, func() {
		if err := w.WriteRecord(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per WriteRecord, want 0", allocs)
	}
}

// TestRecBatcherQueueArraysRecycle: the batcher swaps two queue arrays
// between flushes instead of regrowing one from nil after each (an
// allocation per record on both ends of every connection), frames into
// write scratch it keeps — the write vector of a batch past
// coalesceLimit too, which leaves vectored — and neither the arrays nor
// the scratch keep a pointer to a buffer that went back to the pool.
func TestRecBatcherQueueArraysRecycle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int // payloads: all but the last queued, the last written
	}{
		{"4 small records", []int{8, 8, 8, 8}},
		{"64 KiB batch", []int{32<<10 - 8, 32<<10 - 8}}, // queued under the watermark
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewRecBatcher(io.Discard)
			var payloads [][]byte
			for i, n := range tc.sizes {
				payloads = append(payloads, pattern(n, byte(i)))
			}
			last := len(payloads) - 1
			round := func() {
				for _, p := range payloads[:last] {
					if err := b.Queue(pooled(p)); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.Write(pooled(payloads[last])); err != nil {
					t.Fatal(err)
				}
			}
			round()
			round()
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Errorf("%.1f allocs per %d-record flush, want 0", allocs, len(tc.sizes))
			}
			if n := retained(b); n != 0 {
				t.Errorf("%d queue or write-vector slots still reference a written buffer", n)
			}
		})
	}
}
