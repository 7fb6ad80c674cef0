//go:build !race

// The counts hold only at full speed: under the race detector a burst's
// replies fan out to workers and leave in several writes.

package integration

import (
	"testing"

	"specrpc/internal/testutil"
)

// procIO reads the process's read and write syscall counts, skipping
// the test where /proc/self/io cannot be read.
func procIO(t *testing.T) (reads, writes uint64) {
	t.Helper()
	reads, writes, err := readProcIO()
	if err != nil {
		t.Skipf("no syscall counts: %v", err)
	}
	return reads, writes
}

// TestStreamCallSyscalls pins the read and write syscalls of serial
// calls through the committed stubs over loopback TCP, client and server
// together, process-wide: what the record layer's read-ahead window,
// its one-Write records and the batcher's coalesced writes cost. Each
// side reads a record and then meets an empty socket once before it
// parks, so a lone call costs 4 reads and 2 writes; a record larger
// than the window costs each side one more read for its tail; a burst
// of 7 CallBatched and a terminal call leaves in one write, is read in
// one, and is answered by one reply. The bounds leave room for a read
// that finds its data already there (fewer), for the few reads of
// /proc/self/io itself and for the runtime waking its poller (an
// eventfd write and read), not for a layer that reads or writes more
// per record. Serial by design: never t.Parallel.
func TestStreamCallSyscalls(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	procIO(t)

	tcp, stubs := shapeOverTCP(t)

	for _, tc := range []struct {
		name             string
		op               func() error
		calls            int // per op
		maxRead, maxWrit float64
	}{
		{"Scale(20)", scaleOp(stubs, 20), 1, 4.2, 2.1},
		{"Scale(2000)", scaleOp(stubs, 2000), 1, 6.2, 2.1},
		{"7 CallBatched + Sum", burstOp(tcp, stubs), 8, 0.6, 0.3},
	} {
		const ops = 400
		for i := 0; i < 50; i++ { // fill the pools, settle the connection
			if err := tc.op(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		r0, w0 := procIO(t)
		for i := 0; i < ops; i++ {
			if err := tc.op(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		r1, w1 := procIO(t)
		n := float64(ops * tc.calls)
		reads, writes := float64(r1-r0)/n, float64(w1-w0)/n
		t.Logf("%s: %.3f reads, %.3f writes per call", tc.name, reads, writes)
		if reads > tc.maxRead || writes > tc.maxWrit {
			t.Errorf("%s: %.3f reads and %.3f writes per call, want at most %.2f and %.2f",
				tc.name, reads, writes, tc.maxRead, tc.maxWrit)
		}
	}
}
