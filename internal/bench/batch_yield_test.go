//go:build !race

package bench

import "testing"

// What the reply half of a connection's traffic costs in writes. The
// bound is loose: how many replies a yielding leader collects from
// concurrent callers is the scheduler's to decide. It is calibrated
// without the race detector, under which fewer handlers have finished
// when a leader comes back; the pins in batch_test.go run there. The
// closed-loop burst's pin, TestBatchTCPCallsServerWrites, runs in
// internal/server on a clock that stands still.

// TestBatchTCPOnGroupCommits: at 2 connections x 8 callers the server's
// group commit coalesces — a finishing handler that sees others in
// flight yields, and they queue behind it: 0.34 server writes per call
// measured. Without the yield this row read 0.98, a null.
func TestBatchTCPOnGroupCommits(t *testing.T) {
	res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "on",
		Clients: 2, Depth: 8, Calls: 8000})
	if res.ServerWritesPerOp > 0.75 {
		t.Fatalf("on-mode server writes/op at 2x8 = %v, want <= 0.75: group commit is not coalescing",
			res.ServerWritesPerOp)
	}
}
