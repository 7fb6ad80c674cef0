//go:build !race

package bench

import (
	"testing"
	"time"
)

// What the reply half of a connection's traffic costs in writes. Both
// bounds are loose, for different reasons: a closed-loop burst has one
// writer and one write, but a burst that a stall stretches past
// lendUnder fans out from there; and how many replies a yielding leader
// collects from concurrent callers is the scheduler's to decide. They
// are calibrated without the race detector, under which eight handlers
// never fit lendUnder and fewer handlers have finished when a leader
// comes back (0.38 and 0.40 measured under it); the pins in
// batch_test.go run there.

// TestBatchTCPCallsServerWrites: the reply half of the burst. A group's
// eight records arrive in one read on a quick connection, so the
// server's token holder runs all eight and writes their replies once,
// and the client's terminal call reads all eight in one read: 0.125 of
// each per call, which a hundred runs of a thousand groups read as
// 0.1250 to 0.1269, median 0.1253 (0.146 and 0.130 when every burst
// fanned out to a yielding leader, 0.84 before the yield). A thread
// stalled for lendLimit under a lent token has the connection handed off
// for lendAgain, which is longer than a run: the count is looked for on
// three runs before it is missed. A busy machine stalls threads in
// spells that outlast one run (0.1318 on all three tries run back to
// back), so a try that missed is followed by a pause — a second, then
// two — and one spell cannot fail all three.
func TestBatchTCPCallsServerWrites(t *testing.T) {
	var res BatchResult
	for try := 0; try < 3; try++ {
		if try > 0 {
			time.Sleep(time.Second << (try - 1))
		}
		res = runBatch(t, BatchOptions{Transport: "tcp", Mode: "calls",
			Clients: 1, Depth: 1, Calls: 8000})
		if res.ServerWritesPerOp <= 0.13 && res.ClientReadsPerOp <= 0.13 {
			return
		}
	}
	t.Fatalf("calls-mode server writes/op = %v and client reads/op = %v, want <= 0.13: a closed-loop burst is not staying on one goroutine",
		res.ServerWritesPerOp, res.ClientReadsPerOp)
}

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
