package bench

import (
	"math"
	"testing"
)

// The syscalls/op pins here are counter-based and deterministic where
// the mode's arithmetic is scheduling-independent: a lone caller issues
// exactly one write per call on both sides, "calls" exactly one client
// write per batchGroup, "oneway" exactly one of everything per
// batchGroup. (The scheduler-dependent server-write bounds are in
// batch_yield_test.go.)

func runBatch(t *testing.T, o BatchOptions) BatchResult {
	t.Helper()
	res, err := Batch(o)
	if err != nil {
		t.Fatalf("Batch(%+v): %v", o, err)
	}
	return res
}

// TestBatchTCPLoneCallWritesPerOp: a lone caller has nobody to share a
// write with, so every call is exactly one client write and one server
// write — the one write per record the other rows are read against.
func TestBatchTCPLoneCallWritesPerOp(t *testing.T) {
	res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "on",
		Clients: 1, Depth: 1, Calls: 64})
	if res.ClientWritesPerOp != 1.0 {
		t.Fatalf("lone-caller client writes/op = %v, want exactly 1.0", res.ClientWritesPerOp)
	}
	if res.ServerWritesPerOp != 1.0 {
		t.Fatalf("lone-caller server writes/op = %v, want exactly 1.0", res.ServerWritesPerOp)
	}
	checkReadsPerOp(t, res, 1.0)
}

// checkReadsPerOp pins the record layer's read-ahead from the outside,
// counted on both ends: a record costs at most one read that delivered
// bytes (it was two — mark, then payload — before the window), and a
// burst that left in one write costs one for all of it.
func checkReadsPerOp(t *testing.T, res BatchResult, bound float64) {
	t.Helper()
	if res.ServerReadsPerOp <= 0 || res.ClientReadsPerOp <= 0 {
		t.Fatalf("%s: read counters missing: srvR/op=%v cliR/op=%v", res.Mode, res.ServerReadsPerOp, res.ClientReadsPerOp)
	}
	if res.ServerReadsPerOp > bound {
		t.Errorf("%s depth %d: server reads/op = %v, want <= %v", res.Mode, res.Depth, res.ServerReadsPerOp, bound)
	}
	if res.ClientReadsPerOp > 1.0 {
		t.Errorf("%s depth %d: client reads/op = %v, want <= 1.0", res.Mode, res.Depth, res.ClientReadsPerOp)
	}
}

// TestBatchTCPCallsWritesPerOp: ONC batched calls are deterministic —
// batchGroup-1 queued records and the terminal call leave in one
// coalesced write, so writes/op is exactly 1/batchGroup at any depth
// (driveBatch issues a group atomically per connection; without that a
// neighbour's terminal call flushes half a group and the count drifts).
// This is the depth>=4 syscall-reduction pin of the acceptance
// criteria, counted rather than timed. The server picks a group up with
// the record layer's read-ahead, so its reads/op fall with the writes.
func TestBatchTCPCallsWritesPerOp(t *testing.T) {
	for _, depth := range []int{1, 4} {
		res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "calls",
			Clients: 1, Depth: depth, Calls: 64})
		want := 1.0 / batchGroup
		if math.Abs(res.ClientWritesPerOp-want) > 1e-9 {
			t.Fatalf("depth %d: calls-mode client writes/op = %v, want exactly %v",
				depth, res.ClientWritesPerOp, want)
		}
		if res.ClientWritesPerOp >= 1.0 {
			t.Fatalf("depth %d: no reduction vs one write per record (%v >= 1.0)",
				depth, res.ClientWritesPerOp)
		}
		checkReadsPerOp(t, res, 0.5)
	}
}

// TestBatchTCPOneWayExact: with the batched calls one-way a group is one
// request write, one server read, one reply write and one client read,
// whatever the scheduler does — there is only one reply to write.
func TestBatchTCPOneWayExact(t *testing.T) {
	for _, depth := range []int{1, 4} {
		res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "oneway",
			Clients: 1, Depth: depth, Calls: 64})
		want := 1.0 / batchGroup
		for _, c := range []struct {
			name string
			got  float64
		}{
			{"client writes", res.ClientWritesPerOp}, {"server reads", res.ServerReadsPerOp},
			{"server writes", res.ServerWritesPerOp}, {"client reads", res.ClientReadsPerOp},
		} {
			if c.got != want {
				t.Errorf("depth %d: oneway-mode %s/op = %v, want exactly %v", depth, c.name, c.got, want)
			}
		}
	}
}

// TestBatchTCPOnBounded: group-commit coalescing never writes more than
// once per record (each record leaves in exactly one flush), so even
// under adversarial scheduling writes/op is bounded by one.
func TestBatchTCPOnBounded(t *testing.T) {
	res := runBatch(t, BatchOptions{Transport: "tcp", Mode: "on",
		Clients: 2, Depth: 4, Calls: 400})
	if res.ClientWritesPerOp > 1.0 {
		t.Fatalf("on-mode client writes/op = %v, exceeds the one-write-per-record bound",
			res.ClientWritesPerOp)
	}
	if res.ClientWritesPerOp <= 0 {
		t.Fatalf("on-mode client writes/op = %v, counters not wired", res.ClientWritesPerOp)
	}
	checkReadsPerOp(t, res, 1.0)
}

// TestBatchUDPModes: the datagram mode runs end to end over real
// loopback sockets and reports server-side counters from the batch-I/O
// layer; each recvmmsg/recvfrom call yields at least one message, so
// reads/op can never exceed ~1, and each reply is one WriteTo, so
// writes/op can't either (retransmissions aside). A reply is counted
// before its write is made, so every reply a caller holds is counted by
// the time its call returns: writes/op is at least exactly 1.
func TestBatchUDPModes(t *testing.T) {
	res := runBatch(t, BatchOptions{Transport: "udp", Mode: "on",
		Clients: 2, Depth: 4, Calls: 200})
	if res.ServerReadsPerOp <= 0 || res.ServerWritesPerOp <= 0 {
		t.Fatalf("server counters missing: reads/op=%v writes/op=%v",
			res.ServerReadsPerOp, res.ServerWritesPerOp)
	}
	if res.ServerReadsPerOp > 1.1 {
		t.Fatalf("server reads/op = %v, above the one-message-per-call bound", res.ServerReadsPerOp)
	}
	if res.ServerWritesPerOp < 1 || res.ServerWritesPerOp > 1.1 {
		t.Fatalf("server writes/op = %v, want one WriteTo per reply", res.ServerWritesPerOp)
	}
}

// TestBatchOptionValidation: calls mode is stream-only and unknown
// modes — "off" among them, whose switches are gone — are rejected
// rather than silently measured as something else.
func TestBatchOptionValidation(t *testing.T) {
	for _, mode := range []string{"calls", "oneway"} {
		if _, err := Batch(BatchOptions{Transport: "udp", Mode: mode}); err == nil {
			t.Fatalf("udp %s accepted; want error", mode)
		}
	}
	for _, mode := range []string{"bogus", "off"} {
		if _, err := Batch(BatchOptions{Transport: "tcp", Mode: mode}); err == nil {
			t.Fatalf("mode %q accepted; want error", mode)
		}
	}
}

// TestFormatBatch smoke-checks the table renderer.
func TestFormatBatch(t *testing.T) {
	out := FormatBatch([]BatchResult{{
		Transport: "tcp", Mode: "calls", Clients: 1, Depth: 4,
		Calls: 64, ClientWritesPerOp: 0.125,
	}})
	if out == "" {
		t.Fatal("empty table")
	}
}
