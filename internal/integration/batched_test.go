package integration

import (
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// Batched-call coverage over the real stack: the fire-and-forget calls
// must execute on a live server once the terminal call flushes them.
// That batching changes syscall counts and never framing is pinned by
// the client's TestBatchedWireIdentical.

// waitForExecs polls until the server-side execution counter reaches
// want: batched calls carry no reply, so the terminal call's return
// only proves their records were *read*, not that their handlers have
// finished.
func waitForExecs(t *testing.T, execs *atomic.Int32, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for execs.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("server executed %d calls, want %d", execs.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPBatchedCallsExecuteOnServer drives CallBatched end to end: the
// queued calls reach a real server and run, the terminal call returns
// the correct echo, and nothing is lost across several groups.
func TestTCPBatchedCallsExecuteOnServer(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s, execs := newEchoServer()
	c := dialTCPServer(t, s)

	const groups, perGroup = 5, 7
	arr := []int32{1, 2, 3}
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			if err := c.CallBatched(procEcho, echoArgs(&arr)); err != nil {
				t.Fatalf("group %d CallBatched %d: %v", g, i, err)
			}
		}
		var out []int32
		err := c.Call(procEcho, echoArgs(&arr), func(x *xdr.XDR) error {
			return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long)
		})
		if err != nil {
			t.Fatalf("group %d terminal Call: %v", g, err)
		}
		if len(out) != len(arr) {
			t.Fatalf("group %d echo length %d, want %d", g, len(out), len(arr))
		}
	}
	waitForExecs(t, execs, groups*(perGroup+1))
}
