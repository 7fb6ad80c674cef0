// Package testutil holds assertions shared by the transport and codec
// tests.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// NoLeak notes how many goroutines exist and returns the assertion to
// run once the test has closed everything it started: the count must
// settle back to that baseline. Goroutines exit a moment after the Close
// that releases them returns (a reader sees its socket closed, a parked
// worker its channel), so the check polls before it fails, and when it
// fails it prints every stack, which is where the leak is named. Use as
//
//	defer testutil.NoLeak(t)()
//
// ahead of the defers that close things, so that it runs after them. It
// counts the whole process: not for tests that run in parallel.
func NoLeak(t testing.TB) (check func()) {
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("%d goroutines, %d when the test began; stacks:\n%s", runtime.NumGoroutine(), base, buf)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}
