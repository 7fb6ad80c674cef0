//go:build !race

// lendUnder is twenty microseconds of wall clock, which the echo handler
// does not fit under the race detector.

package server

import (
	"testing"

	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// TestServeTCPClosedLoopWakesNobody: the first call of a connection is
// handed off (nothing is known about its handler yet), which starts the
// connection's one worker; every call after it runs under a lent token
// on the goroutine that read it, so a thousand calls start no second
// one. A machine busy enough to stretch two handlers in a row past
// lendUnder can make the token change hands while the goroutine it came
// from is still on its way to park, and that does start a worker: the
// property is looked for on three connections before it is missed.
func TestServeTCPClosedLoopWakesNobody(t *testing.T) {
	defer testutil.NoLeak(t)()
	s := newTestServer()
	defer s.Close()
	spawned := 0
	for try := 0; try < 3; try++ {
		peer, c, stop := lentConn(t, s)
		echoRoundTrips(t, peer, xdr.NewRecStream(peer, 0), 1, 1000)
		stop()
		if c.lent.Load() {
			t.Fatal("stream over with the token still lent")
		}
		if spawned = c.spawned; spawned <= 1 {
			return
		}
	}
	t.Fatalf("%d workers started for a closed-loop peer, want at most 1", spawned)
}
