package server

import (
	"testing"
	"time"

	"specrpc/internal/clock"
)

// The lend rule on its own, on a clock that moves only when told: how a
// connection that lost its lent token is lent to again, and how each
// call's time decides whether the next one is.

// newRule returns a lend rule on a fake clock, set up as a connection's
// is; *handedOn counts the tokens its watchdog handed on.
func newRule() (r *lendRule, clk *clock.Fake, handedOn *int) {
	r, clk, handedOn = &lendRule{}, clock.NewFake(), new(int)
	r.init(clk, func() { *handedOn++ })
	return r, clk, handedOn
}

// TestLendRuleLendsAgainAfterLendAgain: a lent call blocks, and the
// watchdog takes the token lendLimit later, at T. However quick the calls
// after it, nothing read before T + lendAgain is lent, and the first read
// after that is.
func TestLendRuleLendsAgainAfterLendAgain(t *testing.T) {
	for _, tc := range []struct {
		read time.Duration // after T
		lent bool
	}{
		{0, false},
		{lendLimit, false},
		{lendAgain - time.Nanosecond, false},
		{lendAgain, false},
		{lendAgain + time.Nanosecond, true},
		{2 * lendAgain, true},
	} {
		r, clk, handedOn := newRule()
		r.timed(clk.Now()) // a quick first call, handed off
		r.readReturned()
		if !r.mayLend() {
			t.Fatal("a read after a quick call is not lent to")
		}
		began := r.lendBegins()
		clk.Advance(lendLimit) // T
		if *handedOn != 1 {
			t.Fatalf("the watchdog handed the token on %d times, want once", *handedOn)
		}
		if r.lendEnds(began) {
			t.Fatal("the lender took back a token the watchdog had taken")
		}
		if !r.slow.Load() {
			t.Fatal("a call that held the token for lendLimit did not mark the connection slow")
		}
		r.timed(clk.Now()) // a quick call, handed off
		clk.Advance(tc.read)
		r.readReturned()
		if got := r.mayLend(); got != tc.lent {
			t.Errorf("read at T+%v: lent %v, want %v", tc.read, got, tc.lent)
		}
	}
}

// TestLendRuleTimesEveryCall: a call that runs longer than lendUnder —
// handed off, or lent and so timed from the read that brought it, with
// the calls of its burst before it — marks the connection slow, and one
// that runs no longer does not; the next quick call, handed off as a
// slow connection's calls are, clears the mark.
func TestLendRuleTimesEveryCall(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lent  bool
		burst []time.Duration // calls of one read, in order
		slow  bool
	}{
		{"handed off, no time", false, []time.Duration{0}, false},
		{"handed off, lendUnder", false, []time.Duration{lendUnder}, false},
		{"handed off, lendUnder+1ns", false, []time.Duration{lendUnder + time.Nanosecond}, true},
		{"lent, no time", true, []time.Duration{0}, false},
		{"lent, lendUnder", true, []time.Duration{lendUnder}, false},
		{"lent, lendUnder+1ns", true, []time.Duration{lendUnder + time.Nanosecond}, true},
		{"lent burst, lendUnder", true, []time.Duration{lendUnder / 2, lendUnder / 2}, false},
		{"lent burst, lendUnder+1ns", true, []time.Duration{lendUnder / 2, lendUnder/2 + time.Nanosecond}, true},
	} {
		r, clk, handedOn := newRule()
		handedOff := func(took time.Duration) {
			start := clk.Now()
			clk.Advance(took)
			r.timed(start)
		}
		if tc.lent {
			handedOff(0)
			r.readReturned()
			for _, took := range tc.burst {
				if !r.mayLend() {
					t.Fatalf("%s: a call of a quick burst is not lent to", tc.name)
				}
				began := r.lendBegins()
				clk.Advance(took)
				if !r.lendEnds(began) || *handedOn != 0 {
					t.Fatalf("%s: the watchdog took the token of a call shorter than lendLimit", tc.name)
				}
			}
		} else {
			handedOff(tc.burst[0])
		}
		if got := r.slow.Load(); got != tc.slow {
			t.Errorf("%s: slow %v, want %v", tc.name, got, tc.slow)
		}
		handedOff(0)
		if r.readReturned(); !r.mayLend() {
			t.Errorf("%s: a quick call did not clear the mark", tc.name)
		}
	}
}
