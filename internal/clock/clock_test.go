package clock

import (
	"slices"
	"testing"
	"time"
)

// TestTimerResetStopReport: a Fake's timer answers Reset and Stop as a
// *time.Timer from time.AfterFunc does — pending, stopped, pending again,
// fired — so code written against the real timer's results reads the
// same on the fake.
func TestTimerResetStopReport(t *testing.T) {
	fake := NewFake()
	for _, tc := range []struct {
		name string
		clk  Clock
		fire func(fired <-chan struct{}) // lets a timer armed for a millisecond fire
	}{
		{"real", Real{}, func(fired <-chan struct{}) { <-fired }},
		{"fake", fake, func(fired <-chan struct{}) { fake.Advance(time.Millisecond); <-fired }},
	} {
		fired := make(chan struct{}, 1)
		tm := tc.clk.AfterFunc(time.Hour, func() { fired <- struct{}{} })
		for i, step := range []struct {
			op   func() bool
			want bool
		}{
			{tm.Stop, true},  // pending
			{tm.Stop, false}, // stopped
			{func() bool { return tm.Reset(time.Hour) }, false},       // stopped, now pending
			{func() bool { return tm.Reset(time.Millisecond) }, true}, // pending
			{func() bool { tc.fire(fired); return tm.Stop() }, false}, // fired
			{func() bool { return tm.Reset(time.Hour) }, false},       // fired, now pending
			{tm.Stop, true},
		} {
			if got := step.op(); got != step.want {
				t.Errorf("%s: step %d reported %v, want %v", tc.name, i, got, step.want)
			}
		}
	}
}

// TestFakeFiresInDeadlineOrder: Advance fires what falls due, earliest
// deadline first and equal deadlines in the order they were armed, with
// Now reading each timer's deadline while it runs; a timer stopped or
// pushed past the end stays unfired, and one re-armed by a callback
// fires again if it falls inside the same Advance.
func TestFakeFiresInDeadlineOrder(t *testing.T) {
	f := NewFake()
	start := f.Now()
	type firing struct {
		name string
		at   time.Duration
	}
	var got []firing
	arm := func(name string, d time.Duration) Timer {
		return f.AfterFunc(d, func() { got = append(got, firing{name, f.Now().Sub(start)}) })
	}
	arm("c", 3*time.Millisecond)
	arm("a", time.Millisecond)
	arm("b1", 2*time.Millisecond)
	arm("b2", 2*time.Millisecond)
	arm("stopped", time.Millisecond).Stop()
	arm("pushed", time.Millisecond).Reset(time.Hour)
	var again Timer
	again = f.AfterFunc(1500*time.Microsecond, func() {
		got = append(got, firing{"again", f.Now().Sub(start)})
		if len(got) < 4 {
			again.Reset(time.Millisecond)
		}
	})

	f.Advance(3 * time.Millisecond)
	want := []firing{
		{"a", time.Millisecond},
		{"again", 1500 * time.Microsecond},
		{"b1", 2 * time.Millisecond},
		{"b2", 2 * time.Millisecond},
		{"again", 2500 * time.Microsecond},
		{"c", 3 * time.Millisecond},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if d := f.Since(start); d != 3*time.Millisecond {
		t.Fatalf("clock at %v after advancing 3ms", d)
	}
	got = nil
	f.Advance(time.Hour)
	if want := []firing{{"pushed", time.Hour}}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}
