// Package clock is where the stream read sides take their time from:
// the server's lend rule (how long a handler ran, when the watchdog
// fires) and the client's idle watch. In production that is package time
// (Real); a test hands the transport a Fake instead, whose time moves
// only when the test advances it, so a pin of what a quick connection
// costs holds however slow the machine runs it.
//
// Network deadlines are not here: the kernel enforces them on its own
// clock, which no fake reaches.
package clock

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Clock reads the time and arms timers.
type Clock interface {
	Now() time.Time
	// Since is Now().Sub(t). Real's reads only the monotonic clock, as
	// time.Since does: about half the cost of Now (56 ns against 104 on
	// a 2-vCPU host whose clock reads are slow).
	Since(t time.Time) time.Duration
	// AfterFunc calls f once d has passed, as time.AfterFunc does.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a timer AfterFunc armed; Reset and Stop report what
// *time.Timer's do: whether the timer was pending.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// Real is the wall clock.
type Real struct{}

func (Real) Now() time.Time { return time.Now() }

func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Fake is a clock that stands still until Advance moves it. Its timers
// fire inside Advance, in deadline order (those due at the same moment
// in the order they were armed), each on the goroutine that called
// Advance and with Now reading its deadline while it runs; a callback
// that would block must start a goroutine of its own. Safe for
// concurrent use.
type Fake struct {
	mu      sync.Mutex // guards now, seq, pending
	now     time.Time
	seq     uint64
	pending []*fakeTimer
}

// NewFake returns a Fake standing at a fixed instant.
func NewFake() *Fake { return &Fake{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)} }

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer {
	t := &fakeTimer{clock: f, f: fn}
	t.Reset(d)
	return t
}

// Advance moves the clock d forward, firing every timer that falls due
// on the way.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	end := f.now.Add(d)
	for len(f.pending) > 0 && !f.pending[0].when.After(end) {
		t := f.pending[0]
		f.pending = f.pending[1:]
		f.now = t.when
		f.mu.Unlock()
		t.f()
		f.mu.Lock()
	}
	f.now = end
	f.mu.Unlock()
}

type fakeTimer struct {
	clock *Fake
	f     func()
	when  time.Time // set under clock.mu, as is seq
	seq   uint64    // when it was armed: the order among equal deadlines
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	f := t.clock
	f.mu.Lock()
	defer f.mu.Unlock()
	was := f.unpendLocked(t)
	f.seq++
	t.when, t.seq = f.now.Add(d), f.seq
	i, _ := slices.BinarySearchFunc(f.pending, t, func(a, b *fakeTimer) int {
		return cmp.Or(a.when.Compare(b.when), cmp.Compare(a.seq, b.seq))
	})
	f.pending = slices.Insert(f.pending, i, t)
	return was
}

func (t *fakeTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	return t.clock.unpendLocked(t)
}

// unpendLocked takes t off the pending list and reports whether it was
// there.
func (f *Fake) unpendLocked(t *fakeTimer) bool {
	i := slices.Index(f.pending, t)
	if i < 0 {
		return false
	}
	f.pending = slices.Delete(f.pending, i, i+1)
	return true
}
