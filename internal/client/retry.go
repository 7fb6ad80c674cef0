package client

// Retry policy, backoff schedule, and the token-bucket retry budget —
// the production call semantics around doCall. The policy decides how a
// datagram call retransmits (exponential backoff with full jitter
// instead of the classic fixed tick) and how a stream client behaves
// when its connection breaks (which failures are safe to retry, how
// redialing backs off). The budget is the storm brake: retries spend
// from a per-client token bucket refilled at a bounded rate, so a
// failing server sees client load decay toward the refill rate instead
// of multiplying by the retry count. See DESIGN.md, "Failure semantics
// and retry policy".

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy configures retransmission, call retry, and reconnect
// backoff for one client. The zero value of each field selects the
// documented default; Config.Retry == nil keeps the legacy behavior
// (fixed Retransmit tick over UDP, no call retry over TCP).
type RetryPolicy struct {
	// MaxAttempts bounds the total send attempts per call, including the
	// first (default 4). Over UDP, reaching the bound stops further
	// retransmissions but the call keeps waiting for a straggling reply
	// until its deadline: the deadline owns the call's lifetime, the
	// attempt bound owns its network load. Over TCP it bounds how many
	// times a call may be re-sent across reconnects, and how many dial
	// attempts one reconnect makes.
	MaxAttempts int
	// BaseDelay is the first backoff interval (default 50ms; over UDP a
	// zero BaseDelay inherits Config.Retransmit so existing retransmit
	// tuning carries over). Attempt k waits a uniformly random duration
	// in (0, min(MaxDelay, BaseDelay·2^(k-1))] — "full jitter", which
	// decorrelates the retry storms of many clients hitting the same
	// fault.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 2s).
	MaxDelay time.Duration
	// RetryAmbiguous permits retrying stream calls whose request may
	// have reached the server (the connection died after the record was
	// handed to the wire, before a reply arrived). Retrying such a call
	// can execute it twice, so this must only be set when the procedures
	// issued through the client are idempotent. Calls that provably
	// never left (the batcher rejected the record before queueing it)
	// are always safe and always eligible.
	RetryAmbiguous bool
	// BudgetRate is the sustained retries-per-second the token bucket
	// refills at (default 10; negative disables budgeting entirely).
	// Every retransmission, call retry, and redial attempt spends one
	// token; with the bucket empty the retry is suppressed and counted
	// (RetryStats.BudgetDenied) instead of amplifying overload.
	BudgetRate float64
	// BudgetBurst is the bucket capacity — the retries a quiet client
	// may burst before the rate limit binds (default 32).
	BudgetBurst int
}

// norm returns the policy with defaults filled in. retransmit seeds
// BaseDelay for datagram clients (their legacy knob); pass 0 elsewhere.
func (p *RetryPolicy) norm(retransmit time.Duration) RetryPolicy {
	q := *p
	if q.MaxAttempts <= 0 {
		q.MaxAttempts = 4
	}
	if q.BaseDelay <= 0 {
		q.BaseDelay = retransmit
	}
	if q.BaseDelay <= 0 {
		q.BaseDelay = 50 * time.Millisecond
	}
	if q.MaxDelay <= 0 {
		q.MaxDelay = 2 * time.Second
	}
	if q.BudgetRate == 0 {
		q.BudgetRate = 10
	}
	if q.BudgetBurst <= 0 {
		q.BudgetBurst = 32
	}
	return q
}

// delay computes the backoff before send attempt+1, with attempt 1 the
// first retry: full jitter over an exponentially growing ceiling.
func (p *RetryPolicy) delay(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if d <= 0 {
		return time.Millisecond
	}
	return time.Duration(rand.Int63n(int64(d))) + 1
}

// retryBudget is the token bucket retries spend from. A nil budget
// always admits (no policy, or BudgetRate < 0).
type retryBudget struct {
	mu     sync.Mutex // guards tokens, last
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

func newRetryBudget(p *RetryPolicy) *retryBudget {
	if p == nil || p.BudgetRate < 0 {
		return nil
	}
	return &retryBudget{
		tokens: float64(p.BudgetBurst),
		last:   time.Now(),
		rate:   p.BudgetRate,
		burst:  float64(p.BudgetBurst),
	}
}

// take spends one token, reporting false — the retry must be
// suppressed — when the bucket is empty.
func (b *retryBudget) take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// RetryStats counts a client's retry-path events.
type RetryStats struct {
	// Retransmits is the datagram re-sends beyond each call's first.
	Retransmits uint64
	// Retries is the stream calls re-attempted after a transport
	// failure classified as retryable.
	Retries uint64
	// BudgetDenied is the retransmissions and retries suppressed
	// because the token-bucket budget was empty.
	BudgetDenied uint64
}

// ReconnectStats counts a stream client's transparent-reconnect events.
type ReconnectStats struct {
	// Reconnects is the replacement connections successfully installed.
	Reconnects uint64
	// RedialFailures is the dial attempts that failed (each backs off
	// under the retry policy before the next).
	RedialFailures uint64
}

// TransportError reports a transport-level call failure on a stream
// client with reconnect enabled, carrying the execution ambiguity the
// retry layer decided on: MaybeSent == false means the request
// provably never reached the wire (safe to retry, and the client
// already retried it as far as the policy allowed); MaybeSent == true
// means the record was handed to the connection before it died, so the
// server may have executed the call even though no reply arrived —
// only the caller can decide whether re-issuing is safe (see
// RetryPolicy.RetryAmbiguous for making that decision per client).
type TransportError struct {
	Err       error
	MaybeSent bool
}

func (e *TransportError) Error() string {
	if e.MaybeSent {
		return fmt.Sprintf("client: transport failed after send (execution unknown): %v", e.Err)
	}
	return fmt.Sprintf("client: transport failed before send: %v", e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// callDeadline resolves a call's absolute deadline: the earlier of the
// context deadline and now+timeout. fromCtx reports that the context's
// own deadline is the bound, so its expiry is the context's error to
// report whichever timer notices first.
func callDeadline(ctx context.Context, timeout time.Duration) (dl time.Time, fromCtx bool) {
	dl = time.Now().Add(timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(dl) {
		return cd, true
	}
	return dl, false
}
