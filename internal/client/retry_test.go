package client

// Regression tests for the fault-tolerance layer: the per-call write
// deadline (a nearly-expired call must not wedge the shared connection
// for a whole fresh Timeout), Close interrupting backoff/redial sleeps,
// the token-bucket retry budget, and a fused-codec call surviving a
// mid-call reconnect byte-identically.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"specrpc/internal/netsim"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/wire"
)

// writeObserver reports the first Write error on a wrapped conn, so a
// test can see when a stalled write actually unblocked.
type writeObserver struct {
	net.Conn
	wrote chan error
}

func (o *writeObserver) Write(p []byte) (int, error) {
	n, err := o.Conn.Write(p)
	if err != nil {
		select {
		case o.wrote <- err:
		default:
		}
	}
	return n, err
}

// TestTCPWriteDeadlineFromCallBudget pins the satellite bugfix: the
// batcher used to arm the connection's write deadline with a full
// cfg.Timeout on every write, so a call with 80ms of budget left could
// block the shared connection for 10s against a stalled peer. The
// deadline must come from the earliest per-call deadline in the batch.
func TestTCPWriteDeadlineFromCallBudget(t *testing.T) {
	p1, p2 := net.Pipe()
	defer p2.Close() // never read: every write stalls until its deadline
	obs := &writeObserver{Conn: p1, wrote: make(chan error, 1)}
	c := NewTCP(obs, Config{Prog: 1, Vers: 1, FirstXID: 10, Timeout: 10 * time.Second})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.CallCtx(ctx, 1, Void, Void)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a stalled peer succeeded")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("call took %v: write deadline was not derived from the call budget", elapsed)
	}
	select {
	case <-obs.wrote:
		// The stalled write itself unblocked at the per-call deadline.
	case <-time.After(3 * time.Second):
		t.Fatal("stalled write still blocked 3s after an 80ms call budget expired")
	}
}

// TestCloseInterruptsRetryBackoff pins the second satellite bugfix:
// Close must wake a client sleeping in retry backoff or redial backoff
// immediately (the sleeps select on the lifecycle's done channel), not
// after the jittered delay finishes.
func TestCloseInterruptsRetryBackoff(t *testing.T) {
	p1, p2 := net.Pipe()
	_ = p2.Close() // the connection is dead from the start
	dialErr := errors.New("dial refused")
	c := NewTCP(p1, Config{
		Prog: 1, Vers: 1, FirstXID: 10,
		Timeout: 30 * time.Second,
		Retry: &RetryPolicy{
			MaxAttempts:    1000,
			BaseDelay:      5 * time.Second,
			MaxDelay:       5 * time.Second,
			RetryAmbiguous: true,
			BudgetRate:     -1,
		},
		Redial: func() (net.Conn, error) { return nil, dialErr },
	})

	callDone := make(chan error, 1)
	go func() { callDone <- c.Call(1, Void, Void) }()
	time.Sleep(100 * time.Millisecond) // let the call fail and enter backoff

	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v mid-backoff, want immediate", took)
	}
	select {
	case err := <-callDone:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("interrupted call returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call still sleeping 2s after Close")
	}
}

// TestRetryBudgetSuppressesRetransmits: with the token bucket drained,
// further retransmissions are counted as denied instead of sent — the
// storm brake under sustained failure.
func TestRetryBudgetSuppressesRetransmits(t *testing.T) {
	n := netsim.New()
	n.Partition("", "") // total black hole
	_ = n.Attach("server")
	c := NewUDP(n.Attach("client"), netsim.Addr("server"), Config{
		Prog: 1, Vers: 1, FirstXID: 10,
		Timeout: 400 * time.Millisecond,
		Retry: &RetryPolicy{
			MaxAttempts: 50,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
			BudgetRate:  0.001, // effectively no refill during the test
			BudgetBurst: 2,
		},
	})
	defer c.Close()

	if err := c.Call(1, Void, Void); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	st := c.Snapshot()
	if st.Retransmits == 0 {
		t.Fatal("no retransmits before the budget drained")
	}
	if st.Retransmits > 2 {
		t.Fatalf("%d retransmits leaked past a burst-2 budget", st.Retransmits)
	}
	if st.BudgetDenied == 0 {
		t.Fatal("drained budget never denied a retransmit")
	}
}

// readRecord accumulates stream bytes until one complete record-marked
// message is buffered, and returns it (mark included).
func readRecord(conn net.Conn) ([]byte, error) {
	var buf []byte
	tmp := make([]byte, 4096)
	for {
		if len(buf) >= 4 {
			size := int(binary.BigEndian.Uint32(buf) & 0x7fffffff)
			if len(buf) >= 4+size {
				return buf[:4+size], nil
			}
		}
		n, err := conn.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			return buf, err
		}
	}
}

// teeConn captures everything written through it.
type teeConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (tc *teeConn) Write(p []byte) (int, error) {
	tc.mu.Lock()
	tc.buf.Write(p)
	tc.mu.Unlock()
	return tc.Conn.Write(p)
}

func (tc *teeConn) captured() []byte {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]byte(nil), tc.buf.Bytes()...)
}

// TestFusedCallSurvivesReconnectByteIdentical: a typed call on the
// fused whole-call codec is sent, the connection dies before any reply,
// and the transparent retry re-sends it on a fresh connection. The
// retried request record must be byte-identical to the original except
// for the XID — same cached template, same fused codec, no
// recompilation drift across the reconnect.
func TestFusedCallSurvivesReconnectByteIdentical(t *testing.T) {
	// Real echo server for the second (successful) attempt.
	srv := server.New()
	server.RegisterTyped(srv, fusedProg, fusedVers, fusedProc, fusedArgPlan, fusedArgPlan,
		func(arg *[]int32) (*[]int32, error) { return arg, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = srv.ServeTCP(ln) }()
	defer srv.Close()

	// First connection: a pipe to a peer that captures one request
	// record and slams the connection shut without replying.
	p1, p2 := net.Pipe()
	firstRec := make(chan []byte, 1)
	go func() {
		rec, _ := readRecord(p2)
		firstRec <- rec
		_ = p2.Close()
	}()

	var tee *teeConn
	c := NewTCP(p1, Config{
		Prog: fusedProg, Vers: fusedVers, FirstXID: 4000,
		Timeout: 5 * time.Second,
		Retry: &RetryPolicy{
			MaxAttempts:    4,
			BaseDelay:      time.Millisecond,
			MaxDelay:       5 * time.Millisecond,
			RetryAmbiguous: true, // the echo is idempotent
			BudgetRate:     -1,
		},
		Redial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			tee = &teeConn{Conn: conn}
			return tee, nil
		},
	})
	defer c.Close()

	in := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	var out []int32
	if err := CallTyped(c, fusedProc, fusedArgPlan, &in, fusedArgPlan, &out); err != nil {
		t.Fatalf("call across reconnect: %v", err)
	}
	if len(out) != len(in) || out[0] != 3 || out[7] != 6 {
		t.Fatalf("bad echo after reconnect: %v", out)
	}
	st := c.Snapshot()
	if r := procRung(t, st, fusedProc); r != wire.RungFused {
		t.Fatalf("call ran on the %v rung", r)
	}
	if st.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", st.Reconnects)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}

	first := <-firstRec
	second := tee.captured()
	if len(first) < 8 || len(second) < len(first) {
		t.Fatalf("captured records too short: first=%d second=%d", len(first), len(second))
	}
	second = second[:len(first)] // the retried call is the only record sent
	// Record mark (length) identical, XID advanced, body identical.
	if !bytes.Equal(first[:4], second[:4]) {
		t.Fatalf("record marks differ: % x vs % x", first[:4], second[:4])
	}
	if bytes.Equal(first[4:8], second[4:8]) {
		t.Fatal("retried call reused the original XID")
	}
	if !bytes.Equal(first[8:], second[8:]) {
		t.Fatal("retried request body diverged from the original: codec state not reused byte-identically")
	}
}

// TestTransportErrorClassification: a connection that dies after the
// request was handed to the wire must surface MaybeSent=true without a
// redial configured... with one, and RetryAmbiguous unset, the failure
// still surfaces rather than being silently replayed.
func TestTransportErrorAmbiguousSurfaces(t *testing.T) {
	p1, p2 := net.Pipe()
	go func() {
		_, _ = readRecord(p2) // swallow the request
		_ = p2.Close()        // die without replying
	}()
	dialed := make(chan struct{}, 4)
	c := NewTCP(p1, Config{
		Prog: 1, Vers: 1, FirstXID: 20,
		Timeout: 2 * time.Second,
		Retry: &RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			BudgetRate:  -1,
			// RetryAmbiguous deliberately false.
		},
		Redial: func() (net.Conn, error) {
			dialed <- struct{}{}
			return nil, errors.New("unreachable")
		},
	})
	defer c.Close()

	err := c.Call(1, Void, Void)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransportError", err)
	}
	if !te.MaybeSent {
		t.Fatal("request reached the wire but MaybeSent = false")
	}
	select {
	case <-dialed:
		t.Fatal("ambiguous failure was retried without RetryAmbiguous")
	default:
	}
}

// TestRedialWaitEndsAsTheCallEnds: a call that finds another caller's
// redial under way waits for it on its own deadline, and when that
// passes the call ends as any other wait of it would — ErrTimeout when
// the bound was the client's Timeout, the context's error when it was
// the context's. The wait used to arm a timer of its own beside the
// call's and report ErrTimeout whenever that one won the select.
func TestRedialWaitEndsAsTheCallEnds(t *testing.T) {
	defer testutil.NoLeak(t)()
	p1, p2 := net.Pipe()
	defer p2.Close()
	dialing, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c := NewTCP(p1, Config{Prog: 1, Vers: 1, Timeout: 150 * time.Millisecond,
		Redial: func() (net.Conn, error) {
			once.Do(func() { close(dialing) })
			<-hold
			return nil, errors.New("dial refused")
		}})
	c.current().dmx.fail(errors.New("link died"))

	redialer := make(chan error, 1)
	go func() { redialer <- c.Call(1, Void, Void) }()
	<-dialing // every later call now waits behind this one's redial

	for i := 0; i < 10; i++ { // both timers are due at once: the error must not ride on which fires
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := c.CallCtx(ctx, 1, Void, Void)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTimeout) {
			t.Fatalf("context-bound wait ended with %v, want context.DeadlineExceeded", err)
		}
	}
	start := time.Now()
	if err := c.Call(1, Void, Void); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Timeout-bound wait ended with %v, want ErrTimeout", err)
	}
	if took := time.Since(start); took < 150*time.Millisecond || took > 3*time.Second {
		t.Fatalf("Timeout-bound wait took %v against a 150ms Timeout", took)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if err := c.CallCtx(ctx, 1, Void, Void); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait ended with %v, want context.Canceled", err)
	}

	close(hold)
	_ = c.Close()
	if err := <-redialer; err == nil {
		t.Fatal("the redialing call succeeded against a dial that always fails")
	}
}
