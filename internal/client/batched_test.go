package client

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// Batched-call (CallBatched) coverage: the differential wire-bytes pin
// and the error/flush semantics — queued calls leave with the terminal
// Call, with Flush, and with Close, and a dead peer surfaces on the
// flushing call instead of a timeout.

// batchedCfg returns a config with a deterministic XID seed so the
// wire bytes of its calls are known in advance.
func batchedCfg() Config {
	return Config{Prog: 0x20000999, Vers: 1, FirstXID: 700, Timeout: 5 * time.Second}
}

// batchedArg is the argument every batchedWire call carries.
const batchedArg = uint32(0xDEADBEEF)

// batchedWire runs n CallBatched + Flush against a pipe and returns
// every byte the peer saw.
func batchedWire(t *testing.T, n int) []byte {
	t.Helper()
	p1, p2 := net.Pipe()
	var mu sync.Mutex
	var wire bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			k, err := p2.Read(buf)
			mu.Lock()
			wire.Write(buf[:k])
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	c := NewTCP(p1, batchedCfg())
	v := batchedArg
	args := func(x *xdr.XDR) error { return x.Uint32(&v) }
	for i := 0; i < n; i++ {
		if err := c.CallBatched(5, args); err != nil {
			t.Fatalf("CallBatched %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	return append([]byte(nil), wire.Bytes()...)
}

// TestBatchedWireIdentical is the differential pin of the acceptance
// criteria: batched-and-flushed calls put byte-identical records on the
// wire as the same calls marshaled by CallHeader and framed one record
// at a time by RecStream.WriteRecord, and the stream parses back into
// exactly the queued record count.
func TestBatchedWireIdentical(t *testing.T) {
	const calls = 3
	batched := batchedWire(t, calls)
	var unbatched bytes.Buffer
	wrec := xdr.NewRecStream(&unbatched, 0)
	cfg := batchedCfg()
	for i := 0; i < calls; i++ {
		var bs xdr.BufStream
		bs.SetBuffer(make([]byte, xdr.RecordMarkLen)) // keep room for the record mark
		enc := xdr.NewEncoder(&bs)
		hdr := rpcmsg.CallHeader{XID: cfg.FirstXID + 1 + uint32(i), Prog: cfg.Prog, Vers: cfg.Vers, Proc: 5}
		v := batchedArg
		if err := hdr.Marshal(enc); err != nil {
			t.Fatal(err)
		}
		if err := enc.Uint32(&v); err != nil {
			t.Fatal(err)
		}
		if err := wrec.WriteRecord(bs.Buffer()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(batched, unbatched.Bytes()) {
		t.Fatalf("wire bytes diverge: batched %d bytes, framed one at a time %d bytes",
			len(batched), unbatched.Len())
	}
	r := xdr.NewRecStream(readOnly{bytes.NewReader(batched)}, 0)
	for i := 0; i < calls; i++ {
		rec, err := r.ReadRecord(nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if xid, ok := rpcmsg.PeekXID(rec); !ok || xid != uint32(700+1+i) {
			t.Fatalf("record %d: xid %d ok=%v, want %d", i, xid, ok, 700+1+i)
		}
	}
}

// readOnly adapts a reader into the ReadWriter NewRecStream wants.
type readOnly struct{ *bytes.Reader }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }

// replyTo frames and writes an accepted-success reply carrying result.
func replyTo(wrec *xdr.RecStream, xid, result uint32) error {
	var bs xdr.BufStream
	bs.SetBuffer(make([]byte, xdr.RecordMarkLen)) // keep room for the record mark
	enc := xdr.NewEncoder(&bs)
	rh := rpcmsg.AcceptedReply(xid)
	if err := rh.Marshal(enc); err != nil {
		return err
	}
	if err := enc.Uint32(&result); err != nil {
		return err
	}
	return wrec.WriteRecord(bs.Buffer())
}

// TestCallBatchedFlushedByTerminalCall: three queued batched calls must
// reach the peer before the terminal Call's own record, all in the
// flush the terminal call forces; the terminal call completes normally.
func TestCallBatchedFlushedByTerminalCall(t *testing.T) {
	p1, p2 := net.Pipe()
	defer p2.Close()
	c := NewTCP(p1, batchedCfg())
	defer c.Close()

	const batchedCalls = 3
	go func() {
		rrec := xdr.NewRecStream(p2, 0)
		wrec := xdr.NewRecStream(p2, 0)
		var lastXID uint32
		for i := 0; i < batchedCalls+1; i++ {
			rec, err := rrec.ReadRecord(nil)
			if err != nil {
				t.Errorf("peer read %d: %v", i, err)
				return
			}
			if xid, ok := rpcmsg.PeekXID(rec); ok {
				lastXID = xid
			}
		}
		// All four records arrived; answer only the terminal call.
		if err := replyTo(wrec, lastXID, 42); err != nil {
			t.Errorf("peer reply: %v", err)
		}
	}()

	v := uint32(7)
	args := func(x *xdr.XDR) error { return x.Uint32(&v) }
	for i := 0; i < batchedCalls; i++ {
		if err := c.CallBatched(5, args); err != nil {
			t.Fatalf("CallBatched %d: %v", i, err)
		}
	}
	var got uint32
	err := c.Call(5, args, func(x *xdr.XDR) error { return x.Uint32(&got) })
	if err != nil {
		t.Fatalf("terminal Call: %v", err)
	}
	if got != 42 {
		t.Fatalf("terminal Call result = %d, want 42", got)
	}
}

// TestCallBatchedFlushedByClose: Close must push queued batched calls
// onto the wire before tearing the connection down.
func TestCallBatchedFlushedByClose(t *testing.T) {
	p1, p2 := net.Pipe()
	defer p2.Close()
	c := NewTCP(p1, batchedCfg())

	const batchedCalls = 3
	records := make(chan int, 1)
	go func() {
		rrec := xdr.NewRecStream(p2, 0)
		n := 0
		for {
			if _, err := rrec.ReadRecord(nil); err != nil {
				records <- n
				return
			}
			n++
		}
	}()

	v := uint32(9)
	args := func(x *xdr.XDR) error { return x.Uint32(&v) }
	for i := 0; i < batchedCalls; i++ {
		if err := c.CallBatched(5, args); err != nil {
			t.Fatalf("CallBatched %d: %v", i, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := <-records; got != batchedCalls {
		t.Fatalf("peer saw %d records before close, want %d", got, batchedCalls)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
}

// TestBatchedFailingTerminalCall: with the peer gone, the terminal call
// that flushes the queue must surface the transport failure promptly —
// not a timeout — and the failure must stick for later batched calls.
func TestBatchedFailingTerminalCall(t *testing.T) {
	p1, p2 := net.Pipe()
	c := NewTCP(p1, batchedCfg())
	defer c.Close()

	v := uint32(1)
	args := func(x *xdr.XDR) error { return x.Uint32(&v) }
	for i := 0; i < 2; i++ {
		if err := c.CallBatched(5, args); err != nil {
			t.Fatalf("CallBatched %d: %v", i, err)
		}
	}
	p2.Close()

	start := time.Now()
	err := c.Call(5, args, Void)
	if err == nil {
		t.Fatal("terminal Call on a dead peer succeeded")
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("terminal Call timed out instead of surfacing the write error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("terminal Call took %v to fail", elapsed)
	}
	if err := c.CallBatched(5, args); err == nil {
		t.Fatal("CallBatched after transport failure succeeded")
	}
}
