package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	ct "specrpc/internal/compiledtest"
)

// The traced pass changes no product code: it interposes timestamping and
// counting shims around the product, a net.Conn or net.PacketConn under
// each client, a net.Listener under ServeTCP, and a wrapper around the
// benchmark's own handlers. A caller has one operation in flight on its
// own connection, so every stamp taken between the caller's t0 and t9
// belongs to that operation, the stamps are contiguous, and the stage
// durations of an operation sum to t9-t0 exactly.
//
//	t0 stub entry             t5 handler return
//	t1 client write entry     t6 server reply-write entry
//	t2 client write return    t7 server reply-write return
//	t3 server read return     t8 client read return
//	t4 handler entry          t9 stub return, reply verified
//
// t1-t2 and t6-t7 lie inside the two network legs; they are reported as
// the write_syscall child spans and are not part of the sum.

// epoch anchors the monotonic clock every stamp is read from.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

const (
	stageSend = iota
	stageRequestLeg
	stageDispatch
	stageHandler
	stageReplyPath
	stageBurst
	stageReplyLeg
	stageRecv
	nStages
)

// traceStyle says which stamps bound a workload's stages.
type traceStyle uint8

const (
	// styleStream: one request record, one reply record; all ten stamps.
	styleStream traceStyle = iota
	// styleDatagram: the server's socket stays unwrapped (a wrapper would
	// switch off recvmmsg), so there is no t3 or t6: the network legs run
	// to handler entry and from handler return, and the two server path
	// stages read 0.
	styleDatagram
	// styleBurst: one write carries 8 requests whose handlers overlap, so
	// the server stages collapse into server.burst_ns, from the first
	// request byte read to the last reply write begun before the caller's
	// reply arrived.
	styleBurst
)

// slot holds the stamps shims and handlers take for a caller's current
// operation. They run on other goroutines than the caller, hence atomics;
// the caller reads them after its stub has returned.
type slot struct {
	cliWriteIn    atomic.Int64 // t1: first write of the op (0 = not yet)
	srvReadFirst  atomic.Int64 // styleBurst t3 (0 = not yet)
	srvReadLast   atomic.Int64 // styleStream t3
	handlerIn     atomic.Int64 // t4
	handlerOut    atomic.Int64 // t5
	srvWriteIn    atomic.Int64 // t6, latest
	srvWriteAtRsp atomic.Int64 // styleBurst t6: srvWriteIn as of the latest client read
	cliReadOut    atomic.Int64 // t8, latest

	// Child spans and counts, summed over the window.
	cliWriteNs, srvWriteNs          atomic.Int64
	cliWrites, cliReads, cliRecords atomic.Int64
	srvWrites, srvReads             atomic.Int64

	// Owned by the caller's goroutine.
	stageNs   [nStages]int64
	opNs      int64
	ops       int64
	anomalies int64       // ops whose stamps were out of order; left out of the sums
	stamps    [][10]int64 // t0..t9 of the first ops, kept for -trace-out
}

// maxSpanOps bounds the operations per caller whose stamps are kept for
// the span dump, so that the traced pass holds little more memory than
// the untraced one.
const maxSpanOps = 2000

// tracer is the state of one traced pass.
type tracer struct {
	style  traceStyle
	slots  []*slot
	byAddr sync.Map // client local address -> *slot, for the listener shim
}

func newTracer(w *workload) *tracer {
	tr := &tracer{style: w.style, slots: make([]*slot, w.callers)}
	for i := range tr.slots {
		tr.slots[i] = &slot{stamps: make([][10]int64, 0, maxSpanOps)}
	}
	return tr
}

// reset clears the sums after warm-up, so that they cover the timed
// window only.
func (tr *tracer) reset() {
	for _, s := range tr.slots {
		for _, c := range []*atomic.Int64{&s.cliWriteIn, &s.srvReadFirst,
			&s.cliWriteNs, &s.srvWriteNs, &s.cliWrites, &s.cliReads, &s.cliRecords, &s.srvWrites, &s.srvReads} {
			c.Store(0)
		}
		s.stageNs, s.opNs, s.ops, s.anomalies, s.stamps = [nStages]int64{}, 0, 0, 0, s.stamps[:0]
	}
}

// stageBounds gives the stamps that open and close each stage of a style;
// a stage the style does not have is {0, 0}.
var stageBounds = [...][nStages][2]int{
	styleStream:   {{0, 1}, {1, 3}, {3, 4}, {4, 5}, {5, 6}, {}, {6, 8}, {8, 9}},
	styleDatagram: {{0, 1}, {1, 4}, {}, {4, 5}, {}, {}, {5, 8}, {8, 9}},
	styleBurst:    {{0, 1}, {1, 3}, {}, {}, {}, {3, 6}, {6, 8}, {8, 9}},
}

// finishOp closes the operation that ran from t0 to t9 on s.
func (tr *tracer) finishOp(s *slot, t0, t9 int64) {
	t := [10]int64{0: t0, 1: s.cliWriteIn.Swap(0), 4: s.handlerIn.Load(), 5: s.handlerOut.Load(), 8: s.cliReadOut.Load(), 9: t9}
	switch tr.style {
	case styleStream:
		t[3], t[6] = s.srvReadLast.Load(), s.srvWriteIn.Load()
	case styleBurst:
		t[3], t[6] = s.srvReadFirst.Swap(0), s.srvWriteAtRsp.Load()
	}
	var st [nStages]int64
	for i, b := range stageBounds[tr.style] {
		if st[i] = t[b[1]] - t[b[0]]; st[i] < 0 {
			s.anomalies++
			return
		}
	}
	for i, d := range st {
		s.stageNs[i] += d
	}
	s.opNs += t9 - t0
	s.ops++
	if len(s.stamps) < cap(s.stamps) {
		s.stamps = append(s.stamps, t)
	}
}

// ---------------------------------------------------------------------------
// Shims.

// clientConn stamps and counts under a stream client.
type clientConn struct {
	net.Conn
	s    *slot
	skip int // bytes of the current fragment still to come in later writes
}

func (c *clientConn) Write(p []byte) (int, error) {
	in := now()
	c.s.cliWriteIn.CompareAndSwap(0, in)
	n, err := c.Conn.Write(p)
	c.s.cliWriteNs.Add(now() - in)
	c.s.cliWrites.Add(1)
	c.s.cliRecords.Add(c.countRecords(p))
	return n, err
}

// countRecords counts the record marks with the last-fragment bit in p.
// The record layer starts every write at a fragment boundary or inside a
// fragment's payload, never inside a mark.
func (c *clientConn) countRecords(p []byte) int64 {
	var records int64
	for len(p) > 0 {
		if c.skip > 0 {
			n := min(c.skip, len(p))
			c.skip -= n
			p = p[n:]
			continue
		}
		if len(p) < 4 {
			break
		}
		mark := uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
		if mark&(1<<31) != 0 {
			records++
		}
		c.skip = int(mark &^ (1 << 31))
		p = p[4:]
	}
	return records
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.s.srvWriteAtRsp.Store(c.s.srvWriteIn.Load())
		c.s.cliReadOut.Store(now())
		c.s.cliReads.Add(1)
	}
	return n, err
}

// clientPacketConn stamps and counts under a datagram client.
type clientPacketConn struct {
	net.PacketConn
	s *slot
}

func (c *clientPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	in := now()
	c.s.cliWriteIn.CompareAndSwap(0, in)
	n, err := c.PacketConn.WriteTo(p, addr)
	c.s.cliWriteNs.Add(now() - in)
	c.s.cliWrites.Add(1)
	return n, err
}

func (c *clientPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(p)
	if err == nil {
		c.s.cliReadOut.Store(now())
		c.s.cliReads.Add(1)
	}
	return n, addr, err
}

// listener hands ServeTCP connections that stamp and count.
type listener struct {
	net.Listener
	tr *tracer
}

func (l *listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: conn, tr: l.tr}, nil
}

// serverConn is the server's end of one caller's connection. It learns
// which caller that is at its first read: the caller registered its local
// address before it sent anything.
type serverConn struct {
	net.Conn
	tr *tracer
	s  atomic.Pointer[slot]
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		s := c.s.Load()
		if s == nil {
			v, ok := c.tr.byAddr.Load(c.RemoteAddr().String())
			if !ok {
				return n, err // not a caller's connection
			}
			s = v.(*slot)
			c.s.Store(s)
		}
		t := now()
		s.srvReadFirst.CompareAndSwap(0, t)
		s.srvReadLast.Store(t)
		s.srvReads.Add(1)
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	s := c.s.Load()
	if s == nil {
		return c.Conn.Write(p)
	}
	in := now()
	s.srvWriteIn.Store(in)
	n, err := c.Conn.Write(p)
	s.srvWriteNs.Add(now() - in)
	s.srvWrites.Add(1)
	return n, err
}

// tracedHandler stamps around the benchmark's handlers; the caller's
// index is the first argument word.
type tracedHandler struct {
	h  *handler
	tr *tracer
}

var _ ct.ShapeProgV2Handler = (*tracedHandler)(nil)

func (t *tracedHandler) enter(callerIdx int32) *slot {
	if callerIdx < 0 || int(callerIdx) >= len(t.tr.slots) {
		return nil
	}
	s := t.tr.slots[callerIdx]
	s.handlerIn.Store(now())
	return s
}

func leave(s *slot) {
	if s != nil {
		s.handlerOut.Store(now())
	}
}

func (t *tracedHandler) Ping() error { return t.h.Ping() }

func (t *tracedHandler) Scale(arg *ct.Numbers) (*ct.Numbers, error) {
	defer leave(t.enter((*arg)[0]))
	return t.h.Scale(arg)
}

func (t *tracedHandler) Sum(arg *ct.Numbers) (*int32, error) {
	defer leave(t.enter((*arg)[0]))
	return t.h.Sum(arg)
}

func (t *tracedHandler) Mix(arg *ct.Sample) (*ct.Sample, error) {
	defer leave(t.enter(arg.A))
	return t.h.Mix(arg)
}

func (t *tracedHandler) Lookup(arg *ct.Point) (*ct.LookupResult, error) {
	defer leave(t.enter(arg.X))
	return t.h.Lookup(arg)
}

// ---------------------------------------------------------------------------
// Results.

// traceResult is what one traced pass measured.
type traceResult struct {
	ops, anomalies int64
	stageMeanNs    [nStages]float64
	opMeanNs       float64
	counts         metrics // child spans and shim counts, by metric name
}

// result folds the callers' sums. calls is the number of RPCs the server
// executed in the window.
func (tr *tracer) result(calls uint64) (traceResult, error) {
	var r traceResult
	var stageNs [nStages]int64
	var opNs, cliWriteNs, srvWriteNs, cliWrites, cliReads, cliRecords, srvWrites, srvReads int64
	for _, s := range tr.slots {
		for i, d := range s.stageNs {
			stageNs[i] += d
		}
		opNs += s.opNs
		r.ops += s.ops
		r.anomalies += s.anomalies
		cliWriteNs += s.cliWriteNs.Load()
		srvWriteNs += s.srvWriteNs.Load()
		cliWrites += s.cliWrites.Load()
		cliReads += s.cliReads.Load()
		cliRecords += s.cliRecords.Load()
		srvWrites += s.srvWrites.Load()
		srvReads += s.srvReads.Load()
	}
	// On tcp_batch8 the replies of the batched calls keep arriving after the
	// stub has returned, and one that lands between the stub's return and
	// finishOp's reading of the stamps puts t8 after t9. Such operations
	// are left out of the sums; they are a few in a thousand, and a few in a
	// hundred under the race detector. More than that is a broken trace.
	if r.anomalies*20 > r.ops {
		return r, fmt.Errorf("traced pass: %d operations had stamps out of order, against %d in order", r.anomalies, r.ops)
	}
	var sum int64
	for _, d := range stageNs {
		sum += d
	}
	if sum != opNs {
		return r, fmt.Errorf("trace stages sum to %d ns but the operations took %d ns", sum, opNs)
	}
	ops, n := float64(r.ops), float64(calls)
	for i, d := range stageNs {
		r.stageMeanNs[i] = float64(d) / ops
	}
	r.opMeanNs = float64(opNs) / ops
	r.counts = metrics{
		"client.write_syscall_ns": float64(cliWriteNs) / ops,
		"server.write_syscall_ns": float64(srvWriteNs) / ops,
		"client.writes_per_call":  float64(cliWrites) / n,
		"client.reads_per_call":   float64(cliReads) / n,
		"server.writes_per_call":  float64(srvWrites) / n,
		"server.reads_per_call":   float64(srvReads) / n,
		"xdr.records_per_write":   0,
	}
	if tr.style != styleDatagram {
		r.counts["xdr.records_per_write"] = float64(cliRecords) / float64(cliWrites)
	}
	return r, nil
}

// span is one interval of one operation, as -trace-out writes it. Spans of
// one operation share op; parent names the span that contains it.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Op      string `json:"op"`
	Parent  string `json:"parent"`
}

// spans renders the stamps kept from the pass.
func (tr *tracer) spans() []span {
	var spans []span
	for ci, s := range tr.slots {
		for i, t := range s.stamps {
			id := fmt.Sprintf("c%d-%d", ci, i)
			spans = append(spans, span{Name: "op", StartNs: t[0], EndNs: t[9], Op: id})
			for st, b := range stageBounds[tr.style] {
				if b != [2]int{} {
					spans = append(spans, span{Name: stageNames[st], StartNs: t[b[0]], EndNs: t[b[1]], Op: id, Parent: "op"})
				}
			}
		}
	}
	return spans
}

func writeSpans(path string, byWorkload map[string][]span) error {
	data, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
