// Package batchio is the datagram syscall-amortization layer: it moves
// several UDP messages per kernel crossing where the platform allows it
// (recvmmsg/sendmmsg on Linux, see mmsg_linux.go) and degrades to the
// exact one-datagram-per-syscall behavior of net.PacketConn everywhere
// else. The bytes on the wire are identical on both paths — only the
// syscall boundaries move — and atomic counters record calls and
// messages so benchmarks can report syscalls/op from counts, not
// timing. See DESIGN.md, "Batching & flush policy".
package batchio

import (
	"net"
	"sync"
	"sync/atomic"
)

// Message is one datagram moving through a batch. On reads Buf is the
// receive buffer and N/Addr report what arrived; on writes Buf is the
// complete datagram (N is ignored) and Addr the destination. A reported
// Addr is shared by every datagram of its peer: read it, pass it back as
// a destination, never write through it.
type Message struct {
	Buf  []byte
	N    int
	Addr net.Addr
}

// Stats counts syscalls and the messages they moved. Calls==Msgs means
// no amortization (the portable path); Msgs/Calls is the measured batch
// factor.
type Stats struct {
	ReadCalls, ReadMsgs   atomic.Uint64
	WriteCalls, WriteMsgs atomic.Uint64
}

// Conn wraps a PacketConn for batched datagram I/O, moving at most
// batch messages per syscall. The mmsg fast path engages only when
// batch > 1 and the platform and socket support it (Batched reports
// which); otherwise every operation maps to exactly one ReadFrom or
// WriteTo, so a Conn with batch 1 is the measurable baseline running
// the pre-batching code path.
type Conn struct {
	pc    net.PacketConn
	batch int
	stats Stats
	mm    *mmsgConn // nil on the portable path
}

// New wraps pc. batch < 1 is treated as 1.
func New(pc net.PacketConn, batch int) *Conn {
	if batch < 1 {
		batch = 1
	}
	c := &Conn{pc: pc, batch: batch}
	if batch > 1 {
		c.mm = newMMsg(pc, batch, &c.stats)
	}
	return c
}

// Batch reports the configured messages-per-syscall bound.
func (c *Conn) Batch() int { return c.batch }

// Batched reports whether the multi-message kernel path is active.
func (c *Conn) Batched() bool { return c.mm != nil }

// Stats exposes the live counters.
func (c *Conn) Stats() *Stats { return &c.stats }

// ReadBatch fills msgs with received datagrams and returns how many
// arrived. Each msgs[i].Buf must be a ready receive buffer; N and Addr
// are set per message. On the portable path exactly one datagram is
// read per call — the same blocking single-recvfrom the pre-batching
// read loop performed — so a caller's loop works identically on both
// paths, just with different arrival counts.
func (c *Conn) ReadBatch(msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	if c.mm != nil {
		return c.mm.readBatch(msgs)
	}
	m := &msgs[0]
	n, addr, err := c.pc.ReadFrom(m.Buf)
	if err != nil {
		return 0, err
	}
	m.N, m.Addr = n, addr
	c.stats.ReadCalls.Add(1)
	c.stats.ReadMsgs.Add(1)
	return 1, nil
}

// WriteBatch sends every message. On the portable path each message is
// one WriteTo; the mmsg path moves up to Batch of them per sendmmsg.
// The first send error is returned, with later messages unsent — the
// caller treats errors exactly as it treated WriteTo's (datagram reply
// errors are dropped, the client retransmits).
func (c *Conn) WriteBatch(msgs []Message) error {
	if c.mm != nil {
		return c.mm.writeBatch(msgs)
	}
	for i := range msgs {
		if _, err := c.pc.WriteTo(msgs[i].Buf, msgs[i].Addr); err != nil {
			return err
		}
		c.stats.WriteCalls.Add(1)
		c.stats.WriteMsgs.Add(1)
	}
	return nil
}

// WriteTo sends one datagram directly, counted like any other write —
// the baseline reply path when batching is off.
func (c *Conn) WriteTo(b []byte, to net.Addr) {
	if _, err := c.pc.WriteTo(b, to); err != nil {
		return
	}
	c.stats.WriteCalls.Add(1)
	c.stats.WriteMsgs.Add(1)
}

// Sender coalesces reply datagrams by group commit, mirroring
// xdr.RecBatcher on the stream side: the first sender to find no flush
// in progress becomes the leader and drains the queue through
// WriteBatch outside the lock; replies handed in while the leader is
// inside the syscall leave on its next iteration. Under concurrent
// workers many replies leave per sendmmsg; an uncontended Send flushes
// immediately, so batching never adds latency.
//
// Each message is copied into a buffer from the acquire/release pool at
// Send time, so callers keep ownership of msg — the copy is what lets a
// worker's pooled reply buffer recycle immediately while the datagram
// waits in the queue. Send errors are dropped, exactly as the direct
// WriteTo path dropped them: datagram clients retransmit.
type Sender struct {
	c       *Conn
	acquire func(n int) *[]byte
	release func(*[]byte)

	mu       sync.Mutex
	pend     []Message
	bufs     []*[]byte
	flushing bool
	// The arrays the previous flush drained, kept so that Send appends
	// into recycled storage instead of regrowing a queue per flush (as
	// xdr.RecBatcher does on the stream side).
	sparePend []Message
	spareBufs []*[]byte
}

// NewSender returns a group-commit sender over c using the given buffer
// pool (typically xdr.GetBuf/xdr.PutBuf).
func NewSender(c *Conn, acquire func(n int) *[]byte, release func(*[]byte)) *Sender {
	return &Sender{c: c, acquire: acquire, release: release}
}

// Send queues one reply datagram and ensures a flush is running; the
// caller keeps ownership of msg.
func (s *Sender) Send(to net.Addr, msg []byte) {
	bp := s.acquire(len(msg))
	buf := append((*bp)[:0], msg...)
	*bp = buf
	s.mu.Lock()
	s.pend = append(s.pend, Message{Buf: buf, Addr: to})
	s.bufs = append(s.bufs, bp)
	if s.flushing {
		s.mu.Unlock()
		return
	}
	s.flushing = true
	for len(s.pend) > 0 {
		// Take the whole queue and leave the spare arrays in its place;
		// WriteBatch splits it by the syscall bound itself.
		batch, bufs := s.pend, s.bufs
		s.pend, s.bufs = s.sparePend[:0], s.spareBufs[:0]
		s.mu.Unlock()
		_ = s.c.WriteBatch(batch)
		for i, bp := range bufs {
			s.release(bp)
			batch[i], bufs[i] = Message{}, nil // drop the references
		}
		s.mu.Lock()
		s.sparePend, s.spareBufs = batch, bufs
	}
	s.flushing = false
	s.mu.Unlock()
}
