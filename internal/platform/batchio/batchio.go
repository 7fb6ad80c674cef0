// Package batchio is the datagram syscall-amortization layer: it reads
// several UDP messages per kernel crossing where the platform allows it
// (recvmmsg on Linux, see mmsg_linux.go) and degrades to the exact
// one-datagram-per-syscall behavior of net.PacketConn everywhere else.
// Writes are always one WriteTo per datagram, as svc_udp's sendto was:
// replies leave from the worker that ran them, and no series ever showed
// a multi-message send earning its copy and lock. The bytes on the wire
// are identical on both paths — only the read syscall boundaries move —
// and atomic counters record calls and messages so benchmarks can report
// syscalls/op from counts, not timing. See DESIGN.md, "Batching & flush
// policy".
package batchio

import (
	"net"
	"sync/atomic"
)

// Message is one received datagram: Buf is the receive buffer and N/Addr
// report what arrived. A reported Addr is shared by every datagram of
// its peer: read it, pass it back as a destination, never write through
// it.
type Message struct {
	Buf  []byte
	N    int
	Addr net.Addr
}

// Stats counts syscalls and, for reads, the messages they moved.
// ReadCalls==ReadMsgs means no amortization (the portable path);
// ReadMsgs/ReadCalls is the measured batch factor. A write is one
// message, counted as it is made: a failed write is still a syscall,
// and a peer that has its reply has seen it counted.
type Stats struct {
	ReadCalls, ReadMsgs atomic.Uint64
	WriteCalls          atomic.Uint64
}

// Conn wraps a PacketConn for batched datagram reads, moving at most
// batch messages per read syscall. The mmsg fast path engages only when
// batch > 1 and the platform and socket support it (Batched reports
// which); otherwise every read maps to exactly one ReadFrom, so a Conn
// with batch 1 is the measurable baseline running the pre-batching code
// path.
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

// Batch reports the configured messages-per-read bound.
func (c *Conn) Batch() int { return c.batch }

// Batched reports whether the multi-message kernel read path is active.
func (c *Conn) Batched() bool { return c.mm != nil }

// Stats exposes the live counters.
func (c *Conn) Stats() *Stats { return &c.stats }

// ReadBatch fills msgs with received datagrams and returns how many
// arrived. Each msgs[i].Buf must be a ready, non-empty receive buffer; N
// and Addr are set per message. On the portable path exactly one
// datagram is read per call — the same blocking single-recvfrom the
// pre-batching read loop performed — so a caller's loop works
// identically on both paths, just with different arrival counts.
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

// WriteTo sends one datagram, counted as one write call before it is
// made. Send errors are dropped, as svc_udp dropped them: datagram
// clients retransmit.
func (c *Conn) WriteTo(b []byte, to net.Addr) {
	c.stats.WriteCalls.Add(1)
	_, _ = c.pc.WriteTo(b, to)
}
