//go:build linux && (amd64 || arm64)

package batchio

// The recvmmsg fast path. golang.org/x/net wraps this syscall as
// ipv4.PacketConn.ReadBatch, but this module is deliberately
// dependency-free, so it is issued directly through syscall.RawConn: the
// runtime's network poller still owns readiness (MSG_DONTWAIT plus
// RawConn's wait-for-ready loop), so blocking behavior, deadline handling
// on close, and goroutine scheduling are unchanged — only the number of
// messages moved per kernel crossing grows. The build tag is the set of
// 64-bit targets whose mmsghdr layout below has been checked.

import (
	"net"
	"sync"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// received length, padded to 8 bytes on LP64.
type mmsghdr struct {
	hdr  syscall.Msghdr
	nlen uint32
	_    [4]byte
}

type mmsgConn struct {
	rc    syscall.RawConn
	stats *Stats

	// recv is the RawConn callback, bound once: a closure built per
	// batch would carry its in and out values in a heap environment.
	// Those values live in the fields below instead, set under rmu.
	recv func(fd uintptr) bool

	rmu   sync.Mutex
	rhs   []mmsghdr
	riov  []syscall.Iovec
	rsa   []syscall.RawSockaddrAny
	rn    int           // in: headers armed
	rgot  int           // out: messages received
	rerr  syscall.Errno // out: recvmmsg's failure, 0 for none
	peers [peerSlots]*peer
}

// newMMsg probes pc for the multi-message path: a kernel UDP socket
// exposing its file descriptor. Anything else — in-process simulators,
// test shims, wrapped conns — reports nil and the caller stays on the
// portable path.
func newMMsg(pc net.PacketConn, batch int, stats *Stats) *mmsgConn {
	u, ok := pc.(*net.UDPConn)
	if !ok {
		return nil
	}
	rc, err := u.SyscallConn()
	if err != nil {
		return nil
	}
	m := &mmsgConn{
		rc: rc, stats: stats,
		rhs:  make([]mmsghdr, batch),
		riov: make([]syscall.Iovec, batch),
		rsa:  make([]syscall.RawSockaddrAny, batch),
	}
	m.recv = m.recvmmsg
	return m
}

func (m *mmsgConn) readBatch(msgs []Message) (int, error) {
	m.rmu.Lock()
	defer m.rmu.Unlock()
	n := len(msgs)
	if n > len(m.rhs) {
		n = len(m.rhs)
	}
	for i := 0; i < n; i++ {
		m.riov[i].Base = &msgs[i].Buf[0]
		m.riov[i].Len = uint64(len(msgs[i].Buf))
		m.rhs[i] = mmsghdr{}
		m.rhs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.rsa[i]))
		m.rhs[i].hdr.Namelen = uint32(syscall.SizeofSockaddrAny)
		m.rhs[i].hdr.Iov = &m.riov[i]
		m.rhs[i].hdr.Iovlen = 1
	}
	m.rn, m.rgot, m.rerr = n, 0, 0
	if err := m.rc.Read(m.recv); err != nil {
		return 0, err // poller error: the socket was closed
	}
	if m.rerr != 0 {
		return 0, m.rerr
	}
	for i := 0; i < m.rgot; i++ {
		msgs[i].N = int(m.rhs[i].nlen)
		msgs[i].Addr = m.peerAddr(&m.rsa[i])
	}
	return m.rgot, nil
}

// recvmmsg is readBatch's RawConn callback; rmu is held.
//
//specrpc:hotpath
func (m *mmsgConn) recvmmsg(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&m.rhs[0])), uintptr(m.rn),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	switch errno {
	case syscall.EAGAIN, syscall.EINTR:
		return false // let the poller wait for readability
	case 0:
		m.rgot = int(r1)
		m.stats.ReadCalls.Add(1)
		m.stats.ReadMsgs.Add(uint64(m.rgot))
	default:
		m.rerr = errno
	}
	return true
}

// peerSlots sizes the table of interned peer addresses: direct-mapped,
// so a lookup is one hash and one compare, and two live peers that
// collide merely take turns allocating.
const peerSlots = 64

// peer is one interned address: the UDPAddr handed out and, in the same
// object, the bytes its IP slice points into.
type peer struct {
	addr net.UDPAddr
	ip   [net.IPv6len]byte
}

// peerAddr decodes a kernel-filled sockaddr into the address reported
// for the datagram. Nothing writes to a reported address, so every
// datagram of a returning peer gets the same *net.UDPAddr out of the
// table, and only a peer not seen lately (or evicted by a collision)
// costs an allocation; an evicted address stays valid for whoever still
// holds it. The caller holds rmu.
//
//specrpc:hotpath
func (m *mmsgConn) peerAddr(rsa *syscall.RawSockaddrAny) net.Addr {
	var ip []byte
	var pb *[2]byte // port, network byte order
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		ip, pb = sa.Addr[:], (*[2]byte)(unsafe.Pointer(&sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		ip, pb = sa.Addr[:], (*[2]byte)(unsafe.Pointer(&sa.Port))
	default:
		return nil
	}
	port := int(pb[0])<<8 | int(pb[1])
	h := uint32(port)
	for _, b := range ip[len(ip)-4:] {
		h = h*31 + uint32(b)
	}
	slot := &m.peers[h*0x9e3779b1>>26] // top 6 bits: peerSlots entries
	if p := *slot; p != nil && p.addr.Port == port && string(p.addr.IP) == string(ip) {
		return &p.addr
	}
	p := &peer{}
	p.addr = net.UDPAddr{IP: p.ip[:copy(p.ip[:], ip)], Port: port}
	*slot = p
	return &p.addr
}
