//go:build !linux || !(amd64 || arm64)

package batchio

import "net"

// mmsgConn is absent on platforms without recvmmsg (or where this module
// has not checked its message header layout); every Conn stays on the
// portable one-datagram-per-syscall path.
type mmsgConn struct{}

func newMMsg(net.PacketConn, int, *Stats) *mmsgConn { return nil }

func (*mmsgConn) readBatch([]Message) (int, error) {
	panic("batchio: mmsg path invoked on a non-mmsg platform")
}
