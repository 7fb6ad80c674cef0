package integration

// Regression: a datagram reply larger than the server's buffer must come
// back as a cached SYSTEM_ERR, not be silently dropped — a drop would
// re-execute the handler on every retransmission and leave the client
// waiting out its full timeout.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

func TestSimOversizedDatagramReplyYieldsSystemErr(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	const procExpand = uint32(3)
	var execs atomic.Int32
	s := server.New()
	s.Register(prog, vers, procExpand, func(dec *xdr.XDR) (server.Marshal, error) {
		execs.Add(1)
		var n int32
		if err := dec.Long(&n); err != nil {
			return nil, errors.Join(server.ErrGarbageArgs, err)
		}
		arr := make([]int32, n)
		return func(enc *xdr.XDR) error {
			return xdr.Array(enc, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
		}, nil
	})
	n := netsim.New()
	ep := n.Attach("server")
	go func() { _ = s.ServeUDP(ep) }()
	t.Cleanup(func() { _ = s.Close() })

	c := simClient(n, "client", client.Config{
		Timeout: 5 * time.Second, Retransmit: 50 * time.Millisecond,
	})
	defer c.Close()

	// 5000 int32s ≈ 20KB of reply, far over the 8900-byte datagram buffer,
	// from a request of a few bytes.
	count := int32(5000)
	err := c.Call(procExpand, func(x *xdr.XDR) error { return x.Long(&count) }, client.Void)
	var rpcErr *client.RPCError
	if !errors.As(err, &rpcErr) {
		t.Fatalf("err = %v, want *RPCError", err)
	}
	if rpcErr.AcceptStat != rpcmsg.SystemErr {
		t.Fatalf("AcceptStat = %v, want SystemErr", rpcErr.AcceptStat)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want exactly 1 (reply must be cached)", got)
	}
}
