package server_test

import (
	"slices"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/compiledtest"
	"specrpc/internal/netsim"
	"specrpc/internal/pmap"
	"specrpc/internal/server"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// shapes is a ShapeProgV2 service that is registered, never called.
type shapes struct{}

func (shapes) Lookup(*compiledtest.Point) (*compiledtest.LookupResult, error) { return nil, nil }
func (shapes) Ping() error                                                    { return nil }
func (shapes) Scale(*compiledtest.Numbers) (*compiledtest.Numbers, error)     { return nil, nil }
func (shapes) Mix(*compiledtest.Sample) (*compiledtest.Sample, error)         { return nil, nil }
func (shapes) Sum(*compiledtest.Numbers) (*int32, error)                      { return nil, nil }

func echo(arg *[]int32) (*[]int32, error) { return arg, nil }

func void(*xdr.XDR) (server.Marshal, error) { return nil, nil }

// TestSnapshotRungs pins which engine every registration path serves a
// procedure on, as Snapshot reports it: the emitted routines of an
// rpcgen -compiled stub (every procedure of one, the union result and
// the void sides included), the fused program of a hand-built specialized
// plan, the walker of a Generic-mode one, and no rung at all for a
// closure registered through Register. The portmapper's five procedures
// all run on hand-built fused plans, its NULL on the empty program and
// its DUMP's list on a chain step.
func TestSnapshotRungs(t *testing.T) {
	const prog, vers = 0x20000779, 1
	shape := wire.VarArrayT(0, wire.Int32T())
	s := server.New()
	compiledtest.RegisterShapeProgV2(s, shapes{})
	server.RegisterTyped(s, prog, vers, 1, wire.MustPlan[[]int32](shape, wire.Specialized),
		wire.MustPlan[[]int32](shape, wire.Specialized), echo)
	server.RegisterTyped(s, prog, vers, 2, wire.MustPlan[[]int32](shape, wire.Generic),
		wire.MustPlan[[]int32](shape, wire.Generic), echo)
	s.Register(prog, vers, 3, void)
	pmap.RegisterService(s, pmap.NewRegistry())

	const closure = wire.Rung(0)
	row := func(prog, vers, proc uint32, r wire.Rung) server.ProcInfo {
		return server.ProcInfo{Prog: prog, Vers: vers, Proc: proc, Args: r, Results: r}
	}
	sp, sv := compiledtest.ShapeProgV2Prog, compiledtest.ShapeProgV2Vers
	want := []server.ProcInfo{
		row(pmap.Prog, pmap.Vers, pmap.ProcNull, wire.RungFused),
		row(pmap.Prog, pmap.Vers, pmap.ProcSet, wire.RungFused),
		row(pmap.Prog, pmap.Vers, pmap.ProcUnset, wire.RungFused),
		row(pmap.Prog, pmap.Vers, pmap.ProcGetPort, wire.RungFused),
		row(pmap.Prog, pmap.Vers, pmap.ProcDump, wire.RungFused),
		row(sp, sv, compiledtest.ShapeProgV2ProcLookup, wire.RungCompiled),
		row(sp, sv, compiledtest.ShapeProgV2ProcPing, wire.RungCompiled),
		row(sp, sv, compiledtest.ShapeProgV2ProcScale, wire.RungCompiled),
		row(sp, sv, compiledtest.ShapeProgV2ProcMix, wire.RungCompiled),
		row(sp, sv, compiledtest.ShapeProgV2ProcSum, wire.RungCompiled),
		row(prog, vers, 1, wire.RungFused),
		row(prog, vers, 2, wire.RungGeneric),
		row(prog, vers, 3, closure),
	}
	if got := s.Snapshot().Procs; !slices.Equal(got, want) {
		t.Fatalf("Procs:\n got %v\nwant %v", got, want)
	}
}

// TestSnapshotSumsDatagramLoops: a server serving two datagram sockets
// (IPv4 and IPv6, say) counts the reads and writes of both, not just
// those of the loop it started last.
func TestSnapshotSumsDatagramLoops(t *testing.T) {
	const prog, vers = 0x2000077a, 1
	n := netsim.New()
	s := server.New()
	s.Register(prog, vers, 0, void)
	socks := []netsim.Addr{"v4", "v6"}
	for _, a := range socks {
		ep := n.Attach(a)
		go func() { _ = s.ServeUDP(ep) }()
	}
	for _, a := range socks {
		// No retransmission: one call is one datagram each way.
		c := client.NewUDP(n.Attach("client-"+a), a,
			client.Config{Prog: prog, Vers: vers, Timeout: 10 * time.Second, Retransmit: time.Minute})
		err := c.Call(0, client.Void, client.Void)
		c.Close()
		if err != nil {
			t.Fatalf("call to %s: %v", a, err)
		}
	}
	// Close waits for the workers, so the last reply's write is counted.
	s.Close()
	st := s.Snapshot()
	if st.DatagramReadCalls != 2 || st.DatagramReadMsgs != 2 || st.DatagramWrites != 2 {
		t.Fatalf("datagram reads %d (%d messages), writes %d; want 2, 2, 2",
			st.DatagramReadCalls, st.DatagramReadMsgs, st.DatagramWrites)
	}
}
