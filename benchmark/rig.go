package main

import (
	"fmt"
	"net"
	"os"
	"sync"

	"specrpc/internal/client"
	ct "specrpc/internal/compiledtest"
	"specrpc/internal/pmap"
	"specrpc/internal/server"
)

// rig is one freshly built system under test: a SHAPE_PROG server and a
// portmapper in this process, and the workload's callers, each with the
// generated stubs over its own loopback connection. With a tracer the
// same constructors are handed shimmed connections; nothing else differs
// between a traced and an untraced rig.
type rig struct {
	w       *workload
	h       *handler
	srv     *server.Server // SHAPE_PROG
	pm      *server.Server // the portmapper the callers ask for srv's port
	callers []*caller
}

func serve(what string, loop func() error) {
	go func() {
		if err := loop(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", what, err)
		}
	}()
}

// buildRig listens, registers with the portmapper, resolves the port with
// a GETPORT call as a client would, and connects every caller. tr is nil
// for an untraced rig.
func buildRig(w *workload, ops [][]op, tr *tracer) (*rig, error) {
	r := &rig{w: w, h: &handler{}, srv: server.New(), pm: server.New()}
	built := false
	defer func() {
		if !built {
			r.close()
		}
	}()
	var svc ct.ShapeProgV2Handler = r.h
	if tr != nil {
		svc = &tracedHandler{h: r.h, tr: tr}
	}
	ct.RegisterShapeProgV2(r.srv, svc)

	var port int
	prot := pmap.IPProtoTCP
	if w.udp {
		prot = pmap.IPProtoUDP
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		port = pc.LocalAddr().(*net.UDPAddr).Port
		serve("serve udp", func() error { return r.srv.ServeUDP(pc) })
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		port = ln.Addr().(*net.TCPAddr).Port
		if tr != nil {
			ln = &listener{Listener: ln, tr: tr}
		}
		serve("serve tcp", func() error { return r.srv.ServeTCP(ln) })
	}

	reg := pmap.NewRegistry()
	pmap.RegisterService(r.pm, reg)
	pmConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serve("serve portmapper", func() error { return r.pm.ServeUDP(pmConn) })
	reg.Set(pmap.Mapping{Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers, Prot: prot, Port: uint32(port)})

	got, err := getPort(pmConn.LocalAddr(), prot)
	if err != nil {
		return nil, fmt.Errorf("pmap GETPORT: %w", err)
	}
	if got != uint32(port) {
		return nil, fmt.Errorf("pmap GETPORT: got port %d, the server listens on %d", got, port)
	}

	cfg := client.Config{Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers}
	for i := 0; i < w.callers; i++ {
		var s *slot
		if tr != nil {
			s = tr.slots[i]
		}
		c := &caller{ops: ops[i]}
		if w.udp {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			if tr != nil {
				pc = &clientPacketConn{PacketConn: pc, s: s}
			}
			c.udp = client.NewUDP(pc, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(got)}, cfg)
			c.stubs.C = c.udp
		} else {
			dial := func() (net.Conn, error) {
				conn, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", got))
				if err != nil || tr == nil {
					return conn, err
				}
				tr.byAddr.Store(conn.LocalAddr().String(), s)
				return &clientConn{Conn: conn, s: s}, nil
			}
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			tcpCfg := cfg
			tcpCfg.Redial = dial
			c.tcp = client.NewTCP(conn, tcpCfg)
			c.stubs.C = c.tcp
		}
		r.callers = append(r.callers, c)
	}
	built = true
	return r, nil
}

// getPort asks the portmapper at pm for SHAPE_PROG's port.
func getPort(pm net.Addr, prot uint32) (uint32, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	c := client.NewUDP(conn, pm, pmap.ClientConfig())
	defer c.Close()
	return pmap.NewClient(c).GetPort(ct.ShapeProgV2Prog, ct.ShapeProgV2Vers, prot)
}

func (r *rig) close() {
	for _, c := range r.callers {
		_ = c.stubs.C.Close() // only read from here on; a failed close loses nothing
	}
	_ = r.srv.Close()
	_ = r.pm.Close()
}

// firstReplies sends, on every caller, the first operation of each kind in
// its sequence and checks the reply. This is where the clients compile
// their whole-call codecs, once per procedure.
func (r *rig) firstReplies() error {
	for ci, c := range r.callers {
		var seen [opBatch8 + 1]bool
		for i := range c.ops {
			o := &c.ops[i]
			if seen[o.kind] {
				continue
			}
			seen[o.kind] = true
			if !c.do(o) {
				return fmt.Errorf("%s: caller %d: first operation of kind %d failed", r.w.name, ci, o.kind)
			}
		}
	}
	return nil
}

// run drives every caller through its loop concurrently and waits for all.
func (r *rig) run(loop func(ci int, c *caller)) {
	var wg sync.WaitGroup
	for ci, c := range r.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(ci, c)
		}()
	}
	wg.Wait()
}

// warm runs a fixed number of operations, split evenly over the callers,
// and reports how many failed.
func (r *rig) warm(ops int) int {
	failed := make([]int, len(r.callers))
	r.run(func(ci int, c *caller) {
		for i := 0; i < ops/len(r.callers); i++ {
			if !c.do(c.nextOp()) {
				failed[ci]++
			}
		}
	})
	total := 0
	for _, f := range failed {
		total += f
	}
	return total
}
