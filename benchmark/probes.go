package main

import (
	_ "embed"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"
	"unsafe"

	"specrpc/internal/client"
	ct "specrpc/internal/compiledtest"
	"specrpc/internal/netsim"
	"specrpc/internal/platform/batchio"
	"specrpc/internal/pmap"
	"specrpc/internal/rpcgen"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/server"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// The probes time single layers in isolation, through the layers' public
// functions, on the shapes the workload sends. They explain the traced
// budget; none of them is an end-to-end metric.

// timeLoop returns the mean ns one call of f takes: it doubles the loop
// length until a loop lasts the budget, runs three loops of that length
// and takes their median.
func timeLoop(budget time.Duration, f func()) float64 {
	loop := func(n int) int64 {
		start := now()
		for i := 0; i < n; i++ {
			f()
		}
		return now() - start
	}
	n := 1
	for loop(n) < int64(budget) && n < 1<<26 {
		n *= 2
	}
	rounds := make([]float64, 3)
	for i := range rounds {
		rounds[i] = float64(loop(n)) / float64(n)
	}
	return median(rounds)
}

// allocsPer returns the mean number of heap allocations of one call of f.
func allocsPer(f func()) float64 {
	const runs = 200
	f() // let pools fill
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// ---------------------------------------------------------------------------
// wire: the codec steps of one call.

// The wire descriptions of the stub types. internal/compiledtest keeps its
// own plans unexported, and with them the straight-line routines rpcgen
// registered for them, so the probes compile these plans of their own and
// land one rung lower than the live path: on the fused interpreter where
// the live path runs the emitted routines. wire.NewPlan checks each
// description against the stub type's layout, so drift from the IDL fails
// the probe instead of skewing it.
var (
	numbersT = wire.VarArrayT(ct.ARRAYMAX, wire.Int32T())
	pointT   = wire.StructT("point", wire.F("x", wire.Int32T()), wire.F("y", wire.Int32T()))
	sampleT  = wire.StructT("sample",
		wire.F("a", wire.Int32T()),
		wire.F("b", wire.Uint32T()),
		wire.F("flag", wire.BoolT()),
		wire.F("f", wire.Float32T()),
		wire.F("d", wire.Float64T()),
		wire.F("h", wire.HyperT()),
		wire.F("uh", wire.UhyperT()),
		wire.F("kind", wire.Int32T()),
		wire.F("tag", wire.OpaqueFixedT(10)),
		wire.F("at", pointT),
		wire.F("corners", wire.FixedArrayT(3, pointT)),
		wire.F("window", wire.FixedArrayT(5, wire.Int32T())),
		wire.F("name", wire.StringT(32)),
		wire.F("data", wire.OpaqueVarT(64)),
		wire.F("nums", numbersT),
		wire.F("payload", wire.OpaqueVarT(1024)),
		wire.F("pts", wire.VarArrayT(7, pointT)),
		wire.F("words", wire.VarArrayT(4, wire.StringT(16))),
		wire.F("bits", wire.VarArrayT(8, wire.BoolT())),
	)
)

// The four codec steps of one call, in the order they run.
const (
	stepCallEncode = iota
	stepArgsDecode
	stepReplyEncode
	stepReplyDecode
	nSteps
)

var stepMetrics = [nSteps]string{"wire.call_encode_ns", "wire.args_decode_ns", "wire.reply_encode_ns", "wire.reply_decode_ns"}

// codecSteps are the steps of one procedure on one shape, each runnable
// alone. Every step handles a whole message, header included.
type codecSteps [nSteps]func() error

// probeEnv is what a client and a server hold for SHAPE_PROG before any
// call: the precompiled call and success headers.
type probeEnv struct {
	tmpl    *rpcmsg.CallTemplate
	success *rpcmsg.ReplyTemplate
}

func newProbeEnv() (*probeEnv, error) {
	tmpl, err := rpcmsg.NewCallTemplate(ct.ShapeProgV2Prog, ct.ShapeProgV2Vers, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		return nil, err
	}
	success, err := rpcmsg.NewReplyTemplate(rpcmsg.None())
	if err != nil {
		return nil, err
	}
	return &probeEnv{tmpl: tmpl, success: success}, nil
}

const probeXID = 0x5eed

var errNotSuccess = errors.New("message not recognized at fixed offsets")

// closureSteps builds the steps of the closure path: marshal functions
// over the generic XDR layer. With templates the headers are the
// precompiled ones, as client.Call and server.Register use them; without,
// every header goes through the generic marshalers, which is the original
// Sun RPC cost profile.
func closureSteps[A, R any](env *probeEnv, proc uint32, templates bool,
	argM func(*xdr.XDR, *A) error, resM func(*xdr.XDR, *R) error, arg *A, res *R) (codecSteps, error) {
	buf := make([]byte, 0, xdr.DefaultPoolBuf)
	var out []byte // the message the latest encode step produced, in buf
	encode := func(header func(e *xdr.PooledEnc) error, body func(*xdr.XDR) error) func() error {
		return func() error {
			e := xdr.GetEnc(buf[:0])
			defer xdr.PutEnc(e)
			if err := header(e); err != nil {
				return err
			}
			if err := body(&e.X); err != nil {
				return err
			}
			out = e.BS.Buffer()
			return nil
		}
	}
	var s codecSteps
	s[stepCallEncode] = encode(func(e *xdr.PooledEnc) error {
		if templates {
			e.BS.SetBuffer(env.tmpl.AppendCall(buf[:0], probeXID, proc))
			return nil
		}
		hdr := rpcmsg.CallHeader{XID: probeXID, Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers, Proc: proc,
			Cred: rpcmsg.None(), Verf: rpcmsg.None()}
		return hdr.Marshal(&e.X)
	}, func(x *xdr.XDR) error { return argM(x, arg) })
	s[stepReplyEncode] = encode(func(e *xdr.PooledEnc) error {
		if templates {
			env.success.CopyTo(e.BS.Extend(env.success.Len()), probeXID)
			return nil
		}
		rh := rpcmsg.AcceptedReply(probeXID)
		return rh.Marshal(&e.X)
	}, func(x *xdr.XDR) error { return resM(x, res) })
	// Encode once, so that the decode steps have their messages.
	if err := s[stepCallEncode](); err != nil {
		return s, err
	}
	reqMsg := append([]byte(nil), out...)
	if err := s[stepReplyEncode](); err != nil {
		return s, err
	}
	rawMsg := append([]byte(nil), out...)

	s[stepArgsDecode] = func() error {
		if templates {
			// A server with typed registrations tries the fixed-offset
			// parse first and walks the header when the procedure has no
			// typed entry.
			if _, _, _, _, _, ok := rpcmsg.CallBody(reqMsg); !ok {
				return errNotSuccess
			}
		}
		d := xdr.GetDec(reqMsg)
		defer xdr.PutDec(d)
		var hdr rpcmsg.CallHeader
		if err := hdr.Marshal(&d.X); err != nil {
			return err
		}
		var a A
		return argM(&d.X, &a)
	}
	s[stepReplyDecode] = func() error {
		msg := rawMsg
		if templates {
			body, ok := rpcmsg.AcceptedSuccessBody(rawMsg)
			if !ok {
				return errNotSuccess
			}
			msg = body
		}
		d := xdr.GetDec(msg)
		defer xdr.PutDec(d)
		if !templates {
			var rh rpcmsg.ReplyHeader
			if err := rh.Marshal(&d.X); err != nil {
				return err
			}
		}
		return resM(&d.X, new(R))
	}
	return s, nil
}

// typedSteps builds the steps of a procedure called through wire plans, on
// the fused whole-message codecs client.CallTyped and server.RegisterTyped
// fall to when no compiled routine is registered for a plan, which for
// plans compiled here is always (see the note on the wire descriptions).
func typedSteps[A, R any](env *probeEnv, proc uint32, ap *wire.Plan[A], rp *wire.Plan[R], arg *A, res *R) (codecSteps, error) {
	var s codecSteps
	call, err := wire.NewCallPlan(env.tmpl, proc, ap)
	if err != nil {
		return s, err
	}
	reply, err := wire.NewReplyPlan(env.success, rp)
	if err != nil {
		return s, err
	}
	var reqBS, rawBS xdr.BufStream
	s[stepCallEncode] = func() error {
		reqBS.Reset()
		return call.AppendCall(&reqBS, probeXID, arg)
	}
	s[stepReplyEncode] = func() error {
		rawBS.Reset()
		return reply.AppendReply(&rawBS, probeXID, res)
	}
	for _, step := range []int{stepCallEncode, stepReplyEncode} {
		if err := s[step](); err != nil {
			return s, err
		}
	}
	req, raw := append([]byte(nil), reqBS.Buffer()...), append([]byte(nil), rawBS.Buffer()...)
	s[stepArgsDecode] = func() error {
		_, _, _, _, body, ok := rpcmsg.CallBody(req)
		if !ok {
			return errNotSuccess
		}
		var a A
		return ap.Codec().DecodeBody(body, unsafe.Pointer(&a))
	}
	s[stepReplyDecode] = func() error {
		if ok, err := reply.DecodeReply(raw, new(R)); !ok || err != nil {
			return errors.Join(errNotSuccess, err)
		}
		return nil
	}
	return s, nil
}

// shape is one (procedure, argument size) of a workload's mix with the
// share of the workload's calls it carries.
type shape struct {
	calls   float64
	fast    bool       // its procedure gets a whole-call codec; the rest take the closure path
	live    codecSteps // on the top rung the probes can reach
	generic codecSteps // generic-mode plans and generic header marshalers
}

// plansOf compiles a type's plan in the specialized mode the stubs use and
// in the generic mode that is the yardstick.
func plansOf[T any](t *wire.Type) (spec, gen *wire.Plan[T], err error) {
	if spec, err = wire.NewPlan[T](t, wire.Specialized); err != nil {
		return nil, nil, err
	}
	gen, err = wire.NewPlan[T](t, wire.Generic)
	return spec, gen, err
}

// typedShape probes a procedure that the stubs route through wire plans.
// batched marks calls the client sends with CallBatched, which takes a
// marshal closure: their call-encode step is the template+plan one.
func typedShape[A, R any](env *probeEnv, proc uint32, argT, resT *wire.Type, arg *A, res *R, batched bool) (shape, error) {
	sh := shape{fast: true}
	ap, gap, err := plansOf[A](argT)
	if err != nil {
		return sh, err
	}
	rp, grp, err := plansOf[R](resT)
	if err != nil {
		return sh, err
	}
	if sh.live, err = typedSteps(env, proc, ap, rp, arg, res); err != nil {
		return sh, err
	}
	if batched {
		cs, err := closureSteps(env, proc, true, ap.Marshal, rp.Marshal, arg, res)
		if err != nil {
			return sh, err
		}
		sh.live[stepCallEncode] = cs[stepCallEncode]
	}
	sh.generic, err = closureSteps(env, proc, false, gap.Marshal, grp.Marshal, arg, res)
	return sh, err
}

// shapesOf probes every distinct (kind, size) in a caller's sequence,
// weighted by the calls it carries.
func shapesOf(env *probeEnv, ops []op) ([]shape, error) {
	type key struct {
		kind opKind
		n    int
	}
	index := map[key]int{}
	var shapes []shape
	add := func(k key, calls float64, build func() (shape, error)) error {
		i, ok := index[k]
		if !ok {
			sh, err := build()
			if err != nil {
				return err
			}
			i = len(shapes)
			index[k] = i
			shapes = append(shapes, sh)
		}
		shapes[i].calls += calls
		return nil
	}
	h := &handler{}
	for i := range ops {
		o := &ops[i]
		var err error
		switch o.kind {
		case opScale:
			err = add(key{o.kind, len(o.nums)}, 1, func() (shape, error) {
				arg := append(ct.Numbers(nil), o.nums...)
				res, _ := h.Scale(&arg)
				return typedShape(env, ct.ShapeProgV2ProcScale, numbersT, numbersT, &o.nums, res, false)
			})
		case opSum, opBatch8:
			sum := func(batched bool) func() (shape, error) {
				return func() (shape, error) {
					return typedShape(env, ct.ShapeProgV2ProcSum, numbersT, wire.Int32T(), &o.nums, &o.sum, batched)
				}
			}
			if err = add(key{opSum, len(o.nums)}, 1, sum(false)); err == nil && o.kind == opBatch8 {
				err = add(key{opBatch8, len(o.nums)}, batchSize-1, sum(true))
			}
		case opMix:
			err = add(key{o.kind, 0}, 1, func() (shape, error) {
				return typedShape(env, ct.ShapeProgV2ProcMix, sampleT, sampleT, &o.mix, &o.mix, false)
			})
		case opLookup:
			err = add(key{o.kind, 0}, 1, func() (shape, error) {
				res, _ := h.Lookup(&o.pt)
				argM := func(x *xdr.XDR, v *ct.Point) error { return v.Marshal(x) }
				resM := func(x *xdr.XDR, v *ct.LookupResult) error { return v.Marshal(x) }
				var sh shape
				var err error
				if sh.live, err = closureSteps(env, ct.ShapeProgV2ProcLookup, true, argM, resM, &o.pt, res); err != nil {
					return sh, err
				}
				sh.generic, err = closureSteps(env, ct.ShapeProgV2ProcLookup, false, argM, resM, &o.pt, res)
				return sh, err
			})
		}
		if err != nil {
			return nil, err
		}
	}
	return shapes, nil
}

// wireProbes times the codec steps of the workload's shapes, weighted by
// the mix, on the live rung and on the generic one.
func wireProbes(env *probeEnv, ops []op, budget time.Duration, m metrics) error {
	shapes, err := shapesOf(env, ops)
	if err != nil {
		return err
	}
	var firstErr error
	run := func(step func() error) func() {
		return func() {
			if err := step(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	var total, fast, allocs, generic float64
	var live [nSteps]float64
	for _, sh := range shapes {
		total += sh.calls
		if sh.fast {
			fast += sh.calls
		}
		for i := 0; i < nSteps; i++ {
			live[i] += sh.calls * timeLoop(budget, run(sh.live[i]))
			allocs += sh.calls * allocsPer(run(sh.live[i]))
			generic += sh.calls * timeLoop(budget, run(sh.generic[i]))
		}
	}
	if firstErr != nil {
		return firstErr
	}
	var liveSum float64
	for i, name := range stepMetrics {
		m[name] = live[i] / total
		liveSum += live[i]
	}
	m["wire.codec_allocs_per_call"] = allocs / total
	m["wire.generic_codec_ns"] = generic / total
	m["wire.spec_speedup"] = generic / liveSum
	m["wire.fastpath_share"] = fast / total
	return nil
}

// planProbes times what a first call pays once: compiling the plan and
// the whole-message codecs of the largest stub type, and deriving a plan
// through the partial evaluator, which happens at no call today.
func planProbes(env *probeEnv, budget time.Duration, m metrics) error {
	var firstErr error
	m["wire.compile_plan_us"] = timeLoop(budget, func() {
		p, err := wire.NewPlan[ct.Sample](sampleT, wire.Specialized)
		if err == nil {
			_, err = wire.NewCallPlan(env.tmpl, ct.ShapeProgV2ProcMix, p)
		}
		if err == nil {
			_, err = wire.NewReplyPlan(env.success, p)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}) / 1e3
	m["wire.derive_plan_ms"] = timeLoop(budget, func() {
		if _, err := wire.DerivePlan[ct.Numbers](numbersT, wire.Specialized); err != nil && firstErr == nil {
			firstErr = err
		}
	}) / 1e6
	return firstErr
}

// ---------------------------------------------------------------------------
// rpcmsg and xdr.

// sink keeps the compiler from dropping a probe's result.
var sink int

func headerProbes(env *probeEnv, budget time.Duration, m metrics) {
	buf := make([]byte, 0, 128)
	call := env.tmpl.AppendCall(nil, probeXID, ct.ShapeProgV2ProcScale)
	reply := env.success.AppendReply(nil, probeXID)
	m["rpcmsg.call_hdr_encode_ns"] = timeLoop(budget, func() {
		sink += len(env.tmpl.AppendCall(buf[:0], probeXID, ct.ShapeProgV2ProcScale))
	})
	m["rpcmsg.call_hdr_parse_ns"] = timeLoop(budget, func() {
		_, _, _, proc, _, _ := rpcmsg.CallBody(call)
		sink += int(proc)
	})
	m["rpcmsg.reply_hdr_encode_ns"] = timeLoop(budget, func() {
		sink += len(env.success.AppendReply(buf[:0], probeXID))
	})
	m["rpcmsg.reply_hdr_parse_ns"] = timeLoop(budget, func() {
		body, _ := rpcmsg.AcceptedSuccessBody(reply)
		sink += len(body)
	})
}

// memEnd is the in-memory end of a record stream: writes vanish, reads
// replay one framed record for ever.
type memEnd struct {
	frame []byte
	off   int
}

func (m *memEnd) Write(p []byte) (int, error) { return len(p), nil }

func (m *memEnd) Read(p []byte) (int, error) {
	n := copy(p, m.frame[m.off:])
	m.off = (m.off + n) % len(m.frame)
	return n, nil
}

// recordProbes times the record layer and the buffer pool at the size of
// the workload's mean request message.
func recordProbes(size int, budget time.Duration, m metrics) error {
	frame := make([]byte, xdr.RecordMarkLen+size)
	end := &memEnd{frame: frame}
	rec := xdr.NewRecStream(end, 0)
	var firstErr error
	m["xdr.rec_write_ns"] = timeLoop(budget, func() {
		if err := rec.WriteRecord(frame); err != nil && firstErr == nil { // also patches the mark the reads need
			firstErr = err
		}
	})
	dst := make([]byte, 0, len(frame))
	m["xdr.rec_read_ns"] = timeLoop(budget, func() {
		out, err := rec.ReadRecord(dst[:0])
		if (err != nil || len(out) != size) && firstErr == nil {
			firstErr = fmt.Errorf("read back %d of %d record bytes: %v", len(out), size, err)
		}
	})
	m["xdr.buf_pool_ns"] = timeLoop(budget, func() { xdr.PutBuf(xdr.GetBuf(len(frame))) })
	return firstErr
}

// ---------------------------------------------------------------------------
// Whole-rig probes.

// netsimProbe runs the workload's calls one at a time through the same
// stubs over the in-process datagram network: the user-space cost of a
// call with no socket under it. Datagrams cannot batch, so a tcp_batch8
// group goes as plain Sum calls.
func netsimProbe(ops []op, budget time.Duration) (float64, error) {
	nw := netsim.New()
	srv := server.New()
	ct.RegisterShapeProgV2(srv, &handler{})
	srvEnd := nw.Attach("server")
	serve("serve netsim", func() error { return srv.ServeUDP(srvEnd) })
	defer srv.Close()
	udp := client.NewUDP(nw.Attach("client"), srvEnd.LocalAddr(),
		client.Config{Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers})
	defer udp.Close()
	c := &caller{udp: udp, ops: append([]op(nil), ops...)}
	c.stubs.C = udp
	for i := range c.ops {
		if c.ops[i].kind == opBatch8 {
			c.ops[i].kind = opSum
		}
	}
	failed := 0
	ns := timeLoop(budget, func() {
		if !c.do(c.nextOp()) {
			failed++
		}
	})
	if failed > 0 {
		return 0, fmt.Errorf("netsim: %d operations failed", failed)
	}
	return ns, nil
}

// getPortProbe times one GETPORT round trip over loopback UDP.
func getPortProbe(budget time.Duration) (float64, error) {
	pm := server.New()
	reg := pmap.NewRegistry()
	pmap.RegisterService(pm, reg)
	reg.Set(pmap.Mapping{Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers, Prot: pmap.IPProtoUDP, Port: 1})
	pmConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	serve("serve portmapper", func() error { return pm.ServeUDP(pmConn) })
	defer pm.Close()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	udp := client.NewUDP(conn, pmConn.LocalAddr(), pmap.ClientConfig())
	defer udp.Close()
	pc := pmap.NewClient(udp)
	var firstErr error
	ns := timeLoop(budget, func() {
		if port, err := pc.GetPort(ct.ShapeProgV2Prog, ct.ShapeProgV2Vers, pmap.IPProtoUDP); (err != nil || port != 1) && firstErr == nil {
			firstErr = fmt.Errorf("GETPORT returned %d, %v", port, err)
		}
	})
	return ns / 1e3, firstErr
}

// coldSetups builds the rig from nothing several times, each up to the
// first verified reply of every procedure, and returns the median in us.
// It is the set-up a short-lived client pays; the end-to-end setup_s adds
// the warm-up, which steadies it.
func coldSetups(w *workload, ops [][]op, n int) (float64, error) {
	times := make([]float64, n)
	for i := range times {
		start := time.Now()
		r, err := buildRig(w, ops, nil)
		if err != nil {
			return 0, err
		}
		err = r.firstReplies()
		times[i] = float64(time.Since(start)) / 1e3
		r.close()
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// shapeX is the IDL the committed stubs were generated from, kept here as
// the fixed input of the rpcgen probe.
//
//go:embed shape.x
var shapeX string

// rpcgenProbe parses and emits the IDL with compiled codecs: build-time
// work, watched for the size of what the emitter prints.
func rpcgenProbe(budget time.Duration, m metrics) error {
	var src string
	var firstErr error
	m["rpcgen.generate_ms"] = timeLoop(budget, func() {
		spec, err := rpcgen.Parse(shapeX)
		if err == nil {
			src, err = rpcgen.GenerateGo(spec, rpcgen.GoOptions{Package: "shape", Compiled: true})
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}) / 1e6
	m["rpcgen.emitted_bytes"] = float64(len(src))
	return firstErr
}

// mmsgActive reports whether batchio moves several datagrams per syscall
// on a loopback UDP socket of this host, as the server's own wrapper does.
func mmsgActive() (float64, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer pc.Close()
	if batchio.New(pc, server.DefaultDatagramBatch).Batched() {
		return 1, nil
	}
	return 0, nil
}

// meanRequestSize is the mix-weighted size of the workload's request
// messages, taken from what the stubs' plans encode.
func meanRequestSize(env *probeEnv, ops []op) (int, error) {
	var bytes, calls int
	for i := range ops {
		o := &ops[i]
		e := xdr.GetEnc(env.tmpl.AppendCall(nil, probeXID, 0))
		var err error
		switch o.kind {
		case opMix:
			err = o.mix.Marshal(&e.X)
		case opLookup:
			err = o.pt.Marshal(&e.X)
		default:
			err = o.nums.Marshal(&e.X)
		}
		n := len(e.BS.Buffer())
		xdr.PutEnc(e)
		if err != nil {
			return 0, err
		}
		bytes += n * int(o.calls())
		calls += int(o.calls())
	}
	return bytes / calls, nil
}
