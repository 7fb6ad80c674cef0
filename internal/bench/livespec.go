package bench

// Live specialization mode: the paper's Generic/Specialized comparison
// (§5, Tables 1/2) measured on the real concurrent transport instead of
// the VM cost models. (Table 4's bounded unrolling stays in the model
// track, sunbench -table 4: live it measured no different from
// Specialized.) One echo server exposes the same int-array procedure
// once per codec configuration;
// the harness drives each over netsim, UDP loopback, and TCP loopback
// across the paper's array-size grid and reports wall-clock latency and
// throughput. The numbers are measured, not modeled — this is the
// paper's claim transplanted onto the live wire path.

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"specrpc/internal/bench/livespecrpc"
	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/server"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// Live-spec service identity (distinct from the paper-table and
// throughput programs).
const (
	liveProg = uint32(0x20000532)
	liveVers = uint32(1)
)

// Procedure numbers: one echo per codec configuration.
var liveProcs = map[wire.Mode]uint32{
	wire.Generic:     1,
	wire.Specialized: 2,
}

// liveProcFused is the whole-call configuration: the same specialized
// plan, but registered and called through the typed entry points so the
// header template and argument plan execute as one fused codec.
const liveProcFused = uint32(4)

// liveProcCompiled is the compiled-stub configuration: the generated
// livespecrpc plan through the same typed entry points, so marshaling
// runs the rpcgen-emitted straight-line codecs instead of the fused
// interpreter. Same bytes on the wire, different marshaling engine.
const liveProcCompiled = uint32(5)

// FusedSeries names the fused configuration in results and reports.
const FusedSeries = "fused"

// CompiledSeries names the compiled-stub configuration.
const CompiledSeries = "compiled"

// LiveModes lists the plan configurations in presentation order; the
// fused and compiled series ride alongside them.
var LiveModes = []wire.Mode{wire.Generic, wire.Specialized}

// livePlans compiles the int-array echo plan per mode, once.
var livePlans = map[wire.Mode]*wire.Plan[[]int32]{
	wire.Generic:     wire.MustPlan[[]int32](wire.VarArrayT(0, wire.Int32T()), wire.Generic),
	wire.Specialized: wire.MustPlan[[]int32](wire.VarArrayT(0, wire.Int32T()), wire.Specialized),
}

// LivePlan returns the compiled int-array plan for a configuration; the
// benchmarks and the harness share these.
func LivePlan(m wire.Mode) *wire.Plan[[]int32] { return livePlans[m] }

// LiveSpecOptions configures one live comparison run.
type LiveSpecOptions struct {
	// Transports to measure: any of "sim", "udp", "tcp". Default all.
	Transports []string
	// Sizes is the int-array grid. Default the paper's Sizes.
	Sizes []int
	// Calls per (transport, size, mode) measurement. Default 2000.
	Calls int
	// Warmup calls before each measurement. Default 50.
	Warmup int
	// Reps runs the whole grid this many times — complete passes, so
	// host drift lands on every series alike, the open-loop harness's
	// interleaving — and reports the per-point median. Default 1.
	Reps int
}

func (o *LiveSpecOptions) fill() {
	if len(o.Transports) == 0 {
		o.Transports = []string{"sim", "udp", "tcp"}
	}
	if len(o.Sizes) == 0 {
		o.Sizes = Sizes
	}
	if o.Calls <= 0 {
		o.Calls = 2000
	}
	if o.Warmup <= 0 {
		o.Warmup = 50
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
}

// LiveSpecResult is one measured (transport, size, mode) point.
type LiveSpecResult struct {
	Transport   string  `json:"transport"`
	Mode        string  `json:"mode"`
	N           int     `json:"n"`
	Calls       int     `json:"calls"`
	NsPerCall   float64 `json:"ns_per_call"`
	CallsPerSec float64 `json:"calls_per_sec"`
}

// newLiveServer builds the echo server: the plan configurations
// register through explicit closures — pinning them to the
// template+plan reply encoding (success template, then the closure on a
// pooled handle), so their series keep measuring what they measured
// before fusion existed — and the fused configuration registers through
// RegisterTyped, whose handler appends the fused success reply. Both
// kinds are reached through the server's one fixed-offset dispatch.
func newLiveServer() *server.Server {
	s := server.New()
	for _, m := range LiveModes {
		plan := livePlans[m]
		s.Register(liveProg, liveVers, liveProcs[m], func(dec *xdr.XDR) (server.Marshal, error) {
			var arr []int32
			if err := plan.Marshal(dec, &arr); err != nil {
				return nil, errors.Join(server.ErrGarbageArgs, err)
			}
			return func(enc *xdr.XDR) error { return plan.Marshal(enc, &arr) }, nil
		})
	}
	sp := livePlans[wire.Specialized]
	server.RegisterTyped(s, liveProg, liveVers, liveProcFused, sp, sp,
		func(arg *[]int32) (*[]int32, error) { return arg, nil })
	cp := livespecrpc.PlanArr
	server.RegisterTyped(s, liveProg, liveVers, liveProcCompiled, cp, cp,
		func(arg *livespecrpc.Livearr) (*livespecrpc.Livearr, error) { return arg, nil })
	return s
}

// liveClient dials one caller for a transport, returning a cleanup.
func liveClient(transport string, s *server.Server) (client.Caller, func(), error) {
	cfg := client.Config{Prog: liveProg, Vers: liveVers, Timeout: 30 * time.Second}
	switch transport {
	case "sim":
		n := netsim.New()
		ep := n.Attach("server")
		go func() { _ = s.ServeUDP(ep) }()
		cep := n.Attach("client")
		c := client.NewUDP(cep, netsim.Addr("server"), cfg)
		return c, func() { _ = c.Close() }, nil
	case "udp":
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("bench: loopback udp: %w", err)
		}
		go func() { _ = s.ServeUDP(pc) }()
		cc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			pc.Close()
			return nil, nil, fmt.Errorf("bench: client socket: %w", err)
		}
		c := client.NewUDP(cc, pc.LocalAddr(), cfg)
		return c, func() { _ = c.Close() }, nil
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("bench: loopback tcp: %w", err)
		}
		go func() { _ = s.ServeTCP(ln) }()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			ln.Close()
			return nil, nil, fmt.Errorf("bench: dial: %w", err)
		}
		c := client.NewTCP(conn, cfg)
		return c, func() { _ = c.Close() }, nil
	default:
		return nil, nil, fmt.Errorf("bench: unknown transport %q", transport)
	}
}

// LiveSpec measures the codec configurations over the requested
// transports and sizes. Calls are sequential (one in flight): this is a
// latency comparison of the marshaling layers, not a pipelining test —
// Throughput covers that. With Reps > 1 each point reports the median
// of that many complete grid passes, so a committed baseline carries
// the same estimator the bench-diff gate measures against it.
func LiveSpec(o LiveSpecOptions) ([]LiveSpecResult, error) {
	o.fill()
	reps := make([][]LiveSpecResult, 0, o.Reps)
	for i := 0; i < o.Reps; i++ {
		one, err := liveSpecOnce(o)
		if err != nil {
			return nil, err
		}
		reps = append(reps, one)
	}
	if len(reps) == 1 {
		return reps[0], nil
	}
	// Pass order is identical across reps, so merge positionally.
	merged := make([]LiveSpecResult, len(reps[0]))
	ns := make([]float64, len(reps))
	for i := range merged {
		for j, rep := range reps {
			ns[j] = rep[i].NsPerCall
		}
		sort.Float64s(ns)
		m := ns[len(ns)/2]
		if len(ns)%2 == 0 {
			m = (ns[len(ns)/2-1] + ns[len(ns)/2]) / 2
		}
		merged[i] = reps[0][i]
		merged[i].NsPerCall = m
		merged[i].CallsPerSec = 0
		if m > 0 {
			merged[i].CallsPerSec = 1e9 / m
		}
	}
	return merged, nil
}

func liveSpecOnce(o LiveSpecOptions) ([]LiveSpecResult, error) {
	var results []LiveSpecResult
	for _, tr := range o.Transports {
		s := newLiveServer()
		c, cleanup, err := liveClient(tr, s)
		if err != nil {
			s.Close()
			return nil, err
		}
		for _, n := range o.Sizes {
			in := make([]int32, n)
			for i := range in {
				in[i] = int32(i * 13)
			}
			out := make([]int32, n)

			// The plan series call through explicit closures — the
			// pre-fusion template+plan client path — and the fused series
			// through CallTyped, which routes onto the whole-call codec.
			type series struct {
				name string
				call func() error
			}
			var runs []series
			for _, m := range LiveModes {
				plan := livePlans[m]
				proc := liveProcs[m]
				am := func(x *xdr.XDR) error { return plan.Marshal(x, &in) }
				rm := func(x *xdr.XDR) error { return plan.Marshal(x, &out) }
				runs = append(runs, series{m.String(), func() error { return c.Call(proc, am, rm) }})
			}
			sp := livePlans[wire.Specialized]
			runs = append(runs, series{FusedSeries, func() error {
				return client.CallTyped(c, liveProcFused, sp, &in, sp, &out)
			}})
			cp := livespecrpc.PlanArr
			cin, cout := (*livespecrpc.Livearr)(&in), (*livespecrpc.Livearr)(&out)
			runs = append(runs, series{CompiledSeries, func() error {
				return client.CallTyped(c, liveProcCompiled, cp, cin, cp, cout)
			}})
			for _, sr := range runs {
				doCall := sr.call
				call := func() error {
					if err := doCall(); err != nil {
						return fmt.Errorf("bench: %s/%s/N=%d: %w", tr, sr.name, n, err)
					}
					if len(out) != n || (n > 0 && out[n-1] != in[n-1]) {
						return fmt.Errorf("bench: %s/%s/N=%d: bad echo", tr, sr.name, n)
					}
					return nil
				}
				for i := 0; i < o.Warmup; i++ {
					if err := call(); err != nil {
						cleanup()
						s.Close()
						return nil, err
					}
				}
				start := time.Now()
				for i := 0; i < o.Calls; i++ {
					if err := call(); err != nil {
						cleanup()
						s.Close()
						return nil, err
					}
				}
				elapsed := time.Since(start)
				r := LiveSpecResult{
					Transport: tr, Mode: sr.name, N: n, Calls: o.Calls,
					NsPerCall: float64(elapsed.Nanoseconds()) / float64(o.Calls),
				}
				if elapsed > 0 {
					r.CallsPerSec = float64(o.Calls) / elapsed.Seconds()
				}
				results = append(results, r)
			}
		}
		cleanup()
		s.Close()
	}
	return results, nil
}

// FormatLiveSpec renders the comparison grouped per transport, one row
// per size with the configurations side by side and each one's speedup
// over generic — the live rendering of Table 2's layout.
func FormatLiveSpec(rows []LiveSpecResult) string {
	type key struct {
		tr string
		n  int
	}
	byPoint := map[key]map[string]float64{}
	var order []key
	for _, r := range rows {
		k := key{r.Transport, r.N}
		if byPoint[k] == nil {
			byPoint[k] = map[string]float64{}
			order = append(order, k)
		}
		byPoint[k][r.Mode] = r.NsPerCall
	}
	type column struct{ series, title, speedup string }
	cols := []column{
		{"generic", "Generic", ""}, {"specialized", "Specialized", "Spd(S)"},
		{FusedSeries, "Fused", "Spd(F)"}, {CompiledSeries, "Compiled", "Spd(X)"},
	}
	var sb strings.Builder
	sb.WriteString("Live specialization: round-trip µs/call by marshal configuration (echo of 4-byte ints)\n")
	fmt.Fprintf(&sb, "%-9s %6s", "Transport", "N")
	for _, c := range cols {
		fmt.Fprintf(&sb, " %12s", c.title)
	}
	for _, c := range cols[1:] {
		fmt.Fprintf(&sb, " %8s", c.speedup)
	}
	sb.WriteString("\n")
	last := ""
	for _, k := range order {
		if last != "" && last != k.tr {
			sb.WriteString("\n")
		}
		last = k.tr
		ns := byPoint[k]
		fmt.Fprintf(&sb, "%-9s %6d", k.tr, k.n)
		for _, c := range cols {
			fmt.Fprintf(&sb, " %12.1f", ns[c.series]/1e3)
		}
		for _, c := range cols[1:] {
			spd := 0.0
			if ns[c.series] > 0 {
				spd = ns["generic"] / ns[c.series]
			}
			fmt.Fprintf(&sb, " %8.2f", spd)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
