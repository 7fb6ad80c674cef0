package bench

// Open-loop mode: the closed-loop throughput harness (throughput.go)
// can only show how fast the pipeline spins when every caller waits for
// its reply — under overload it politely slows down with the server and
// the tail disappears from view. Here arrivals come from a Poisson
// process at a configured offered rate, independent of completions, and
// every latency is measured from the *scheduled* arrival instant, so
// queueing delay (and scheduler overshoot) is charged to the server the
// way a real user would experience it — the coordinated-omission-free
// measurement. Sustained p50/p99/p999 under a rate grid is the metric
// that decides whether shared server state costs anything: a contended
// lock shows up as a fat tail long before it shows up in mean
// throughput.

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/server"
	"specrpc/internal/xdr"
)

// OpenLoopOptions configures one open-loop run.
type OpenLoopOptions struct {
	// Transport: "sim", "udp", or "tcp" (as in ThroughputOptions).
	Transport string
	// Conns is the number of client connections arrivals round-robin
	// over. Default 4.
	Conns int
	// Depth bounds the in-flight calls per connection: an arrival that
	// finds its connection saturated is dropped and counted, mirroring
	// the server's counted-drop admission policy. Default 16.
	Depth int
	// Rate is the offered arrival rate in calls/sec (Poisson). Default 2000.
	Rate float64
	// Duration is the arrival window. Default 1s.
	Duration time.Duration
	// ArraySize is the number of int32s echoed per call. Default 20.
	ArraySize int
	// Workers overrides the server worker bound (0 = server default).
	Workers int
	// Seed fixes the arrival process (0 = seed 1, for reproducibility).
	Seed int64
}

func (o *OpenLoopOptions) fill() {
	if o.Transport == "" {
		o.Transport = "sim"
	}
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.Depth <= 0 {
		o.Depth = 16
	}
	if o.Rate <= 0 {
		o.Rate = 2000
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.ArraySize <= 0 {
		o.ArraySize = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// OpenLoopResult is one measured configuration. Latency quantiles are
// in microseconds, measured from each call's scheduled Poisson arrival.
type OpenLoopResult struct {
	Transport    string  `json:"transport"`
	Conns        int     `json:"conns"`
	Depth        int     `json:"depth"`
	ArraySize    int     `json:"n"`
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	Offered      int64   `json:"offered"`
	Completed    int64   `json:"completed"`
	Dropped      int64   `json:"dropped"` // shed client-side at full depth
	Errors       int64   `json:"errors"`
	P50Us        float64 `json:"p50_us"`
	P90Us        float64 `json:"p90_us"`
	P99Us        float64 `json:"p99_us"`
	P999Us       float64 `json:"p999_us"`
	MaxUs        float64 `json:"max_us"`
}

// loadRig is one live echo service plus n client connections, shared by
// the closed- and open-loop harnesses.
type loadRig struct {
	callers []client.Caller
	srv     *server.Server
	extra   []func() error // transport handles closed on teardown
}

func (r *loadRig) close() {
	for _, c := range r.callers {
		_ = c.Close()
	}
	_ = r.srv.Close()
	for _, f := range r.extra {
		_ = f()
	}
}

// newLoadRig builds the echo server over the named transport and dials
// clients connections to it.
func newLoadRig(transport string, clients int, g *gauge, srvOpts ...server.Option) (*loadRig, error) {
	s := newLoadServer(g, srvOpts...)
	r := &loadRig{srv: s}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	switch transport {
	case "sim":
		n := netsim.New()
		ep := n.Attach("server")
		go func() { _ = s.ServeUDP(ep) }()
		for i := 0; i < clients; i++ {
			cep := n.Attach(netsim.Addr(fmt.Sprintf("client-%d", i)))
			r.callers = append(r.callers, client.NewUDP(cep, netsim.Addr("server"), loadConfig(i)))
		}
	case "udp":
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: loopback udp: %w", err)
		}
		// Closed on teardown as well as by s.Close(): if setup errors out
		// below, Close may run before the serve goroutine has registered
		// pc with the server, which would leave the serve loop blocked
		// forever.
		r.extra = append(r.extra, pc.Close)
		go func() { _ = s.ServeUDP(pc) }()
		for i := 0; i < clients; i++ {
			cc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("bench: client socket: %w", err)
			}
			r.callers = append(r.callers, client.NewUDP(cc, pc.LocalAddr(), loadConfig(i)))
		}
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("bench: loopback tcp: %w", err)
		}
		r.extra = append(r.extra, ln.Close) // see the udp case
		go func() { _ = s.ServeTCP(ln) }()
		for i := 0; i < clients; i++ {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, fmt.Errorf("bench: dial: %w", err)
			}
			r.callers = append(r.callers, client.NewTCP(conn, loadConfig(i)))
		}
	default:
		return nil, fmt.Errorf("bench: unknown transport %q", transport)
	}
	ok = true
	return r, nil
}

// OpenLoop runs one open-loop configuration and reports the tail.
func OpenLoop(o OpenLoopOptions) (OpenLoopResult, error) {
	o.fill()
	var srvOpts []server.Option
	if o.Workers > 0 {
		srvOpts = append(srvOpts, server.WithWorkers(o.Workers))
	}
	rig, err := newLoadRig(o.Transport, o.Conns, newGauge(0), srvOpts...)
	if err != nil {
		return OpenLoopResult{}, err
	}
	defer rig.close()

	var (
		hist      histogram
		completed atomic.Int64
		errCount  atomic.Int64
		dropped   int64
		offered   int64
		wg        sync.WaitGroup
	)
	// Per-connection depth tokens: an arrival beyond Depth in-flight
	// calls on its connection is shed (counted), not queued — queueing
	// client-side would hide server latency behind generator latency.
	sems := make([]chan struct{}, o.Conns)
	for i := range sems {
		sems[i] = make(chan struct{}, o.Depth)
	}
	argPool := sync.Pool{New: func() any {
		in := make([]int32, o.ArraySize)
		for i := range in {
			in[i] = int32(i)
		}
		return &in
	}}

	// spinWindow is how close to an arrival the generator switches from
	// sleeping to spinning on the clock. It must exceed the runtime's
	// typical sleep overshoot (hundreds of microseconds on a loaded
	// host), or the overshoot lands inside every measured latency. On a
	// host with only a core or two the generator and the system under
	// test share CPUs, and spinning would starve the server it measures:
	// there we sleep to the schedule and accept the overshoot — it is
	// charged identically to every configuration under comparison.
	spinWindow := 2 * time.Millisecond
	if runtime.GOMAXPROCS(0) <= 2 {
		spinWindow = 0
	}
	rng := rand.New(rand.NewSource(o.Seed))
	start := time.Now()
	deadline := start.Add(o.Duration)
	next := start
	for i := 0; ; i++ {
		// Exponential inter-arrival gaps make the schedule Poisson; the
		// schedule never slips to completions (that would be closed-loop),
		// so falling behind surfaces as latency, not as a lower rate.
		next = next.Add(time.Duration(rng.ExpFloat64() / o.Rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		// Sleep coarse, spin fine (see spinWindow above): runtime timers
		// overshoot, and the overshoot is charged to the call since
		// latency is measured from the scheduled instant.
		if d := time.Until(next); d > spinWindow {
			time.Sleep(d - spinWindow)
		}
		for spinWindow > 0 && time.Now().Before(next) {
			runtime.Gosched()
		}
		offered++
		ci := i % o.Conns
		select {
		case sems[ci] <- struct{}{}:
		default:
			dropped++
			continue
		}
		wg.Add(1)
		go func(c client.Caller, sched time.Time, sem chan struct{}) {
			defer wg.Done()
			defer func() { <-sem }()
			inp := argPool.Get().(*[]int32)
			defer argPool.Put(inp)
			var out []int32
			err := c.Call(loadEcho,
				func(x *xdr.XDR) error { return xdr.Array(x, inp, xdr.NoSizeLimit, (*xdr.XDR).Long) },
				func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
			if err != nil {
				errCount.Add(1)
				return
			}
			hist.record(time.Since(sched))
			completed.Add(1)
		}(rig.callers[ci], next, sems[ci])
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := OpenLoopResult{
		Transport:   o.Transport,
		Conns:       o.Conns,
		Depth:       o.Depth,
		ArraySize:   o.ArraySize,
		OfferedRate: o.Rate,
		Offered:     offered,
		Completed:   completed.Load(),
		Dropped:     dropped,
		Errors:      errCount.Load(),
		P50Us:       us(hist.quantile(0.50)),
		P90Us:       us(hist.quantile(0.90)),
		P99Us:       us(hist.quantile(0.99)),
		P999Us:      us(hist.quantile(0.999)),
		MaxUs:       us(hist.max()),
	}
	if elapsed > 0 {
		res.AchievedRate = float64(res.Completed) / elapsed.Seconds()
	}
	return res, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// OpenLoopGrid measures each configuration reps times and reports the
// median-p99 run per configuration. Open-loop tails on a shared (or
// single-core) host are dominated by scheduling outliers, so a single
// run is one host stall away from nonsense; the rounds interleave the
// configurations (A B A B ... rather than A A B B) so slow host drift
// biases no single one, and the median rep is the noise-aware point
// estimate.
func OpenLoopGrid(opts []OpenLoopOptions, reps int) ([]OpenLoopResult, error) {
	if reps < 1 {
		reps = 1
	}
	runs := make([][]OpenLoopResult, len(opts))
	for r := 0; r < reps; r++ {
		for i, o := range opts {
			res, err := OpenLoop(o)
			if err != nil {
				return nil, err
			}
			runs[i] = append(runs[i], res)
		}
	}
	out := make([]OpenLoopResult, len(opts))
	for i, rs := range runs {
		sort.Slice(rs, func(a, b int) bool { return rs[a].P99Us < rs[b].P99Us })
		out[i] = rs[len(rs)/2]
	}
	return out, nil
}

// FormatOpenLoop renders the open-loop grid with its latency tail.
func FormatOpenLoop(rows []OpenLoopResult) string {
	var sb strings.Builder
	sb.WriteString("Open loop: Poisson arrivals, latency from scheduled arrival\n")
	fmt.Fprintf(&sb, "%-9s %6s %6s %10s %10s %6s %5s %10s %10s %10s %10s\n",
		"Transport", "Conns", "Depth", "Offer/s", "Achieved/s", "Drop", "Err", "p50(us)", "p99(us)", "p999(us)", "max(us)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s %6d %6d %10.0f %10.0f %6d %5d %10.1f %10.1f %10.1f %10.1f\n",
			r.Transport, r.Conns, r.Depth, r.OfferedRate, r.AchievedRate,
			r.Dropped, r.Errors, r.P50Us, r.P99Us, r.P999Us, r.MaxUs)
	}
	return sb.String()
}
