package bench

// Chaos mode: goodput under a seeded fault schedule. Where the
// throughput and open-loop harnesses measure the fast path, this one
// measures the fault-tolerance layer — every call runs under a
// RetryPolicy while the transport drops, duplicates, reorders, or
// resets traffic, and the result carries the retry/reconnect counters
// alongside goodput. The counters are the point: BENCH_live.json's
// "chaos" series is gated structurally (the machinery fired and the
// calls landed), never on ns/op, because goodput under randomized
// faults is not a stable timing series.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/faultconn"
	"specrpc/internal/netsim"
	"specrpc/internal/server"
	"specrpc/internal/xdr"
)

// ChaosOptions configures one chaos run.
type ChaosOptions struct {
	// Transport: "sim" (netsim link faults), "udp" (faultconn packet
	// faults on real sockets), or "tcp" (faultconn resets/short writes
	// on real connections, exercising reconnect).
	Transport string
	// Conns is the number of concurrent client connections. Default 4.
	Conns int
	// Calls is the total number of calls across all connections.
	// Default 400.
	Calls int
	// Loss is the headline fault intensity in [0, 1): datagram loss rate
	// on sim/udp; scaled into reset/split rates on tcp. Default 0.1.
	Loss float64
	// ArraySize is the number of int32s echoed per call. Default 20.
	ArraySize int
	// Seed fixes the fault schedule (0 = seed 1).
	Seed int64
}

func (o *ChaosOptions) fill() {
	if o.Transport == "" {
		o.Transport = "sim"
	}
	if o.Conns <= 0 {
		o.Conns = 4
	}
	if o.Calls <= 0 {
		o.Calls = 400
	}
	if o.Loss <= 0 {
		o.Loss = 0.1
	}
	if o.ArraySize <= 0 {
		o.ArraySize = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ChaosResult is one measured chaos configuration.
type ChaosResult struct {
	Transport   string  `json:"transport"`
	Conns       int     `json:"conns"`
	Calls       int     `json:"calls"`
	Loss        float64 `json:"loss"`
	Seed        int64   `json:"seed"`
	Acked       int64   `json:"acked"`
	Errors      int64   `json:"errors"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	GoodputPS   float64 `json:"goodput_per_sec"`
	Retransmits uint64  `json:"retransmits"`
	Retries     uint64  `json:"retries"`
	Reconnects  uint64  `json:"reconnects"`
	BudgetDeny  uint64  `json:"budget_denied"`
	CacheHits   uint64  `json:"cache_hits"` // server reply-cache hits (datagram transports)
	Injected    uint64  `json:"injected"`   // faults the schedule actually fired
}

// chaosPolicy is the retry schedule every chaos client runs under:
// enough attempts to ride out the configured fault rates, short jittered
// backoff so runs stay fast, unlimited budget (the harness measures the
// machinery, not the brake).
func chaosPolicy() *client.RetryPolicy {
	return &client.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		BudgetRate:  -1,
	}
}

// Chaos runs one configuration and reports goodput plus the fault and
// recovery counters.
func Chaos(o ChaosOptions) (ChaosResult, error) {
	o.fill()
	res := ChaosResult{
		Transport: o.Transport, Conns: o.Conns, Calls: o.Calls,
		Loss: o.Loss, Seed: o.Seed,
	}

	g := newGauge(0)
	s := newLoadServer(g, server.WithCacheSize(4096))
	var callers []client.Caller
	var cleanup []func() error
	defer func() {
		for _, c := range callers {
			_ = c.Close()
		}
		_ = s.Close()
		for _, f := range cleanup {
			_ = f()
		}
	}()

	injected := func() uint64 { return 0 }
	switch o.Transport {
	case "sim":
		n := netsim.New(netsim.WithSeed(o.Seed))
		n.SetLink("", "", netsim.LinkFaults{
			Loss:      o.Loss,
			Dup:       o.Loss / 2,
			Reorder:   o.Loss / 2,
			JitterMax: time.Millisecond,
		})
		ep := n.Attach("server")
		go func() { _ = s.ServeUDP(ep) }()
		for i := 0; i < o.Conns; i++ {
			cfg := loadConfig(i)
			cfg.Timeout = 10 * time.Second
			cfg.Retry = chaosPolicy()
			cep := n.Attach(netsim.Addr(fmt.Sprintf("client-%d", i)))
			callers = append(callers, client.NewUDP(cep, netsim.Addr("server"), cfg))
		}
		injected = func() uint64 {
			fs := n.FaultStats()
			return fs.Dropped + fs.Duplicated + fs.Reordered
		}
	case "udp":
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return res, fmt.Errorf("bench: loopback udp: %w", err)
		}
		cleanup = append(cleanup, pc.Close)
		go func() { _ = s.ServeUDP(pc) }()
		stats := &faultconn.Stats{}
		for i := 0; i < o.Conns; i++ {
			cc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return res, fmt.Errorf("bench: client socket: %w", err)
			}
			fc := faultconn.WrapPacket(cc, faultconn.Plan{
				Seed:     o.Seed + int64(i),
				DropRate: o.Loss,
				DupRate:  o.Loss / 2,
			}, stats)
			cfg := loadConfig(i)
			cfg.Timeout = 10 * time.Second
			cfg.Retry = chaosPolicy()
			callers = append(callers, client.NewUDP(fc, pc.LocalAddr(), cfg))
		}
		injected = func() uint64 { return stats.Dropped.Load() + stats.Duplicated.Load() }
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, fmt.Errorf("bench: loopback tcp: %w", err)
		}
		fl := faultconn.WrapListener(ln, faultconn.Plan{
			Seed:       o.Seed,
			ResetRate:  o.Loss / 4, // every reset costs a reconnect; keep runs bounded
			ResetAfter: 3,
			SplitWrite: o.Loss,
		}, nil)
		cleanup = append(cleanup, fl.Close)
		go func() { _ = s.ServeTCP(fl) }()
		for i := 0; i < o.Conns; i++ {
			cfg := loadConfig(i)
			cfg.Timeout = 10 * time.Second
			cfg.Retry = chaosPolicy()
			cfg.Retry.RetryAmbiguous = true // the load echo is idempotent
			c, err := client.DialTCP("tcp", ln.Addr().String(), cfg)
			if err != nil {
				return res, fmt.Errorf("bench: dial: %w", err)
			}
			callers = append(callers, c)
		}
		st := fl.Stats()
		injected = func() uint64 { return st.Resets.Load() + st.SplitWrites.Load() + st.Stalls.Load() }
	default:
		return res, fmt.Errorf("bench: unknown transport %q", o.Transport)
	}

	var acked, errs atomic.Int64
	var wg sync.WaitGroup
	per := o.Calls / o.Conns
	start := time.Now()
	for i, c := range callers {
		n := per
		if i == len(callers)-1 {
			n = o.Calls - per*(len(callers)-1)
		}
		wg.Add(1)
		go func(c client.Caller, n int) {
			defer wg.Done()
			in := make([]int32, o.ArraySize)
			for j := range in {
				in[j] = int32(j)
			}
			for j := 0; j < n; j++ {
				var out []int32
				err := c.Call(loadEcho,
					func(x *xdr.XDR) error { return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long) },
					func(x *xdr.XDR) error { return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long) })
				if err != nil {
					errs.Add(1)
					continue
				}
				acked.Add(1)
			}
		}(c, n)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.Acked = acked.Load()
	res.Errors = errs.Load()
	res.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	if elapsed > 0 {
		res.GoodputPS = float64(res.Acked) / elapsed.Seconds()
	}
	for _, c := range callers {
		var st client.Snapshot
		switch c := c.(type) {
		case *client.UDP:
			st = c.Snapshot()
		case *client.TCP:
			st = c.Snapshot()
		}
		res.Retransmits += st.Retransmits
		res.Retries += st.Retries
		res.BudgetDeny += st.BudgetDenied
		res.Reconnects += st.Reconnects
	}
	res.CacheHits = s.Snapshot().CacheHits
	res.Injected = injected()
	return res, nil
}

// FormatChaos renders the chaos grid.
func FormatChaos(rows []ChaosResult) string {
	var sb strings.Builder
	sb.WriteString("Chaos: goodput under a seeded fault schedule (counters gated structurally, not by time)\n")
	fmt.Fprintf(&sb, "%-9s %6s %6s %6s %6s %8s %6s %10s %8s %8s %8s %8s %8s\n",
		"Transport", "Conns", "Calls", "Loss", "Seed", "Acked", "Err", "Goodput/s", "Retrans", "Retries", "Reconn", "CacheHit", "Injected")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s %6d %6d %6.2f %6d %8d %6d %10.0f %8d %8d %8d %8d %8d\n",
			r.Transport, r.Conns, r.Calls, r.Loss, r.Seed, r.Acked, r.Errors,
			r.GoodputPS, r.Retransmits, r.Retries, r.Reconnects, r.CacheHits, r.Injected)
	}
	return sb.String()
}
