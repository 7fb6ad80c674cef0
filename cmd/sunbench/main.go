// Command sunbench regenerates the paper's evaluation: Tables 1-4 and
// the six panels of Figure 6, over the calibrated IPX/SunOS and PC/Linux
// platform models. It also measures the live concurrent transport in
// throughput mode, and the live generic/specialized marshal-plan
// comparison in -live-spec mode (Table 4's bounded unrolling is a
// model-track result only: -table 4).
//
// Usage:
//
//	sunbench                  # all paper tables and figures
//	sunbench -table 1         # one table (1..4)
//	sunbench -figure 6        # the Figure 6 panels
//	sunbench -throughput      # live throughput over sim, udp, and tcp
//	sunbench -throughput -transport tcp -clients 4 -depth 16 -calls 50000
//	sunbench -openloop        # open-loop Poisson tail latency (p50/p99/p999), one row per transport
//	sunbench -openloop -transport udp -clients 8 -depth 16 -rate 8000 -openloop-dur 2s
//	sunbench -batch           # counted syscalls/op of the batched I/O
//	sunbench -batch -transport tcp -clients 4 -depth 8 -calls 20000
//	sunbench -chaos           # goodput + retry/reconnect counters under seeded faults
//	sunbench -chaos -transport tcp -chaos-loss 0.2 -chaos-calls 1000 -seed 42
//	sunbench -live-spec       # live codec comparison (incl. fused + compiled whole-call) over sim, udp, tcp
//	sunbench -live-spec -header-path -json BENCH_live.json
//	sunbench -header-path     # generic vs templated RPC header work
//	sunbench -throughput -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"specrpc/internal/bench"
	"specrpc/internal/platform"
)

// main delegates to realMain so the profile-finalizing defers run
// before the process exits; os.Exit directly from the work path would
// truncate an in-progress CPU profile.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	table := flag.Int("table", 0, "print only this table (1..4)")
	figure := flag.Int("figure", 0, "print only this figure (6)")
	throughput := flag.Bool("throughput", false, "measure live transport throughput instead of the paper tables")
	openloop := flag.Bool("openloop", false, "measure open-loop tail latency (Poisson arrivals) over the live transports")
	rate := flag.Float64("rate", 4000, "offered arrival rate in calls/sec for -openloop")
	openloopDur := flag.Duration("openloop-dur", time.Second, "arrival window per -openloop grid point")
	reps := flag.Int("openloop-reps", 3, "repetitions per -openloop point; the median-p99 run is reported")
	batch := flag.Bool("batch", false, "count syscalls/op of plain, batched-call and one-way traffic over the live transports")
	chaos := flag.Bool("chaos", false, "measure goodput and retry/reconnect counters under a seeded fault schedule")
	chaosLoss := flag.Float64("chaos-loss", 0.15, "headline fault intensity for -chaos (loss rate on datagrams, scaled reset/split rates on tcp)")
	chaosCalls := flag.Int("chaos-calls", 400, "total calls per -chaos point")
	seed := flag.Int64("seed", 1, "fault-schedule seed for -chaos")
	liveSpec := flag.Bool("live-spec", false, "measure the generic/specialized marshal plans over the live transports")
	liveSpecReps := flag.Int("live-spec-reps", 1, "complete -live-spec grid passes; the per-point median is reported")
	headerPath := flag.Bool("header-path", false, "measure the generic vs templated RPC header encode/decode paths")
	transports := flag.String("transport", "sim,udp,tcp", "comma-separated transports for -throughput and -live-spec")
	clients := flag.Int("clients", 2, "concurrent connections for -throughput")
	depth := flag.Int("depth", 8, "in-flight calls per connection for -throughput")
	calls := flag.Int("calls", 0, "total calls for -throughput (default 20000); calls per point for -live-spec (default 2000)")
	size := flag.Int("size", 100, "echoed int32 array size for -throughput")
	jsonOut := flag.String("json", "", "also write machine-readable results of the live modes to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "sunbench: wrote %s\n", *cpuprofile)
		}()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			return
		}
		defer f.Close()
		runtime.GC() // up-to-date live-object statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sunbench:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "sunbench: wrote %s\n", *memprofile)
	}()

	out := &jsonReport{GeneratedAt: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version()}
	var err error
	live := false
	if *liveSpec {
		live = true
		err = runLiveSpec(*transports, *calls, *liveSpecReps, out)
	}
	if err == nil && *headerPath {
		live = true
		out.HeaderPath = bench.HeaderPath()
		fmt.Print(bench.FormatHeaderPath(out.HeaderPath))
	}
	if err == nil && *throughput {
		live = true
		if *calls <= 0 {
			*calls = 20000
		}
		err = runThroughput(*transports, *clients, *depth, *calls, *size, out)
	}
	if err == nil && *openloop {
		live = true
		err = runOpenLoop(*transports, *clients, *depth, *rate, *openloopDur, *reps, out)
	}
	if err == nil && *batch {
		live = true
		err = runBatch(*transports, *clients, *depth, *calls, *size, out)
	}
	if err == nil && *chaos {
		live = true
		err = runChaos(*transports, *clients, *chaosCalls, *chaosLoss, *seed, out)
	}
	if err == nil && !live {
		if *jsonOut != "" {
			fmt.Fprintln(os.Stderr, "sunbench: -json requires -live-spec, -header-path, -throughput, -openloop, -batch, or -chaos")
			return 2
		}
		all := *table == 0 && *figure == 0
		err = run(all, *table, *figure)
	}
	if err == nil && *jsonOut != "" {
		err = writeJSON(*jsonOut, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sunbench:", err)
		return 1
	}
	return 0
}

// jsonReport is the machine-readable result envelope of the live modes:
// the file BENCH_live.json that tracks the perf trajectory across PRs.
type jsonReport struct {
	GeneratedAt string                   `json:"generated_at"`
	Go          string                   `json:"go"`
	LiveSpec    []bench.LiveSpecResult   `json:"live_spec,omitempty"`
	HeaderPath  []bench.HeaderPathResult `json:"header_path,omitempty"`
	Throughput  []throughputJSON         `json:"throughput,omitempty"`
	OpenLoop    []bench.OpenLoopResult   `json:"open_loop,omitempty"`
	Batch       []bench.BatchResult      `json:"batch,omitempty"`
	Chaos       []bench.ChaosResult      `json:"chaos,omitempty"`
}

// throughputJSON flattens ThroughputResult for stable JSON output.
type throughputJSON struct {
	Transport   string  `json:"transport"`
	Clients     int     `json:"clients"`
	Depth       int     `json:"depth"`
	Calls       int     `json:"calls"`
	ArraySize   int     `json:"n"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	CallsPerSec float64 `json:"calls_per_sec"`
	MaxInFlight int     `json:"max_in_flight"`
}

func writeJSON(path string, report *jsonReport) error {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sunbench: wrote %s\n", path)
	return nil
}

func splitTransports(transports string) []string {
	var out []string
	for _, tr := range strings.Split(transports, ",") {
		if tr = strings.TrimSpace(tr); tr != "" {
			out = append(out, tr)
		}
	}
	return out
}

// runLiveSpec prints the paper's generic/specialized comparison measured
// on the live wire path.
func runLiveSpec(transports string, calls, reps int, out *jsonReport) error {
	rows, err := bench.LiveSpec(bench.LiveSpecOptions{
		Transports: splitTransports(transports),
		Calls:      calls,
		Reps:       reps,
	})
	if err != nil {
		return err
	}
	out.LiveSpec = rows
	fmt.Print(bench.FormatLiveSpec(rows))
	return nil
}

// runThroughput drives the concurrent transport: for each requested
// transport, one single-caller baseline and one clients x depth run, so
// the printed table shows the scaling, not just one point.
func runThroughput(transports string, clients, depth, calls, size int, out *jsonReport) error {
	var rows []bench.ThroughputResult
	for _, tr := range splitTransports(transports) {
		configs := [][2]int{{1, 1}, {clients, depth}}
		if clients == 1 && depth == 1 {
			configs = configs[:1] // the requested run IS the baseline
		}
		for _, cfg := range configs {
			// The concurrent run latches the server until `depth` handlers
			// execute at once, so the InFlight column demonstrates (not
			// merely samples) that the transport sustains the pipeline.
			res, err := bench.Throughput(bench.ThroughputOptions{
				Transport: tr, Clients: cfg[0], Depth: cfg[1],
				Calls: calls, ArraySize: size, MinInFlight: cfg[1],
			})
			if err != nil {
				return err
			}
			rows = append(rows, res)
			out.Throughput = append(out.Throughput, throughputJSON{
				Transport: res.Transport, Clients: res.Clients, Depth: res.Depth,
				Calls: res.Calls, ArraySize: res.ArraySize,
				ElapsedMS:   float64(res.Elapsed.Microseconds()) / 1e3,
				CallsPerSec: res.CallsPerSec, MaxInFlight: res.MaxInFlight,
			})
		}
	}
	fmt.Print(bench.FormatThroughput(rows))
	return nil
}

// runOpenLoop drives the open-loop tail-latency grid, one point per
// transport. The whole grid is measured reps times with the transports
// interleaved within each round, and the median-p99 run per point
// reported: a single open-loop run on a shared host is one scheduling
// outlier away from nonsense, and back-to-back blocks per transport
// would let slow host drift bias one of them.
func runOpenLoop(transports string, conns, depth int, rate float64, dur time.Duration, reps int, out *jsonReport) error {
	var grid []bench.OpenLoopOptions
	for _, tr := range splitTransports(transports) {
		grid = append(grid, bench.OpenLoopOptions{
			Transport: tr, Conns: conns, Depth: depth, Rate: rate, Duration: dur,
		})
	}
	rows, err := bench.OpenLoopGrid(grid, reps)
	if err != nil {
		return err
	}
	out.OpenLoop = rows
	fmt.Print(bench.FormatOpenLoop(rows))
	return nil
}

// runBatch counts kernel crossings per call against the same clients x
// depth grid: each transport runs a 1x1 point (a lone caller, one write
// per record at each end) and the requested concurrent point, in mode on
// and, on stream transports, the ONC batched-calls modes (replied-to and
// one-way). Counters, not timers: the series is stable across hosts.
func runBatch(transports string, clients, depth, calls, size int, out *jsonReport) error {
	if calls <= 0 {
		calls = 20000
	}
	var rows []bench.BatchResult
	for _, tr := range splitTransports(transports) {
		if tr == "sim" {
			continue // no kernel under the simulated transport to count
		}
		configs := [][2]int{{1, 1}, {clients, depth}}
		if clients == 1 && depth == 1 {
			configs = configs[:1]
		}
		modes := []string{"on"}
		if tr == "tcp" {
			modes = append(modes, "calls", "oneway")
		}
		for _, cfg := range configs {
			for _, mode := range modes {
				res, err := bench.Batch(bench.BatchOptions{
					Transport: tr, Mode: mode, Clients: cfg[0], Depth: cfg[1],
					Calls: calls, ArraySize: size,
				})
				if err != nil {
					return err
				}
				rows = append(rows, res)
			}
		}
	}
	out.Batch = rows
	fmt.Print(bench.FormatBatch(rows))
	return nil
}

// runChaos measures goodput under the seeded fault schedule, one point
// per transport. The recovery counters (retransmits, retries,
// reconnects, cache hits) ride along in the JSON so benchdiff can gate
// the series structurally — did the machinery fire and the calls land —
// rather than on timing.
func runChaos(transports string, conns, calls int, loss float64, seed int64, out *jsonReport) error {
	var rows []bench.ChaosResult
	for _, tr := range splitTransports(transports) {
		res, err := bench.Chaos(bench.ChaosOptions{
			Transport: tr, Conns: conns, Calls: calls, Loss: loss, Seed: seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, res)
	}
	out.Chaos = rows
	fmt.Print(bench.FormatChaos(rows))
	return nil
}

func run(all bool, table, figure int) error {
	if all || table == 1 {
		for _, m := range platform.Both() {
			rows, err := bench.Table1(m)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatRows("Table 1: Client marshaling performance (ms)", m, rows))
			fmt.Println()
		}
	}
	if all || table == 2 {
		for _, m := range platform.Both() {
			rows, err := bench.Table2(m)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatRows("Table 2: Round trip performance (ms)", m, rows))
			fmt.Println()
		}
	}
	if all || table == 3 {
		rows, err := bench.Table3()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable3(rows))
		fmt.Println()
	}
	if all || table == 4 {
		rows, err := bench.Table4()
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTable4(rows))
		fmt.Println()
	}
	if all || figure == 6 {
		panels, err := bench.Figure6()
		if err != nil {
			return err
		}
		for _, p := range panels {
			fmt.Print(bench.FormatFigure(p))
			fmt.Println()
		}
	}
	return nil
}
