// Command benchmark is the repository's performance benchmark: it drives
// the rpcgen-generated SHAPE_PROG stubs of internal/compiledtest, from
// outside the product, through four closed-loop workloads over the host's
// loopback interface, checks every reply, and prints end-to-end metrics
// (untraced passes) and a per-layer time budget (a traced pass and
// isolated probes). README.md in this directory says how to run it and how
// to read what it prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one result line (the driver's contract); empty runs all four")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Int("seconds", 15, "with -workload: seconds of timed windows in the run")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run everything twice and compare the two runs against the bounds")
		jsonOut      = flag.String("json", "", "write the full report to this file")
		traceOut     = flag.String("trace-out", "", "write the spans kept from the traced passes to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	var err error
	switch {
	case *workloadName != "":
		err = contractRun(*workloadName, *seed, *seconds, *trace == 1, *traceOut)
	case *selfcheck:
		err = selfCheck(fullConfig(*seed), os.Stdout)
	default:
		_, err = fullRun(fullConfig(*seed), os.Stdout, *jsonOut, *traceOut)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// environment is the block every report carries: what the numbers depend
// on besides the code.
type environment struct {
	Load       string `json:"load"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Kernel     string `json:"kernel"`
	MMsgActive bool   `json:"mmsg_active"`
}

func readEnvironment() environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	mmsg, _ := mmsgActive() // an unusable loopback fails the first rig, with a better message
	return environment{
		Load:  "closed loop; client and server in one process; loopback interface 127.0.0.1, no real link",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH, Kernel: kernel,
		MMsgActive: mmsg == 1,
	}
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "load: %s\n", e.Load)
	fmt.Fprintf(w, "env:  nproc=%d GOMAXPROCS=%d GOGC=%s %s %s kernel=%s mmsg_active=%v\n",
		e.NProc, e.GOMAXPROCS, e.GOGC, e.GoVersion, e.Platform, e.Kernel, e.MMsgActive)
}

// value is one metric as the result line and the report carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func valuesOf(m metrics, defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{m[d.name], d.unit}
	}
	return out
}

// resultLine is the last line of standard output in a -workload run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// contractRun is one run as the driver starts it: one workload, either
// half, with the result as the last line of standard output.
func contractRun(name string, seed int64, seconds int, traced bool, traceOut string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	cfg := contractConfig(seed, seconds)
	readEnvironment().print(os.Stdout)
	var line resultLine
	if traced {
		res, err := tracedRun(w, cfg, traceOut != "")
		if err != nil {
			return err
		}
		printLayers(os.Stdout, w, res)
		if traceOut != "" {
			if err := writeSpans(traceOut, map[string][]span{w.name: res.spans}); err != nil {
				return err
			}
		}
		line = resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: valuesOf(res.m, perLayer)}
	} else {
		results, err := untracedRun([]*workload{w}, cfg, os.Stdout)
		if err != nil {
			return err
		}
		res := results[w.name]
		printEndToEnd(os.Stdout, w, res)
		line = resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: valuesOf(res.merged, endToEnd)}
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed on loopback", w.name, line.Failed, line.Attempted)
	}
	return nil
}

// report is the full run, as -json writes it.
type report struct {
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"`
	Passes    int                        `json:"passes"`
	WindowS   float64                    `json:"window_s"`
	WarmOps   int                        `json:"warm_up_ops"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why        string             `json:"why"`
	Transport  string             `json:"transport"`
	Callers    int                `json:"callers"`
	Attempted  uint64             `json:"attempted"`
	Failed     uint64             `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	OpsPerPass []uint64           `json:"ops_per_pass"`
	EndToEnd   map[string]value   `json:"end_to_end"`
	Passes     []map[string]value `json:"end_to_end_passes"`
	TraceOps   int64              `json:"trace_ops"`
	PerLayer   map[string]value   `json:"per_layer"`
}

func transportOf(w *workload) string {
	if w.udp {
		return "udp"
	}
	return "tcp"
}

// fullRun measures all four workloads, both halves, and prints the report.
func fullRun(cfg config, out io.Writer, jsonOut, traceOut string) (*report, error) {
	env := readEnvironment()
	env.print(out)
	fmt.Fprintf(out, "seed=%d  %d passes of %v per workload, interleaved; warm-up %d ops; traced pass %v\n\n",
		cfg.seed, cfg.passes, cfg.pass.window, cfg.pass.warmOps, cfg.tracePass.window)
	rep := &report{Env: env, Seed: cfg.seed, Passes: cfg.passes, WindowS: cfg.pass.window.Seconds(),
		WarmOps: cfg.pass.warmOps, Workloads: map[string]*workloadReport{}}

	e2e, err := untracedRun(workloads, cfg, out)
	if err != nil {
		return nil, err
	}
	spans := map[string][]span{}
	var failed uint64
	for _, w := range workloads {
		res := e2e[w.name]
		fmt.Fprintln(out)
		printEndToEnd(out, w, res)
		layers, err := tracedRun(w, cfg, traceOut != "")
		if err != nil {
			return nil, err
		}
		printLayers(out, w, layers)
		spans[w.name] = layers.spans
		wr := &workloadReport{
			Why: w.why, Transport: transportOf(w), Callers: w.callers,
			Attempted: res.attempted + layers.attempted, Failed: res.failed + layers.failed,
			OpsPerPass: res.ops, EndToEnd: valuesOf(res.merged, endToEnd),
			TraceOps: layers.trace.ops, PerLayer: valuesOf(layers.m, perLayer),
		}
		wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)
		for _, p := range res.passes {
			wr.Passes = append(wr.Passes, valuesOf(p, endToEnd))
		}
		rep.Workloads[w.name] = wr
		failed += wr.Failed
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return rep, fmt.Errorf("%d operations failed on loopback", failed)
	}
	return rep, nil
}

func printEndToEnd(out io.Writer, w *workload, res *endToEndResult) {
	fmt.Fprintf(out, "== %s: %s, %d caller(s) with a connection each, closed loop over loopback ==\n", w.name, strings.ToUpper(transportOf(w)), w.callers)
	fmt.Fprintf(out, "end to end, tracing off: quiet decile of %d slices of %v for the four timings, median of %d passes for the rest (timed ops per pass: %v)\n",
		len(res.slices["calls_per_s"]), sliceLen, len(res.passes), res.ops)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-22s %14.4f %-5s  (%s is better; regression bound %.0f %%)\n", d.name, res.merged[d.name], d.unit, d.better, d.bound*100)
	}
	fmt.Fprintf(out, "  %-22s %14.4f ratio  (%d of %d operations failed; any failure fails the run)\n",
		"failed_frac", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
}

func printLayers(out io.Writer, w *workload, res *layerResult) {
	t := res.trace
	fmt.Fprintf(out, "per-call time budget of %s, traced pass, mean over %d ops (%d left out: stamps out of order)\n", w.name, t.ops, t.anomalies)
	var sum float64
	for i, name := range stageNames {
		if stageBounds[w.style][i] == [2]int{} {
			fmt.Fprintf(out, "  %-26s %12s\n", name, "-")
			continue
		}
		sum += t.stageMeanNs[i]
		fmt.Fprintf(out, "  %-26s %12.1f ns %6.1f %%\n", name, t.stageMeanNs[i], 100*t.stageMeanNs[i]/t.opMeanNs)
	}
	fmt.Fprintf(out, "  %-26s %12.1f ns  (stages sum to %.1f; tracing cost %+.1f %% on the mean)\n",
		"trace.op_mean_ns", t.opMeanNs, sum, 100*res.m["trace.overhead_frac"])
	fmt.Fprintf(out, "layer counts and isolated probes of %s\n", w.name)
	for _, d := range perLayer[nStages+2:] { // past the stages, their sum and the overhead, printed above
		v := res.m[d.name]
		if v == math.Trunc(v) {
			fmt.Fprintf(out, "  %-30s %14.0f %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(out, "  %-30s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}
