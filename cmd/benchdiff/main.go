// Command benchdiff compares BENCH_live.json snapshots produced by
// `sunbench -json` and prints a per-series delta table, so a PR's
// effect on the live benchmarks is visible at a glance.
//
// Usage:
//
//	benchdiff [-gate] [-threshold fam=pct,...] OLD.json NEW.json [NEW.json ...]
//
// With one NEW file and no -gate it is a report: series present in only
// one file are listed as added or removed, and the exit status is 0
// whenever the files parse.
//
// With -gate it is a CI gate, made noise-aware the same way the
// open-loop harness is: NEW may be given as several repetition files —
// each a complete pass over the measurement grid, so host drift during
// the run hits every configuration alike instead of biasing whichever
// series ran last — and the per-series MEDIAN across the passes is what
// is compared against OLD. A series whose median regresses past its
// family's threshold fails the command with exit status 1, naming every
// offender. Thresholds are per family because noise is.
//
// Only two kinds of series are gated: counted ones (syscalls per op),
// which do not depend on the host's speed, and ratios of timings taken
// within one pass. The live-spec and header-path specialization series
// are RATIOS to the same-file generic series at the same point, not raw
// ns: the harnesses measure all implementations of a point
// back-to-back, so the ratio cancels first-order host drift, where on a
// shared single-CPU box the absolute numbers wander 40%+ between runs
// minutes apart. A specialization regression still moves its ratio; a
// uniformly slower host moves none of them. Absolute timings — the
// generic yardsticks (live-spec-abs, header-path-abs), loopback
// throughput and open-loop tails — stay in the delta table but have no
// default threshold, so they never fail -gate: gated, even under wide
// catastrophe thresholds, the yardsticks failed the gate on untouched
// sim series in five PRs. -threshold fam=pct gates such a family on
// request. The yardstick is alloc-heavy and drifts by ±25% on its own
// (GC and allocator behavior do not scale with CPU steal the way tight
// loops do), and the ratios inherit that — so the default ratio
// thresholds are sized to catch a rung collapsing (a codec silently
// falling back a level or worse), not a few-percent slowdown.
// Fine-grained perf claims live in the deterministic counted series,
// the alloc-pinning tests, and the bench/history trend, not here.
// Comparing snapshots from different machines needs wider thresholds
// (or no -gate): the deltas then measure the hosts, not the code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// defaultThresholds is the allowed per-family regression (fraction of
// the old value) before -gate fails, for the families -gate judges: the
// counted series and the within-pass ratios. The spread mirrors each
// family's observed run-to-run noise — calibrated by diffing repeated
// identical binaries on the reference host; a threshold below the
// idle-host noise floor only manufactures false alarms:
//
//	live-spec        specialization-mode ns/call as a ratio to the
//	                 same-pass generic mode; the yardstick's own
//	                 ±25% swing leaks in, so this trips on a rung
//	                 collapse, not a few-percent slip
//	header-path      template ns/op as a ratio to the same-run
//	                 generic marshaler (a ~20x gap — collapse is
//	                 unmistakable)
//	batch            counted syscalls/op — deterministic in mode
//	                 oneway, for the client half of calls and for a
//	                 1x1 tcp on row, scheduling-dependent elsewhere
//
// The absolute families (live-spec-abs, header-path-abs, throughput,
// open-loop) and chaos goodput are reported and not judged.
var defaultThresholds = map[string]float64{
	"live-spec":   0.50,
	"header-path": 0.40,
	"batch":       0.30,
}

// report mirrors the envelope sunbench writes; unknown fields are
// ignored so the files may come from different tool versions.
type report struct {
	GeneratedAt string `json:"generated_at"`
	Go          string `json:"go"`
	LiveSpec    []struct {
		Transport string  `json:"transport"`
		Mode      string  `json:"mode"`
		N         int     `json:"n"`
		NsPerCall float64 `json:"ns_per_call"`
	} `json:"live_spec"`
	HeaderPath []struct {
		Series  string  `json:"series"`
		Impl    string  `json:"impl"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"header_path"`
	Throughput []struct {
		Transport   string  `json:"transport"`
		Clients     int     `json:"clients"`
		Depth       int     `json:"depth"`
		N           int     `json:"n"`
		CallsPerSec float64 `json:"calls_per_sec"`
	} `json:"throughput"`
	OpenLoop []struct {
		Transport   string  `json:"transport"`
		Conns       int     `json:"conns"`
		Depth       int     `json:"depth"`
		OfferedRate float64 `json:"offered_rate"`
		P99Us       float64 `json:"p99_us"`
	} `json:"open_loop"`
	Batch []struct {
		Transport         string  `json:"transport"`
		Mode              string  `json:"mode"`
		Clients           int     `json:"clients"`
		Depth             int     `json:"depth"`
		N                 int     `json:"n"`
		ClientWritesPerOp float64 `json:"client_writes_per_op"`
		ServerWritesPerOp float64 `json:"server_writes_per_op"`
		ServerReadsPerOp  float64 `json:"server_reads_per_op"`
		ClientReadsPerOp  float64 `json:"client_reads_per_op"`
	} `json:"batch"`
	Chaos []struct {
		Transport string  `json:"transport"`
		Conns     int     `json:"conns"`
		Calls     int     `json:"calls"`
		Loss      float64 `json:"loss"`
		Seed      int64   `json:"seed"`
		Acked     int64   `json:"acked"`
		Errors    int64   `json:"errors"`
	} `json:"chaos"`
}

// series flattens every measurement into name -> value with "lower is
// better" normalized across families (throughput inverts into ns/call).
// Live-spec specialization modes are expressed as ratios to the generic
// mode of the same transport and N within the same file — the modes of
// a point are measured back-to-back, so the ratio cancels host drift
// that the raw ns/call cannot. The generic yardstick itself is kept
// raw under live-spec-abs. A mode whose generic partner is missing
// falls back to raw ns/call under live-spec-abs too, so it stays in the
// report rather than silently vanishing.
func (r *report) series() map[string]float64 {
	out := make(map[string]float64)
	generic := make(map[string]float64)
	for _, s := range r.LiveSpec {
		if s.Mode == "generic" {
			generic[fmt.Sprintf("%s/N=%d", s.Transport, s.N)] = s.NsPerCall
		}
	}
	for _, s := range r.LiveSpec {
		if s.Mode == "generic" {
			out[fmt.Sprintf("live-spec-abs/%s/generic/N=%d", s.Transport, s.N)] = s.NsPerCall
			continue
		}
		if g := generic[fmt.Sprintf("%s/N=%d", s.Transport, s.N)]; g > 0 {
			out[fmt.Sprintf("live-spec/%s/%s/N=%d/vs-generic", s.Transport, s.Mode, s.N)] = s.NsPerCall / g
		} else {
			out[fmt.Sprintf("live-spec-abs/%s/%s/N=%d", s.Transport, s.Mode, s.N)] = s.NsPerCall
		}
	}
	hpGeneric := make(map[string]float64)
	for _, h := range r.HeaderPath {
		if h.Impl == "generic" {
			hpGeneric[h.Series] = h.NsPerOp
		}
	}
	for _, h := range r.HeaderPath {
		if h.Impl == "generic" {
			out[fmt.Sprintf("header-path-abs/%s/generic", h.Series)] = h.NsPerOp
			continue
		}
		if g := hpGeneric[h.Series]; g > 0 {
			out[fmt.Sprintf("header-path/%s/%s/vs-generic", h.Series, h.Impl)] = h.NsPerOp / g
		} else {
			out[fmt.Sprintf("header-path-abs/%s/%s", h.Series, h.Impl)] = h.NsPerOp
		}
	}
	for _, t := range r.Throughput {
		if t.CallsPerSec > 0 {
			out[fmt.Sprintf("throughput/%s/c%d_d%d/N=%d", t.Transport, t.Clients, t.Depth, t.N)] =
				1e9 / t.CallsPerSec
		}
	}
	for _, o := range r.OpenLoop {
		if o.P99Us > 0 {
			out[fmt.Sprintf("open-loop/%s/c%d_d%d/r%.0f/p99",
				o.Transport, o.Conns, o.Depth, o.OfferedRate)] = o.P99Us * 1e3
		}
	}
	for _, b := range r.Batch {
		base := fmt.Sprintf("batch/%s/%s/c%d_d%d/N=%d", b.Transport, b.Mode, b.Clients, b.Depth, b.N)
		out[base+"/cliW_op"] = b.ClientWritesPerOp
		out[base+"/srvW_op"] = b.ServerWritesPerOp
		out[base+"/srvR_op"] = b.ServerReadsPerOp
		if b.ClientReadsPerOp > 0 { // absent from snapshots before the column
			out[base+"/cliR_op"] = b.ClientReadsPerOp
		}
	}
	// Chaos goodput under randomized faults is not a stable timing
	// series, so the family is deliberately absent from
	// defaultThresholds: the fraction of unacknowledged calls shows up
	// in the delta table (lower is better) but never trips -gate. The
	// structural assertions — machinery fired, calls landed — live in
	// the chaos test suite, not here.
	for _, c := range r.Chaos {
		if c.Calls > 0 {
			out[fmt.Sprintf("chaos/%s/c%d/loss=%.2f/seed=%d/unacked_frac",
				c.Transport, c.Conns, c.Loss, c.Seed)] =
				float64(int64(c.Calls)-c.Acked) / float64(c.Calls)
		}
	}
	return out
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// familyOf maps a series name to its threshold family: the segment
// before the first slash.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// median of a non-empty slice; averages the middle pair on even counts.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianSeries folds the repetition files into one series map holding
// the per-series median. A series only counts as present in NEW if at
// least one repetition measured it.
func medianSeries(reps []map[string]float64) map[string]float64 {
	vals := make(map[string][]float64)
	for _, r := range reps {
		for k, v := range r {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// parseThresholds folds "fam=pct,fam=pct" overrides (percent, so
// "live-spec=20" allows +20%) into a copy of the defaults.
func parseThresholds(spec string) (map[string]float64, error) {
	out := make(map[string]float64, len(defaultThresholds))
	for k, v := range defaultThresholds {
		out[k] = v
	}
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		fam, pct, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("threshold %q: want fam=pct", part)
		}
		f, err := strconv.ParseFloat(pct, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("threshold %q: bad percentage", part)
		}
		out[fam] = f / 100
	}
	return out, nil
}

func main() {
	gate := flag.Bool("gate", false, "fail (exit 1) when any series' median regresses past its family threshold")
	thresholdSpec := flag.String("threshold", "", "per-family threshold overrides as fam=pct,... (e.g. live-spec=20,batch=50)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-gate] [-threshold fam=pct,...] OLD.json NEW.json [NEW.json ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 2 {
		flag.Usage()
		os.Exit(2)
	}
	thresholds, err := parseThresholds(*thresholdSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	oldRep, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	var newReps []map[string]float64
	var newStamp string
	for _, path := range flag.Args()[1:] {
		r, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		newReps = append(newReps, r.series())
		newStamp = r.GeneratedAt
	}

	oldS, newS := oldRep.series(), medianSeries(newReps)
	var names []string
	for k := range oldS {
		names = append(names, k)
	}
	for k := range newS {
		if _, ok := oldS[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)

	reps := len(newReps)
	fmt.Printf("benchdiff: %s (%s)  ->  %d rep(s) ending %s (%s)\n",
		flag.Arg(0), oldRep.GeneratedAt, reps, flag.Arg(flag.NArg()-1), newStamp)
	if reps > 1 {
		fmt.Printf("new column is the median of %d whole-grid passes\n", reps)
	}
	fmt.Printf("%-52s %12s %12s %9s\n", "series (lower is better)", "old", "new", "delta")
	var regressions []string
	for _, name := range names {
		o, haveOld := oldS[name]
		n, haveNew := newS[name]
		switch {
		case !haveOld:
			fmt.Printf("%-52s %12s %12.4g %9s\n", name, "-", n, "added")
		case !haveNew:
			fmt.Printf("%-52s %12.4g %12s %9s\n", name, o, "-", "removed")
		default:
			delta, mark := "n/a", ""
			if o > 0 {
				frac := (n - o) / o
				delta = fmt.Sprintf("%+.1f%%", frac*100)
				if thr, ok := thresholds[familyOf(name)]; ok && frac > thr {
					mark = "  REGRESSED"
					regressions = append(regressions,
						fmt.Sprintf("%s: %.4g -> %.4g (%s, threshold +%.0f%%)", name, o, n, delta, thr*100))
				}
			}
			fmt.Printf("%-52s %12.4g %12.4g %9s%s\n", name, o, n, delta, mark)
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d series regressed past threshold:\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		if *gate {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchdiff: not gating (run with -gate to fail)")
	}
}
