package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 12345, 1 << 20, 1<<30 + 12345, 1<<41 - 1, 1 << 50} {
		i := bucketOf(v)
		if i < prev {
			t.Errorf("bucketOf(%d) = %d is below the bucket of a smaller value (%d)", v, i, prev)
		}
		prev = i
		low, width := bucketBounds(i)
		clamped := min(v, 1<<maxValBits-1)
		if clamped < low || clamped >= low+width {
			t.Errorf("value %d is in bucket %d = [%d, %d)", v, i, low, low+width)
		}
		if width > 1 && float64(width)/float64(low) > 1.0/(1<<subBits) {
			t.Errorf("bucket %d is %d wide at %d: more than 1/%d", i, width, low, 1<<subBits)
		}
	}
	if got := bucketOf(1<<maxValBits - 1); got != histBuckets-1 {
		t.Errorf("the largest value lands in bucket %d of %d", got, histBuckets)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h, lowHalf, highHalf hist
	const n = 100000
	for v := int64(1); v <= n; v++ {
		h.record(v * 10)
		if v <= n/2 {
			lowHalf.record(v * 10)
		} else {
			highHalf.record(v * 10)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * n * 10
		if got := h.quantile(q); math.Abs(got-want)/want > 0.005 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 0.5 %%", q, got, want)
		}
	}
	if got, want := h.mean(), float64(n+1)*10/2; got != want {
		t.Errorf("mean = %v, want %v exactly", got, want)
	}
	if h.max != n*10 || h.quantile(1) != n*10 {
		t.Errorf("max = %d, quantile(1) = %v, want %d", h.max, h.quantile(1), n*10)
	}
	lowHalf.merge(&highHalf)
	if lowHalf != h {
		t.Error("merging the two halves differs from recording everything in one histogram")
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) || !math.IsNaN(empty.mean()) {
		t.Error("an empty histogram must report NaN, which the metric check rejects")
	}
}

func TestMedianOfPasses(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("median(5,1,4) = %v", got)
	}
	if in[0] != 5 || in[1] != 1 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	// One slow pass in three must not move the reported value.
	got := medianOfPasses([]metrics{{"a": 10, "b": 1}, {"a": 13, "b": 3}, {"a": 10.2, "b": 2}})
	if got["a"] != 10.2 || got["b"] != 2 {
		t.Errorf("medianOfPasses = %v", got)
	}
}

func TestMetricsCheck(t *testing.T) {
	defs := []metricDef{{name: "a.b_c-1"}, {name: "x"}}
	for _, tc := range []struct {
		m  metrics
		ok bool
	}{
		{metrics{"a.b_c-1": 1, "x": 0}, true},
		{metrics{"a.b_c-1": 1}, false},                        // missing
		{metrics{"a.b_c-1": 1, "x": math.NaN()}, false},       // not a number
		{metrics{"a.b_c-1": 1, "x": math.Inf(1)}, false},      // not finite
		{metrics{"a.b_c-1": 1, "x": 1, "bad name": 1}, false}, // outside [A-Za-z0-9_.-]
		{metrics{"a.b_c-1": 1, "x": 1, "extra": 1}, false},    // undeclared
	} {
		if err := tc.m.check(defs); (err == nil) != tc.ok {
			t.Errorf("check(%v) = %v, want ok=%v", tc.m, err, tc.ok)
		}
	}
}

// fingerprint renders everything of the sequences that reaches the product.
func fingerprint(all [][]op) string {
	clean := make([][]op, len(all))
	for c, ops := range all {
		clean[c] = append([]op(nil), ops...)
		for i := range clean[c] {
			clean[c][i].batched = nil // a func prints as its address
		}
	}
	return fmt.Sprint(clean)
}

func TestSeedDrivesEveryInput(t *testing.T) {
	for _, w := range workloads {
		a, b, c := genOps(w, 7), genOps(w, 7), genOps(w, 8)
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: the same seed gave two different operation sequences", w.name)
		}
		if fingerprint(a) == fingerprint(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation sequence", w.name)
		}
		if len(a) != w.callers || w.callers > 2 {
			t.Errorf("%s: %d sequences for %d callers (at most 2 allowed)", w.name, len(a), w.callers)
		}
		for ci, ops := range a {
			for i := range ops {
				var first int32
				switch o := &ops[i]; o.kind {
				case opMix:
					first = o.mix.A
				case opLookup:
					first = o.pt.X
				default:
					first = o.nums[0]
				}
				if first != int32(ci) {
					t.Fatalf("%s: caller %d op %d: first argument word is %d", w.name, ci, i, first)
				}
			}
		}
	}
}

func TestMixSharesAreExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		for _, ops := range genOps(workloadByName("udp_mix"), seed) {
			count := map[opKind]int{}
			for i := range ops {
				count[ops[i].kind]++
			}
			n := len(ops)
			if count[opScale]*100 != 40*n || count[opMix]*100 != 25*n || count[opSum]*100 != 20*n || count[opLookup]*100 != 15*n {
				t.Errorf("seed %d: mix of %d ops is %v, want 40/25/20/15 %%", seed, n, count)
			}
		}
	}
}

func TestCountRecords(t *testing.T) {
	mark := func(n int, last bool) []byte {
		u := uint32(n)
		if last {
			u |= 1 << 31
		}
		return []byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}
	}
	var c clientConn
	// Three whole records coalesced into one write.
	var w []byte
	for _, n := range []int{8, 0, 5} {
		w = append(append(w, mark(n, true)...), make([]byte, n)...)
	}
	if got := c.countRecords(w); got != 3 {
		t.Errorf("three coalesced records counted as %d", got)
	}
	// One record in two fragments, each written as mark then payload.
	var got int64
	for _, p := range [][]byte{mark(6, false), make([]byte, 6), mark(2, true), make([]byte, 2)} {
		got += c.countRecords(p)
	}
	if got != 1 {
		t.Errorf("one two-fragment record counted as %d", got)
	}
}

func TestCompareRuns(t *testing.T) {
	mk := func(scale float64) *report {
		r := &report{Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			wr := &workloadReport{EndToEnd: map[string]value{}, PerLayer: map[string]value{}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.name] = value{Value: 100 * scale}
			}
			for _, name := range exactCounts {
				wr.PerLayer[name] = value{Value: 0.125}
			}
			r.Workloads[w.name] = wr
		}
		return r
	}
	if n := compareRuns(mk(1), mk(1.005), io.Discard); n != 0 {
		t.Errorf("runs 0.5 %% apart: %d comparisons failed", n)
	}
	// 5 % apart is outside the bounds of allocs_per_call and alloc_bytes_per_call only.
	if n := compareRuns(mk(1), mk(1.05), io.Discard); n != 2*len(workloads) {
		t.Errorf("runs 5 %% apart: %d comparisons failed, want %d", n, 2*len(workloads))
	}
	b := mk(1)
	b.Workloads["tcp_batch8"].PerLayer["client.writes_per_call"] = value{Value: 0.127}
	if n := compareRuns(mk(1), b, io.Discard); n != 1 {
		t.Errorf("a count that moved in the third decimal: %d comparisons failed, want 1", n)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the tables the program
// prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, {%s %s} in the program", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
		}
	}
	compare("end-to-end", file.EndToEnd, endToEnd, true)
	compare("per-layer", file.PerLayer, perLayer, false)
	setup := endToEnd[len(endToEnd)-1]
	for _, d := range endToEnd {
		if d.bound > setup.bound || d.bound > 0.25 {
			t.Errorf("%s: bound %v; setup_s (%v) must have the largest, and none above 0.25", d.name, d.bound, setup.bound)
		}
	}
	if setup.name != "setup_s" || setup.unit != "s" || setup.better != "lower" {
		t.Errorf("the last end-to-end metric must be setup_s in s, lower is better: %+v", setup)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
}

// TestSmoke runs every workload end to end with short windows: untraced
// pass, traced pass, probes, cold set-ups.
func TestSmoke(t *testing.T) {
	cfg := config{
		seed: 1, passes: 1,
		pass:        passConfig{window: 200 * time.Millisecond, warmOps: 500},
		tracePass:   passConfig{window: 200 * time.Millisecond, warmOps: 500},
		probeBudget: 200 * time.Microsecond, coldSetups: 3,
	}
	e2e, err := untracedRun(workloads, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res := e2e[w.name]
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
		}
		// untracedRun and tracedRun have already checked that every metric
		// BENCHMARK.json names is there and finite.
		layers, err := tracedRun(w, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		m := layers.m
		if layers.failed != 0 {
			t.Errorf("%s: %d operations failed in the traced run", w.name, layers.failed)
		}
		var sum float64
		for _, name := range stageNames {
			sum += m[name]
		}
		if mean := m["trace.op_mean_ns"]; math.Abs(sum-mean) > 1e-9*mean {
			t.Errorf("%s: stages sum to %v ns, trace.op_mean_ns is %v", w.name, sum, mean)
		}
		if len(layers.spans) == 0 {
			t.Errorf("%s: the traced pass kept no spans", w.name)
		}
		wantWrites, wantRecords, wantFast := 1.0, 1.0, 1.0
		switch w.name {
		case "tcp_batch8":
			wantWrites, wantRecords = 1.0/batchSize, batchSize
		case "udp_mix":
			wantRecords, wantFast = 0, 0.85
		}
		for name, want := range map[string]float64{
			"client.writes_per_call": wantWrites, "xdr.records_per_write": wantRecords, "wire.fastpath_share": wantFast,
			"client.retransmits_per_call": 0, "server.queue_drops": 0, "server.cache_hits": 0,
		} {
			if got := m[name]; math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: %s = %v, want %v", w.name, name, got, want)
			}
		}
	}
}
