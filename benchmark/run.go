package main

import (
	"fmt"
	"io"
	"time"
)

// config sizes a run.
type config struct {
	seed        int64
	passes      int           // untraced passes per workload
	pass        passConfig    // one untraced pass
	tracePass   passConfig    // the traced pass and its untraced reference pass
	probeBudget time.Duration // one timed loop of an isolated probe
	coldSetups  int
}

// fullConfig is the run the README describes: 5 passes of 5 s per
// workload, then 3 s traced.
func fullConfig(seed int64) config {
	return config{
		seed: seed, passes: 5,
		pass:        passConfig{window: 5 * time.Second, warmOps: warmOps},
		tracePass:   passConfig{window: 3 * time.Second, warmOps: warmOps},
		probeBudget: 5 * time.Millisecond, coldSetups: 31,
	}
}

// warmOps is the fixed warm-up of every pass. It is counted in operations,
// not seconds, so that set-up time grows when the product gets slower.
const warmOps = 20000

// contractConfig fits one workload's run into the seconds the driver
// grants: untraced, as many 5 s passes as fit, at least 3 and at most 5
// (fewer passes, never a shorter window, is how a tight budget is met);
// traced, a third each for the reference pass and the traced pass, the
// rest being what the probes take.
func contractConfig(seed int64, seconds int) config {
	cfg := fullConfig(seed)
	cfg.passes = min(max(seconds/5, 3), 5)
	cfg.pass.window = time.Duration(seconds) * time.Second / time.Duration(cfg.passes)
	cfg.tracePass.window = time.Duration(seconds) * time.Second / 3
	return cfg
}

// endToEndResult is the untraced half of a workload's result.
type endToEndResult struct {
	passes            []metrics            // one per pass, each over its whole window
	slices            map[string][]float64 // per timing metric, its value in every slice of every pass
	ops               []uint64             // timed operations per pass
	merged            metrics              // what is reported
	attempted, failed uint64
}

// quietShare is the share of the slices whose value a timing metric
// reports: the quiet decile. Interference from the host (a neighbour on
// the core, a vCPU that has to be woken) only ever slows a slice down, it
// comes and goes over seconds, and it is what differs between two runs of
// the same code: on the reference host the median over passes of calls
// per second and CPU per call spread by 10-13 % between runs, their quiet
// decile by 4-8 %. A change to the code moves every slice, the quiet ones
// too.
const quietShare = 0.10

// merge fills in what the workload reports. The four timing metrics are
// the quiet decile of their values over all slices of all passes; the
// counts per call and the set-up time are the median over the passes.
func (r *endToEndResult) merge() {
	r.merged = medianOfPasses(r.passes)
	for _, d := range endToEnd {
		vals, ok := r.slices[d.name]
		if !ok {
			continue
		}
		q := quietShare
		if d.better == "higher" {
			q = 1 - quietShare
		}
		r.merged[d.name] = quantileOf(vals, q)
	}
}

// untracedRun measures the workloads with tracing off. Passes interleave
// across the workloads (A B C D, A B C D, ...), so that drift of the host
// hits every workload alike.
func untracedRun(ws []*workload, cfg config, log io.Writer) (map[string]*endToEndResult, error) {
	results := map[string]*endToEndResult{}
	ops := map[string][][]op{}
	for _, w := range ws {
		results[w.name] = &endToEndResult{slices: map[string][]float64{}}
		ops[w.name] = genOps(w, cfg.seed)
	}
	for pass := 1; pass <= cfg.passes; pass++ {
		for _, w := range ws {
			p, err := runPass(w, ops[w.name], cfg.pass, false)
			if err != nil {
				return nil, err
			}
			m := endToEndOf(p)
			r := results[w.name]
			r.passes = append(r.passes, m)
			r.ops = append(r.ops, p.ops)
			for name, vals := range p.slices {
				r.slices[name] = append(r.slices[name], vals...)
			}
			r.attempted += p.ops
			r.failed += p.failed
			fmt.Fprintf(log, "%-13s pass %d/%d  %7d ops  p25 %6.2f  p50 %6.2f  p99 %6.1f us  %7.0f calls/s  cpu %5.2f us  %6.2f allocs  %7.0f B  setup %.3f s  failed %d\n",
				w.name, pass, cfg.passes, p.ops, m["op_p25_us"], p.lat.quantile(0.50)/1e3, m["op_p99_us"], m["calls_per_s"],
				m["cpu_us_per_call"], m["allocs_per_call"], m["alloc_bytes_per_call"], m["setup_s"], p.failed)
		}
	}
	for _, w := range ws {
		r := results[w.name]
		r.merge()
		if err := r.merged.check(endToEnd); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return results, nil
}

// layerResult is the traced half of a workload's result.
type layerResult struct {
	m                 metrics
	trace             traceResult
	spans             []span
	attempted, failed uint64
}

// tracedRun takes a workload's per-layer metrics: an untraced reference
// pass, the traced pass, the isolated probes and the cold set-ups.
func tracedRun(w *workload, cfg config, wantSpans bool) (*layerResult, error) {
	ops := genOps(w, cfg.seed)
	ref, err := runPass(w, ops, cfg.tracePass, false)
	if err != nil {
		return nil, err
	}
	tp, err := runPass(w, ops, cfg.tracePass, true)
	if err != nil {
		return nil, err
	}
	res := &layerResult{attempted: ref.ops + tp.ops, failed: ref.failed + tp.failed}
	if res.trace, err = tp.trace.result(tp.calls); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if wantSpans {
		res.spans = tp.trace.spans()
	}

	m := metrics{}
	res.m = m
	for i, name := range stageNames {
		m[name] = res.trace.stageMeanNs[i]
	}
	m["trace.op_mean_ns"] = res.trace.opMeanNs
	m["trace.overhead_frac"] = tp.lat.mean()/ref.lat.mean() - 1
	for name, v := range res.trace.counts {
		m[name] = v
	}

	// What only an untraced pass shows: the product's own counters, the
	// tail beyond p99 and the collector.
	calls := float64(ref.calls)
	d := ref.d
	m["client.retransmits_per_call"] = float64(d.retransmits) / calls
	m["client.truncated_drops"] = float64(d.cliTruncated)
	m["server.queue_drops"] = float64(d.queueDrops)
	m["server.cache_hits"] = float64(d.cacheHits)
	m["server.truncated_drops"] = float64(d.srvTruncated)
	m["batchio.msgs_per_read"], m["batchio.msgs_per_write"] = 0, 0
	if w.udp {
		// The server's datagram socket carries no shim; its syscalls are
		// the ones batchio counted.
		m["server.reads_per_call"] = float64(d.dgReadCalls) / calls
		m["server.writes_per_call"] = float64(d.dgWriteCalls) / calls
		m["batchio.msgs_per_read"] = float64(d.dgReadMsgs) / float64(d.dgReadCalls)
		m["batchio.msgs_per_write"] = float64(d.dgWriteMsgs) / float64(d.dgWriteCalls)
	}
	m["runtime.gc_cycles_per_kcall"] = float64(d.gcCycles) / calls * 1e3
	m["runtime.gc_pause_us_per_kcall"] = float64(d.gcPause) / 1e3 / calls * 1e3
	// The median sits where the latency distribution's two modes meet (a
	// call whose four wake-ups all find their peer awake, against one that
	// has to wait for a thread or a vCPU), so it flips between them with
	// the host's mood: a diagnostic, not a metric a change is judged by.
	m["dist.op_p50_us"] = ref.lat.quantile(0.50) / 1e3
	m["tail.op_p999_us"] = ref.lat.quantile(0.999) / 1e3
	m["tail.op_max_us"] = float64(ref.lat.max) / 1e3

	if err := probe(w, ops, cfg, m); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	if err := m.check(perLayer); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// probe fills in the isolated layer probes for one workload.
func probe(w *workload, ops [][]op, cfg config, m metrics) error {
	env, err := newProbeEnv()
	if err != nil {
		return err
	}
	budget := cfg.probeBudget
	if err := wireProbes(env, ops[0], budget, m); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	if err := planProbes(env, budget, m); err != nil {
		return fmt.Errorf("wire plans: %w", err)
	}
	headerProbes(env, budget, m)
	size, err := meanRequestSize(env, ops[0])
	if err != nil {
		return err
	}
	if err := recordProbes(size, budget, m); err != nil {
		return fmt.Errorf("xdr: %w", err)
	}
	// The whole-rig probes cross goroutines on every call, so they get a
	// longer loop than the single-function ones.
	if m["netsim.op_mean_ns"], err = netsimProbe(ops[0], 20*budget); err != nil {
		return err
	}
	if m["pmap.getport_us"], err = getPortProbe(10 * budget); err != nil {
		return fmt.Errorf("pmap: %w", err)
	}
	if m["setup.cold_p50_us"], err = coldSetups(w, ops, cfg.coldSetups); err != nil {
		return fmt.Errorf("cold set-up: %w", err)
	}
	if err := rpcgenProbe(budget, m); err != nil {
		return fmt.Errorf("rpcgen: %w", err)
	}
	m["batchio.mmsg_active"], err = mmsgActive()
	return err
}
