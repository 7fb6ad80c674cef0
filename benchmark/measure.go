package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// passConfig sizes one pass.
type passConfig struct {
	window  time.Duration // timed window
	warmOps int           // fixed warm-up, in operations, before the window
}

// counters is a reading of everything a pass reports as a difference
// between the start and the end of its window.
type counters struct {
	cpu                 time.Duration // user+sys of the process: both ends and the kernel's loopback work
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	retransmits         uint64 // client: datagram re-sends and stream retries
	cliTruncated        uint64
	queueDrops          uint64
	cacheHits           uint64
	srvTruncated        uint64
	dgReadCalls         uint64 // server datagram syscalls and the messages they moved
	dgReadMsgs          uint64
	dgWriteCalls        uint64
	dgWriteMsgs         uint64
}

func (r *rig) read() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		cpu:     time.Duration(cpuTime()),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
		queueDrops: r.srv.QueueDrops(), cacheHits: r.srv.CacheHits(), srvTruncated: r.srv.TruncatedDrops(),
	}
	c.dgReadCalls, c.dgReadMsgs, c.dgWriteCalls, c.dgWriteMsgs = r.srv.DatagramIOStats()
	for _, cl := range r.callers {
		if cl.udp != nil {
			c.retransmits += cl.udp.RetryStats().Retransmits
			c.cliTruncated += cl.udp.TruncatedDrops()
		} else {
			c.retransmits += cl.tcp.RetryStats().Retries
		}
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		cpu:     a.cpu - b.cpu,
		mallocs: a.mallocs - b.mallocs, allocBytes: a.allocBytes - b.allocBytes,
		gcCycles: a.gcCycles - b.gcCycles, gcPause: a.gcPause - b.gcPause,
		retransmits: a.retransmits - b.retransmits, cliTruncated: a.cliTruncated - b.cliTruncated,
		queueDrops: a.queueDrops - b.queueDrops, cacheHits: a.cacheHits - b.cacheHits, srvTruncated: a.srvTruncated - b.srvTruncated,
		dgReadCalls: a.dgReadCalls - b.dgReadCalls, dgReadMsgs: a.dgReadMsgs - b.dgReadMsgs,
		dgWriteCalls: a.dgWriteCalls - b.dgWriteCalls, dgWriteMsgs: a.dgWriteMsgs - b.dgWriteMsgs,
	}
}

// sliceLen is the length of the slices a window is cut into. A slice is
// long enough to hold everything periodic in the product (thousands of
// operations, tens of collector cycles on tcp_echo2000) and short enough
// that a burst of interference from the host spoils only some of them.
const sliceLen = 250 * time.Millisecond

// callerSlice is what one caller saw in one slice of its window.
type callerSlice struct {
	index    int     // position of the slice in the window
	dur      int64   // ns, from the end of the previous slice to the end of the op that closed this one
	calls    uint64  // by this caller
	p25, p99 float64 // ns, of this caller's op latencies
	cpu      int64   // ns of process CPU; read by caller 0 only
}

// passResult is what one pass measured. Every count covers the timed
// window only.
type passResult struct {
	setup              time.Duration // pass start to ready to measure
	wall               time.Duration
	ops, calls, failed uint64
	lat                *hist                // per-op latency, stub entry to verified return
	slices             map[string][]float64 // per timing metric, its value in every slice of the window
	d                  counters             // end of window minus start of window
	trace              *tracer              // nil for an untraced pass
}

func cpuTime() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runPass builds a fresh rig, waits for the first verified reply of every
// procedure in the mix, warms up, and then measures one timed window. An
// operation that fails in the window is counted; a rig that cannot be
// built or warmed up is an error.
func runPass(w *workload, ops [][]op, cfg passConfig, traced bool) (*passResult, error) {
	runtime.GC() // start every pass from a collected heap, whatever ran before it
	start := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(w)
	}
	r, err := buildRig(w, ops, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: build rig: %w", w.name, err)
	}
	defer r.close()
	if err := r.firstReplies(); err != nil {
		return nil, err
	}
	if failed := r.warm(cfg.warmOps); failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d warm-up operations failed", w.name, failed, cfg.warmOps)
	}
	res := &passResult{setup: time.Since(start), lat: new(hist), trace: tr}

	type tally struct {
		lat, cur           hist // the whole window; the current slice
		ops, calls, failed uint64
		slices             []callerSlice
	}
	nSlices := max(int(cfg.window/sliceLen), 1)
	sliceNs := int64(cfg.window) / int64(nSlices)
	tallies := make([]tally, w.callers)
	for i := range tallies {
		tallies[i].slices = make([]callerSlice, 0, nSlices)
	}
	if tr != nil {
		tr.reset()
	}
	before := r.read()
	begin := now()
	deadline := begin + sliceNs*int64(nSlices)
	r.run(func(ci int, c *caller) {
		t := &tallies[ci]
		var sl callerSlice
		sliceStart, sliceEnd, cpuStart := begin, begin+sliceNs, int64(before.cpu)
		for {
			o := c.nextOp()
			t0 := now()
			ok := c.do(o)
			t9 := now()
			t.lat.record(t9 - t0)
			t.cur.record(t9 - t0)
			t.ops++
			t.calls += o.calls()
			sl.calls += o.calls()
			if !ok {
				t.failed++
			}
			if tr != nil {
				tr.finishOp(tr.slots[ci], t0, t9)
			}
			if t9 < sliceEnd {
				continue
			}
			// Close the slice. An op that outlasted whole slices (a datagram
			// retransmitted after 500 ms, say) leaves their indices unused.
			sl.dur, sl.p25, sl.p99 = t9-sliceStart, t.cur.quantile(0.25), t.cur.quantile(0.99)
			if ci == 0 {
				cpu := cpuTime()
				sl.cpu, cpuStart = cpu-cpuStart, cpu
			}
			t.slices = append(t.slices, sl) // at most nSlices times: every closing passes a boundary
			if t9 >= deadline {
				return
			}
			t.cur = hist{}
			sl = callerSlice{index: sl.index}
			for sliceStart = t9; sliceEnd <= t9; sliceEnd += sliceNs {
				sl.index++
			}
		}
	})
	res.wall = time.Duration(now() - begin)
	after := r.read()

	perCaller := make([][]callerSlice, len(tallies))
	for i := range tallies {
		t := &tallies[i]
		res.lat.merge(&t.lat)
		res.ops += t.ops
		res.calls += t.calls
		res.failed += t.failed
		perCaller[i] = t.slices
	}
	res.slices = sliceMetrics(perCaller, nSlices)
	res.d = after.minus(before)
	res.failed += r.missingSums()
	return res, nil
}

// sliceMetrics turns the callers' slices into the timing metrics' values
// per slice: a latency percentile per caller and slice; calls per second
// and CPU per call per slice, over all callers, where every caller closed
// that slice.
func sliceMetrics(perCaller [][]callerSlice, nSlices int) map[string][]float64 {
	byIndex := make([][]callerSlice, nSlices)
	for _, slices := range perCaller { // caller 0 first: it is the one that read the CPU time
		for _, sl := range slices {
			byIndex[sl.index] = append(byIndex[sl.index], sl)
		}
	}
	m := map[string][]float64{}
	for _, sls := range byIndex {
		if len(sls) != len(perCaller) {
			continue
		}
		var calls uint64
		var rate float64
		for _, sl := range sls {
			calls += sl.calls
			rate += float64(sl.calls) / float64(sl.dur) * 1e9
			m["op_p25_us"] = append(m["op_p25_us"], sl.p25/1e3)
			m["op_p99_us"] = append(m["op_p99_us"], sl.p99/1e3)
		}
		m["calls_per_s"] = append(m["calls_per_s"], rate)
		m["cpu_us_per_call"] = append(m["cpu_us_per_call"], float64(sls[0].cpu)/1e3/float64(calls))
	}
	return m
}

// missingSums reports by how many the SUMs the server executed differ from
// the SUMs the callers have sent since the rig was built. Every plain call
// has returned by now, but a batched call has no reply, and the terminal
// call's reply may overtake the handlers of the calls batched before it,
// so the count is given a moment to settle.
func (r *rig) missingSums() uint64 {
	var sent uint64
	for _, c := range r.callers {
		sent += c.sums
	}
	for wait := time.Millisecond; ; wait *= 2 {
		executed := r.h.sums.Load()
		switch {
		case executed == sent:
			return 0
		case wait <= time.Second:
			time.Sleep(wait)
		case executed > sent:
			return executed - sent
		default:
			return sent - executed
		}
	}
}

// endToEndOf turns one untraced pass into the end-to-end metrics.
func endToEndOf(p *passResult) metrics {
	calls := float64(p.calls)
	return metrics{
		"op_p25_us":            p.lat.quantile(0.25) / 1e3,
		"op_p99_us":            p.lat.quantile(0.99) / 1e3,
		"calls_per_s":          calls / p.wall.Seconds(),
		"cpu_us_per_call":      float64(p.d.cpu) / 1e3 / calls,
		"allocs_per_call":      float64(p.d.mallocs) / calls,
		"alloc_bytes_per_call": float64(p.d.allocBytes) / calls,
		"setup_s":              p.setup.Seconds(),
	}
}

// medianOfPasses merges the passes of one workload into the values
// reported: every metric is the median over the passes.
func medianOfPasses(passes []metrics) metrics {
	out := metrics{}
	for name := range passes[0] {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = p[name]
		}
		out[name] = median(vals)
	}
	return out
}
