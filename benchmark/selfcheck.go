package main

import (
	"fmt"
	"io"
	"math"
)

// exactCounts are the per-layer counts that must repeat to the third
// decimal between two runs of one binary, on the TCP workloads: they
// count syscalls and records, not time. (On udp_mix the server's reads
// per call depend on how many datagrams recvmmsg happens to find.)
var exactCounts = []string{
	"client.writes_per_call", "client.reads_per_call", "server.reads_per_call", "xdr.records_per_write",
}

// compareRuns prints, for every end-to-end metric of every workload, both
// runs' medians, their relative gap, the bound and a verdict, then the
// same for the exact counts, and returns the number of FAILs.
func compareRuns(a, b *report, out io.Writer) int {
	fmt.Fprintln(out, "---- self-check: run 1 against run 2 ----")
	fmt.Fprintf(out, "%-13s %-24s %14s %14s %8s %8s\n", "workload", "metric", "run 1", "run 2", "gap", "bound")
	failures := 0
	verdict := func(w, name string, va, vb, gap, bound float64) {
		mark := "PASS"
		if !(gap <= bound) {
			mark = "FAIL"
			failures++
		}
		fmt.Fprintf(out, "%-13s %-24s %14.4f %14.4f %7.2f%% %7.2f%%  %s\n", w, name, va, vb, 100*gap, 100*bound, mark)
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name].Value, wb.EndToEnd[d.name].Value
			verdict(w.name, d.name, va, vb, math.Abs(va-vb)/va, d.bound)
		}
		if w.udp {
			continue
		}
		for _, name := range exactCounts {
			va, vb := wa.PerLayer[name].Value, wb.PerLayer[name].Value
			verdict(w.name, name, va, vb, math.Abs(math.Round(va*1e3)-math.Round(vb*1e3)), 0)
		}
	}
	return failures
}

// selfCheck runs the full benchmark twice on this binary and holds the
// two runs against the benchmark's own bounds: a benchmark that cannot
// agree with itself within a bound cannot judge a change by it.
func selfCheck(cfg config, out io.Writer) error {
	var runs [2]*report
	for i := range runs {
		fmt.Fprintf(out, "---- self-check run %d of 2 ----\n", i+1)
		r, err := fullRun(cfg, out, "", "")
		if err != nil {
			return err
		}
		runs[i] = r
		fmt.Fprintln(out)
	}
	failures := compareRuns(runs[0], runs[1], out)
	if failures > 0 {
		return fmt.Errorf("self-check: %d comparisons outside their bound", failures)
	}
	fmt.Fprintln(out, "self-check passed: every end-to-end metric agrees within its bound, every exact count repeats")
	return nil
}
