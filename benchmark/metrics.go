package main

import (
	"fmt"
	"math"
	"regexp"
)

// metricDef declares one metric the benchmark prints. The tables below are
// the source BENCHMARK.json is written from; TestBenchmarkJSONMatches pins
// the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a caller of the RPC system sees, taken from
// untraced passes only. The share of failed operations is the eighth: it
// is 0 on loopback, so it travels as the result line's attempted/failed
// counts and fails the run outright instead of carrying a relative bound.
//
// The bounds are what the reference host supports, not what one would
// wish: between ten runs of one binary the timing metrics spread by 4-12 %
// (interquartile range over median) whatever the estimator, and the host
// drifts by more than that over an hour, so a tighter bound would reject
// changes for the weather. The counts repeat to a few parts in a thousand.
// The median latency is not here at all: see dist.op_p50_us.
var endToEnd = []metricDef{
	{"op_p25_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"calls_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_call", "us", "lower", 0.25},
	{"allocs_per_call", "count", "lower", 0.02},
	{"alloc_bytes_per_call", "B", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// stageNames are the contiguous stages of one traced operation, in the
// order the stamps t0..t9 are taken; their means sum to trace.op_mean_ns.
var stageNames = [nStages]string{
	"client.send_path_ns",
	"net.request_leg_ns",
	"server.dispatch_path_ns",
	"server.handler_ns",
	"server.reply_path_ns",
	"server.burst_ns",
	"net.reply_leg_ns",
	"client.recv_path_ns",
}

// perLayer are the metrics of single layers (layer = product package),
// taken from the traced pass, its untraced reference pass and the isolated
// probes. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"client.send_path_ns", "ns", "lower", 0},
	{"net.request_leg_ns", "ns", "lower", 0},
	{"server.dispatch_path_ns", "ns", "lower", 0},
	{"server.handler_ns", "ns", "lower", 0},
	{"server.reply_path_ns", "ns", "lower", 0},
	{"server.burst_ns", "ns", "lower", 0},
	{"net.reply_leg_ns", "ns", "lower", 0},
	{"client.recv_path_ns", "ns", "lower", 0},
	{"trace.op_mean_ns", "ns", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"client.write_syscall_ns", "ns", "lower", 0},
	{"server.write_syscall_ns", "ns", "lower", 0},
	{"client.writes_per_call", "count", "lower", 0},
	{"client.reads_per_call", "count", "lower", 0},
	{"server.writes_per_call", "count", "lower", 0},
	{"server.reads_per_call", "count", "lower", 0},
	{"xdr.records_per_write", "count", "higher", 0},
	{"client.retransmits_per_call", "count", "lower", 0},
	{"client.truncated_drops", "count", "lower", 0},
	{"server.queue_drops", "count", "lower", 0},
	{"server.cache_hits", "count", "lower", 0},
	{"server.truncated_drops", "count", "lower", 0},
	{"batchio.msgs_per_read", "count", "higher", 0},
	{"batchio.msgs_per_write", "count", "higher", 0},
	{"batchio.mmsg_active", "count", "higher", 0},
	{"wire.call_encode_ns", "ns", "lower", 0},
	{"wire.args_decode_ns", "ns", "lower", 0},
	{"wire.reply_encode_ns", "ns", "lower", 0},
	{"wire.reply_decode_ns", "ns", "lower", 0},
	{"wire.codec_allocs_per_call", "count", "lower", 0},
	{"wire.generic_codec_ns", "ns", "lower", 0},
	{"wire.spec_speedup", "ratio", "higher", 0},
	{"wire.fastpath_share", "ratio", "higher", 0},
	{"wire.compile_plan_us", "us", "lower", 0},
	{"wire.derive_plan_ms", "ms", "lower", 0},
	{"rpcmsg.call_hdr_encode_ns", "ns", "lower", 0},
	{"rpcmsg.call_hdr_parse_ns", "ns", "lower", 0},
	{"rpcmsg.reply_hdr_encode_ns", "ns", "lower", 0},
	{"rpcmsg.reply_hdr_parse_ns", "ns", "lower", 0},
	{"xdr.rec_write_ns", "ns", "lower", 0},
	{"xdr.rec_read_ns", "ns", "lower", 0},
	{"xdr.buf_pool_ns", "ns", "lower", 0},
	{"netsim.op_mean_ns", "ns", "lower", 0},
	{"pmap.getport_us", "us", "lower", 0},
	{"setup.cold_p50_us", "us", "lower", 0},
	{"rpcgen.generate_ms", "ms", "lower", 0},
	{"rpcgen.emitted_bytes", "B", "lower", 0},
	{"runtime.gc_cycles_per_kcall", "count", "lower", 0},
	{"runtime.gc_pause_us_per_kcall", "us", "lower", 0},
	{"dist.op_p50_us", "us", "lower", 0},
	{"tail.op_p999_us", "us", "lower", 0},
	{"tail.op_max_us", "us", "lower", 0},
}

// metrics is one set of measured values, keyed by metric name.
type metrics map[string]float64

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// check reports the first declared metric that is missing or not a finite
// number, and the first measured one that is undeclared or badly named.
func (m metrics) check(defs []metricDef) error {
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s is missing", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a finite number: %v", d.name, v)
		}
	}
	for name := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
		}
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}
