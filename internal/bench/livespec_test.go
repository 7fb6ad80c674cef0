package bench

import (
	"unsafe"

	"fmt"
	"strings"
	"testing"

	"specrpc/internal/bench/livespecrpc"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// TestLiveSpecSim runs a small live comparison over netsim and checks
// shape and self-consistency; the real numbers come from sunbench.
func TestLiveSpecSim(t *testing.T) {
	rows, err := LiveSpec(LiveSpecOptions{
		Transports: []string{"sim"},
		Sizes:      []int{20, 250},
		Calls:      40,
		Warmup:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (len(LiveModes) + 2); len(rows) != want { // +2: the fused and compiled series
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.NsPerCall <= 0 || r.CallsPerSec <= 0 {
			t.Errorf("%s/%s/N=%d: non-positive measurement %+v", r.Transport, r.Mode, r.N, r)
		}
	}
	out := FormatLiveSpec(rows)
	for _, want := range []string{"Transport", "Generic", "Specialized", "Fused", "Compiled", "sim"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

// TestLiveSpecReps pins the median-of-passes merge: the grid shape is
// identical to a single pass (same points, same order) and every point
// still carries a positive median measurement.
func TestLiveSpecReps(t *testing.T) {
	rows, err := LiveSpec(LiveSpecOptions{
		Transports: []string{"sim"},
		Sizes:      []int{20},
		Calls:      10,
		Warmup:     2,
		Reps:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(LiveModes) + 2; len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for i, r := range rows {
		if r.Transport != "sim" || r.N != 20 {
			t.Errorf("row %d: unexpected point %s/N=%d", i, r.Transport, r.N)
		}
		if r.NsPerCall <= 0 || r.CallsPerSec <= 0 {
			t.Errorf("%s/%s: non-positive median %+v", r.Transport, r.Mode, r)
		}
	}
}

// benchSizes is the paper's grid, the one the acceptance criteria cite.
var benchSizes = Sizes

// BenchmarkLiveSpecEncode measures the client marshaling stage (paper
// Table 1) on the live encode path: plan -> pooled growable buffer. The
// specialized plan must be allocation-free here.
func BenchmarkLiveSpecEncode(b *testing.B) {
	for _, m := range LiveModes {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", m, n), func(b *testing.B) {
				plan := LivePlan(m)
				args := make([]int32, n)
				for i := range args {
					args[i] = int32(i * 13)
				}
				bs := xdr.NewBufEncode(make([]byte, 0, 4*n+64))
				enc := xdr.NewEncoder(bs)
				b.ReportAllocs()
				b.SetBytes(int64(4*n + 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bs.Reset()
					if err := plan.Marshal(enc, &args); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLiveSpecDecode measures the unmarshal stage over the memory
// stream the transports decode replies from.
func BenchmarkLiveSpecDecode(b *testing.B) {
	for _, m := range LiveModes {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/N=%d", m, n), func(b *testing.B) {
				plan := LivePlan(m)
				args := make([]int32, n)
				for i := range args {
					args[i] = int32(i * 13)
				}
				bs := xdr.NewBufEncode(nil)
				if err := plan.Marshal(xdr.NewEncoder(bs), &args); err != nil {
					b.Fatal(err)
				}
				raw := bs.Buffer()
				out := make([]int32, n)
				ms := xdr.NewMemDecode(raw)
				dec := xdr.NewDecoder(ms)
				b.ReportAllocs()
				b.SetBytes(int64(len(raw)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ms.Reset()
					if err := plan.Marshal(dec, &out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestLiveSpecEncodeAllocFree pins the acceptance criterion directly:
// the specialized plan encodes the whole grid with zero allocations.
func TestLiveSpecEncodeAllocFree(t *testing.T) {
	plan := LivePlan(wire.Specialized)
	for _, n := range benchSizes {
		args := make([]int32, n)
		bs := xdr.NewBufEncode(make([]byte, 0, 4*n+64))
		enc := xdr.NewEncoder(bs)
		if err := plan.Marshal(enc, &args); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			bs.Reset()
			if err := plan.Marshal(enc, &args); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("N=%d: %.1f allocs/op on encode, want 0", n, allocs)
		}
	}
}

// ---------------------------------------------------------------------------
// Fused whole-call series: the complete message (header + args) in one
// codec pass, measured against the same grid.

// fusedBenchPlans compiles the whole-call codecs the live fused series
// runs on: client identity, fused procedure, specialized int-array plan.
func fusedBenchPlans(tb testing.TB) (*wire.CallPlan[[]int32], *wire.ReplyPlan[[]int32]) {
	tb.Helper()
	tmpl, err := rpcmsg.NewCallTemplate(liveProg, liveVers, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		tb.Fatal(err)
	}
	cp, err := wire.NewCallPlan(tmpl, liveProcFused, LivePlan(wire.Specialized))
	if err != nil {
		tb.Fatal(err)
	}
	rp, err := wire.NewReplyPlan(rpcmsg.MustReplyTemplate(rpcmsg.None()), LivePlan(wire.Specialized))
	if err != nil {
		tb.Fatal(err)
	}
	if cp.Codec().Rung() != wire.RungFused || rp.Codec().Rung() != wire.RungFused {
		tb.Fatalf("hand-built plan's codecs on the %v and %v rungs, want fused", cp.Codec().Rung(), rp.Codec().Rung())
	}
	return cp, rp
}

// BenchmarkLiveFusedEncode measures the whole call message — header and
// arguments fused into one codec pass — on the paper's grid.
func BenchmarkLiveFusedEncode(b *testing.B) {
	cp, _ := fusedBenchPlans(b)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			args := make([]int32, n)
			for i := range args {
				args[i] = int32(i * 13)
			}
			buf := make([]byte, 0, 4*n+128)
			bs := xdr.NewBufEncode(buf)
			b.ReportAllocs()
			b.SetBytes(int64(4*n + 4 + 40))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.SetBuffer(buf[:0])
				if err := cp.AppendCall(bs, uint32(i), &args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveFusedDecode measures result decode straight out of the
// raw accepted-success reply, no intermediate handle.
func BenchmarkLiveFusedDecode(b *testing.B) {
	_, rp := fusedBenchPlans(b)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			res := make([]int32, n)
			bs := xdr.NewBufEncode(nil)
			if err := rp.AppendReply(bs, 7, &res); err != nil {
				b.Fatal(err)
			}
			raw := append([]byte(nil), bs.Buffer()...)
			out := make([]int32, n)
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if handled, err := rp.DecodeReply(raw, &out); !handled || err != nil {
					b.Fatal(handled, err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Compiled-stub series: the same whole-call messages produced by the
// rpcgen-emitted straight-line routines, measured against the same grid.

// compiledBenchCodecs builds the whole-message codecs the live compiled
// series runs on, failing unless the generated registration put them on
// the compiled rung (on any other the series would quietly re-measure
// the fused path).
func compiledBenchCodecs(tb testing.TB) (*wire.CallCodec, *wire.ReplyCodec) {
	tb.Helper()
	tmpl, err := rpcmsg.NewCallTemplate(liveProg, liveVers, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		tb.Fatal(err)
	}
	codec := livespecrpc.PlanArr.Codec()
	cc, err := wire.NewCallCodec(tmpl, liveProcCompiled, codec)
	if err != nil {
		tb.Fatal(err)
	}
	rc := wire.NewReplyCodec(rpcmsg.MustReplyTemplate(rpcmsg.None()), codec)
	if cc.Rung() != wire.RungCompiled || rc.Rung() != wire.RungCompiled {
		tb.Fatalf("livespecrpc codecs on the %v and %v rungs, want compiled", cc.Rung(), rc.Rung())
	}
	return cc, rc
}

// BenchmarkLiveCompiledEncode measures the whole call message through
// the emitted straight-line encoder — the compiled counterpart of
// BenchmarkLiveFusedEncode, so the two are directly comparable without
// loopback noise in the way.
func BenchmarkLiveCompiledEncode(b *testing.B) {
	cc, _ := compiledBenchCodecs(b)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			args := make(livespecrpc.Livearr, n)
			for i := range args {
				args[i] = int32(i * 13)
			}
			buf := make([]byte, 0, 4*n+128)
			bs := xdr.NewBufEncode(buf)
			b.ReportAllocs()
			b.SetBytes(int64(4*n + 4 + 40))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.SetBuffer(buf[:0])
				if err := cc.Append(bs, uint32(i), unsafe.Pointer(&args)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveCompiledDecode measures result decode through the
// emitted straight-line decoder out of a raw accepted-success reply.
func BenchmarkLiveCompiledDecode(b *testing.B) {
	_, rc := compiledBenchCodecs(b)
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			res := make(livespecrpc.Livearr, n)
			bs := xdr.NewBufEncode(nil)
			if err := rc.Append(bs, 7, unsafe.Pointer(&res)); err != nil {
				b.Fatal(err)
			}
			raw := append([]byte(nil), bs.Buffer()...)
			out := make(livespecrpc.Livearr, n)
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if handled, err := rc.DecodeReply(raw, unsafe.Pointer(&out)); !handled || err != nil {
					b.Fatal(handled, err)
				}
			}
		})
	}
}

// BenchmarkLiveCopyCeiling moves the same bytes with copy: what a
// marshal stage would cost if the wire needed no byte order at all, the
// ceiling the three series above are read against.
func BenchmarkLiveCopyCeiling(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			src, dst := make([]byte, 4*n+4), make([]byte, 4*n+4)
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				copy(dst, src)
			}
		})
	}
}

// TestLiveCompiledAllocFree pins the compiled series' acceptance
// criterion: whole-call encode and whole-reply decode at zero
// allocations per operation over the entire grid, same as fused.
func TestLiveCompiledAllocFree(t *testing.T) {
	cc, rc := compiledBenchCodecs(t)
	for _, n := range benchSizes {
		args := make(livespecrpc.Livearr, n)
		buf := make([]byte, 0, 4*n+128)
		bs := xdr.NewBufEncode(buf)
		if allocs := testing.AllocsPerRun(50, func() {
			bs.SetBuffer(buf[:0])
			if err := cc.Append(bs, 9, unsafe.Pointer(&args)); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("compiled encode N=%d: %.1f allocs/op, want 0", n, allocs)
		}

		bs.SetBuffer(buf[:0])
		if err := rc.Append(bs, 9, unsafe.Pointer(&args)); err != nil {
			t.Fatal(err)
		}
		raw := append([]byte(nil), bs.Buffer()...)
		out := make(livespecrpc.Livearr, n)
		if allocs := testing.AllocsPerRun(50, func() {
			if handled, err := rc.DecodeReply(raw, unsafe.Pointer(&out)); !handled || err != nil {
				t.Fatal(handled, err)
			}
		}); allocs != 0 {
			t.Errorf("compiled decode N=%d: %.1f allocs/op, want 0", n, allocs)
		}
	}
}

// TestLiveFusedAllocFree pins the fused series' acceptance criterion:
// whole-call encode and whole-reply decode at zero allocations per
// operation over the entire grid.
func TestLiveFusedAllocFree(t *testing.T) {
	cp, rp := fusedBenchPlans(t)
	for _, n := range benchSizes {
		args := make([]int32, n)
		buf := make([]byte, 0, 4*n+128)
		bs := xdr.NewBufEncode(buf)
		if allocs := testing.AllocsPerRun(50, func() {
			bs.SetBuffer(buf[:0])
			if err := cp.AppendCall(bs, 9, &args); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("fused encode N=%d: %.1f allocs/op, want 0", n, allocs)
		}

		bs.SetBuffer(buf[:0])
		if err := rp.AppendReply(bs, 9, &args); err != nil {
			t.Fatal(err)
		}
		raw := append([]byte(nil), bs.Buffer()...)
		out := make([]int32, n)
		if allocs := testing.AllocsPerRun(50, func() {
			if handled, err := rp.DecodeReply(raw, &out); !handled || err != nil {
				t.Fatal(handled, err)
			}
		}); allocs != 0 {
			t.Errorf("fused decode N=%d: %.1f allocs/op, want 0", n, allocs)
		}
	}
}
