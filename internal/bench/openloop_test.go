package bench

import (
	"testing"
	"time"
)

// TestHistogramBucketsRoundTrip pins the log-linear bucket math: every
// value reconstructs within its bucket's relative resolution.
func TestHistogramBucketsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 4096, 1e6, 1e9, 123456789012} {
		i := histBucket(v)
		got := histValue(i)
		// Exact below the linear range; within half an octave step above.
		if v < histLinear {
			if got != v {
				t.Errorf("v=%d: bucket %d reconstructs %d", v, i, got)
			}
			continue
		}
		lo, hi := float64(v)*0.95, float64(v)*1.05
		if f := float64(got); f < lo || f > hi {
			t.Errorf("v=%d: bucket %d reconstructs %d (outside 5%%)", v, i, got)
		}
	}
	// Monotone: bucket index never decreases with the value.
	prev := -1
	for v := uint64(0); v < 1<<20; v = v*2 + 1 {
		if i := histBucket(v); i < prev {
			t.Fatalf("bucket(%d) = %d < previous %d", v, i, prev)
		} else {
			prev = i
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	if c := h.count(); c != 1000 {
		t.Fatalf("count = %d", c)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}, {0.999, 999 * time.Microsecond}}
	for _, c := range checks {
		got := h.quantile(c.q)
		lo := time.Duration(float64(c.want) * 0.93)
		hi := time.Duration(float64(c.want) * 1.07)
		if got < lo || got > hi {
			t.Errorf("q%.3f = %v, want ~%v", c.q, got, c.want)
		}
	}
	if m := h.max(); m < 990*time.Microsecond || m > 1100*time.Microsecond {
		t.Errorf("max = %v, want ~1ms", m)
	}
}

// TestOpenLoopSmokeSim tier-1-verifies the open-loop harness end to end
// on netsim: a short Poisson run completes calls, reports a coherent
// tail, and accounts for every scheduled arrival.
func TestOpenLoopSmokeSim(t *testing.T) {
	res, err := OpenLoop(OpenLoopOptions{
		Transport: "sim",
		Conns:     2,
		Depth:     16,
		Rate:      2000,
		Duration:  250 * time.Millisecond,
		ArraySize: 8,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("open-loop errors: %+v", res)
	}
	if res.Completed == 0 {
		t.Fatalf("no calls completed: %+v", res)
	}
	if res.Completed+res.Dropped+res.Errors != res.Offered {
		t.Fatalf("accounting: offered %d != completed %d + dropped %d + errors %d",
			res.Offered, res.Completed, res.Dropped, res.Errors)
	}
	if res.P50Us <= 0 || res.P99Us < res.P50Us || res.P999Us < res.P99Us {
		t.Fatalf("incoherent tail: %+v", res)
	}
	if res.AchievedRate <= 0 {
		t.Fatalf("achieved rate %v", res.AchievedRate)
	}
}

// TestOpenLoopGrid runs a two-transport grid through OpenLoopGrid, the
// path sunbench -openloop takes: one row per transport, in order, each
// serving the load without errors.
func TestOpenLoopGrid(t *testing.T) {
	var grid []OpenLoopOptions
	for _, tr := range []string{"sim", "udp"} {
		grid = append(grid, OpenLoopOptions{
			Transport: tr, Conns: 4, Depth: 8, Rate: 1500,
			Duration: 150 * time.Millisecond, Seed: 7,
		})
	}
	rows, err := OpenLoopGrid(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(grid) {
		t.Fatalf("%d rows for %d transports", len(rows), len(grid))
	}
	for i, res := range rows {
		if res.Transport != grid[i].Transport || res.Errors != 0 || res.Completed == 0 {
			t.Fatalf("row %d: %+v", i, res)
		}
	}
}
