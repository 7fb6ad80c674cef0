package bench

import (
	"testing"

	"specrpc/internal/testutil"
)

// TestChaosSmoke runs a tiny chaos point per transport: the structural
// assertions (machinery fired, most calls landed) mirror what benchdiff
// checks on the committed series.
func TestChaosSmoke(t *testing.T) {
	for _, tr := range []string{"sim", "udp", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			defer testutil.NoLeak(t)()
			res, err := Chaos(ChaosOptions{
				Transport: tr, Conns: 2, Calls: 80, Loss: 0.15, Seed: 7,
			})
			if err != nil {
				t.Fatalf("Chaos: %v", err)
			}
			if res.Acked < int64(res.Calls/2) {
				t.Fatalf("goodput collapsed: %d/%d acked (%d errors)", res.Acked, res.Calls, res.Errors)
			}
			if res.Injected == 0 {
				t.Fatalf("fault schedule never fired (seed %d)", res.Seed)
			}
			switch tr {
			case "sim", "udp":
				if res.Retransmits == 0 {
					t.Fatal("no retransmits under datagram loss")
				}
			case "tcp":
				if res.Reconnects == 0 {
					t.Fatal("no reconnects under injected resets")
				}
			}
		})
	}
}
