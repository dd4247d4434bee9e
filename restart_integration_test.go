package s3fifo

import (
	"testing"

	"s3fifo/internal/harness"
)

// TestWarmRestartRecovery is the warm-restart smoke test: after a
// snapshot save + restore cycle, the very first request window must
// recover at least 95% of the steady-state hit ratio for every engine —
// the paper's "restart without the re-warming outage" claim, asserted
// end-to-end over real TCP. A scaled-down sweep keeps it test-sized; the
// full-size sweep is harness.RestartSweep with its defaults.
func TestWarmRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("restart sweep needs a warmed server")
	}
	rows, err := harness.RestartSweep(harness.RestartSweepConfig{
		Objects:   4000,
		WarmOps:   60_000,
		WindowOps: 8000,
		Dir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.SteadyHitRatio < 0.3 {
			t.Errorf("%s: steady-state hit ratio %.3f too low to measure recovery", row.Engine, row.SteadyHitRatio)
			continue
		}
		if rec := row.Recovery(); rec < 0.95 {
			t.Errorf("%s: warm restart recovered %.1f%% of steady-state hit ratio (steady %.3f, warm %.3f), want >= 95%%",
				row.Engine, rec*100, row.SteadyHitRatio, row.WarmHitRatio)
		}
		// The warm window must also beat the cold restart it replaces, or
		// the snapshot machinery is dead weight.
		if row.WarmHitRatio <= row.ColdHitRatio {
			t.Errorf("%s: warm window %.3f no better than cold restart %.3f",
				row.Engine, row.WarmHitRatio, row.ColdHitRatio)
		}
	}
}
