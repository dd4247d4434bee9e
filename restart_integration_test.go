package s3fifo

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/concurrent"
	"s3fifo/internal/server"
)

// restartValueBytes is the payload size of every request.
const restartValueBytes = 64

// restartRow is one engine's warm-restart measurement.
type restartRow struct {
	// steady is the last pre-shutdown window's hit ratio.
	steady float64
	// warm is the first window after restoring the snapshot.
	warm float64
	// cold is the first window after a cold restart (fresh cache, same
	// config) — the re-warming outage being avoided.
	cold float64
}

// TestWarmRestartRecovery is the warm-restart smoke test: for each
// engine, a server is warmed to steady state over real TCP, shut down
// into a metadata snapshot (cache.SaveFile), restarted from it
// (cache.LoadFile), and the first post-restart request window's hit
// ratio must recover at least 95% of the steady-state hit ratio — the
// paper's "restart without the re-warming outage" claim, asserted end to
// end. All windows replay Zipf α=1.0 traffic over the same key space;
// the measurement windows use seeds distinct from the warming trace, so
// the post-restart window models traffic continuing, not a literal
// replay of requests the cache just served.
func TestWarmRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("restart sweep needs a warmed server")
	}
	const objects, warmOps, windowOps = 4000, 60_000, 8000
	warm := concurrent.NewZipfWorkload(objects, warmOps, 1.0, restartValueBytes, 42)
	steadyW := concurrent.NewZipfWorkload(objects, windowOps, 1.0, restartValueBytes, 43)
	postW := concurrent.NewZipfWorkload(objects, windowOps, 1.0, restartValueBytes, 44)
	conf := cache.Config{MaxBytes: uint64(objects/10) * (16 + restartValueBytes)}
	dir := t.TempDir()
	for _, engine := range cache.Engines() {
		conf.Engine = engine
		row := restartOne(t, conf, filepath.Join(dir, "restart-"+engine+".snap"), warm, steadyW, postW)
		if row.steady < 0.3 {
			t.Errorf("%s: steady-state hit ratio %.3f too low to measure recovery", engine, row.steady)
			continue
		}
		// The fraction of the steady-state hit ratio available in the very
		// first window after a warm restart (1.0 = no warm-up penalty).
		if rec := row.warm / row.steady; rec < 0.95 {
			t.Errorf("%s: warm restart recovered %.1f%% of steady-state hit ratio (steady %.3f, warm %.3f), want >= 95%%",
				engine, rec*100, row.steady, row.warm)
		}
		// The warm window must also beat the cold restart it replaces, or
		// the snapshot machinery is dead weight.
		if row.warm <= row.cold {
			t.Errorf("%s: warm window %.3f no better than cold restart %.3f", engine, row.warm, row.cold)
		}
	}
}

// restartServe starts an in-process server on loopback around c and
// returns its address plus a stop function (server only — the cache is
// the caller's to close or snapshot).
func restartServe(t *testing.T, c *cache.Cache) (string, func()) {
	t.Helper()
	srv := server.New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	return l.Addr().String(), func() { srv.Close() }
}

// restartWindow serves c, replays one get-or-set window against it and
// returns its hit ratio.
func restartWindow(t *testing.T, c *cache.Cache, w *concurrent.Workload) float64 {
	t.Helper()
	addr, stop := restartServe(t, c)
	defer stop()
	cl, err := client.DialOptions(addr, client.Options{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var hits int
	for _, k := range w.Keys {
		key := fmt.Sprintf("%016x", k)
		_, ok, err := cl.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hits++
		} else if _, err := cl.Set(key, w.Value); err != nil {
			t.Fatal(err)
		}
	}
	return float64(hits) / float64(len(w.Keys))
}

func restartOne(t *testing.T, conf cache.Config, path string, warm, steadyW, postW *concurrent.Workload) restartRow {
	t.Helper()
	var row restartRow

	// Phase 1: warm to steady state, measure the final window.
	c, err := cache.New(conf)
	if err != nil {
		t.Fatal(err)
	}
	restartWindow(t, c, warm)
	row.steady = restartWindow(t, c, steadyW)

	// Phase 2: shut down into a snapshot.
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: warm restart from the snapshot, measure the first window.
	restored, err := cache.LoadFile(path, conf)
	if err != nil {
		t.Fatal(err)
	}
	row.warm = restartWindow(t, restored, postW)
	restored.Close()

	// Phase 4: cold-restart baseline — same config, empty cache, same
	// first window.
	cold, err := cache.New(conf)
	if err != nil {
		t.Fatal(err)
	}
	row.cold = restartWindow(t, cold, postW)
	cold.Close()
	return row
}
