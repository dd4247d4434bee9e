package harness

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/concurrent"
	"s3fifo/internal/server"
)

// RestartSweepConfig parameterizes the warm-restart measurement: for
// each engine, a server is warmed to steady state over real TCP, shut
// down into a metadata snapshot (cache.SaveFile), restarted from it
// (cache.LoadFile), and the first post-restart request window's hit
// ratio is compared against the pre-shutdown steady state and against a
// cold restart of the same server. The paper's operational pitch —
// cache restarts without the re-warming outage — is this number.
type RestartSweepConfig struct {
	// Objects is the number of distinct keys (default 20_000).
	Objects int
	// WarmOps is how many get-or-set operations warm the server to
	// steady state before measuring (default 200_000).
	WarmOps int
	// WindowOps is the size of each measured request window (default
	// 20_000): the steady-state window before shutdown and the first
	// window after each restart.
	WindowOps int
	// Dir holds the snapshot files (default: a fresh temp directory,
	// removed afterwards).
	Dir string
}

func (c RestartSweepConfig) withDefaults() RestartSweepConfig {
	if c.Objects <= 0 {
		c.Objects = 20_000
	}
	if c.WarmOps <= 0 {
		c.WarmOps = 200_000
	}
	if c.WindowOps <= 0 {
		c.WindowOps = 20_000
	}
	return c
}

// restartValueBytes is the payload size of every request.
const restartValueBytes = 64

// RestartRow is one engine's warm-restart measurement.
type RestartRow struct {
	Engine string
	// SteadyHitRatio is the last pre-shutdown window's hit ratio.
	SteadyHitRatio float64
	// WarmHitRatio is the first window after restoring the snapshot.
	WarmHitRatio float64
	// ColdHitRatio is the first window after a cold restart (fresh
	// cache, same config) — the re-warming outage being avoided.
	ColdHitRatio float64
}

// Recovery is WarmHitRatio / SteadyHitRatio: the fraction of the
// steady-state hit ratio available in the very first window after a
// warm restart (1.0 = no warm-up penalty at all).
func (r RestartRow) Recovery() float64 {
	if r.SteadyHitRatio == 0 {
		return 0
	}
	return r.WarmHitRatio / r.SteadyHitRatio
}

// RestartSweep measures warm-restart hit-ratio recovery for each engine.
// All windows replay Zipf α=1.0 traffic over the same key space; the
// measurement windows use seeds distinct from the warming trace, so the
// post-restart window models traffic continuing, not a literal replay of
// requests the cache just served.
func RestartSweep(cfg RestartSweepConfig) ([]RestartRow, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "s3fifo-restart")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	warm := concurrent.NewZipfWorkload(cfg.Objects, cfg.WarmOps, 1.0, restartValueBytes, 42)
	steadyW := concurrent.NewZipfWorkload(cfg.Objects, cfg.WindowOps, 1.0, restartValueBytes, 43)
	postW := concurrent.NewZipfWorkload(cfg.Objects, cfg.WindowOps, 1.0, restartValueBytes, 44)
	var out []RestartRow
	for _, engine := range cache.Engines() {
		row, err := restartOne(engine, cfg, dir, warm, steadyW, postW)
		if err != nil {
			return nil, fmt.Errorf("harness: restart, engine %s: %w", engine, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// restartServe starts an in-process server on loopback around c and
// returns its address plus a stop function (server only — the cache is
// the caller's to close or snapshot).
func restartServe(c *cache.Cache) (string, func(), error) {
	srv := server.New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(l)
	return l.Addr().String(), func() { srv.Close() }, nil
}

// restartWindow replays one get-or-set window against addr and returns
// its hit ratio.
func restartWindow(addr string, w *concurrent.Workload) (float64, error) {
	cl, err := client.DialOptions(addr, client.Options{Binary: true})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	var hits int
	for _, k := range w.Keys {
		key := fmt.Sprintf("%016x", k)
		_, ok, err := cl.Get(key)
		if err != nil {
			return 0, err
		}
		if ok {
			hits++
		} else if _, err := cl.Set(key, w.Value); err != nil {
			return 0, err
		}
	}
	return float64(hits) / float64(len(w.Keys)), nil
}

func restartOne(engine string, cfg RestartSweepConfig, dir string, warm, steadyW, postW *concurrent.Workload) (RestartRow, error) {
	entryBytes := 16 + restartValueBytes
	conf := cache.Config{
		MaxBytes: uint64(cfg.Objects/10) * uint64(entryBytes),
		Engine:   engine,
	}
	row := RestartRow{Engine: engine}

	// Phase 1: warm to steady state, measure the final window.
	c, err := cache.New(conf)
	if err != nil {
		return row, err
	}
	addr, stop, err := restartServe(c)
	if err != nil {
		c.Close()
		return row, err
	}
	if _, err := restartWindow(addr, warm); err != nil {
		stop()
		c.Close()
		return row, err
	}
	row.SteadyHitRatio, err = restartWindow(addr, steadyW)
	stop()
	if err != nil {
		c.Close()
		return row, err
	}

	// Phase 2: shut down into a snapshot.
	path := filepath.Join(dir, "restart-"+engine+".snap")
	if err := c.SaveFile(path); err != nil {
		c.Close()
		return row, err
	}
	if err := c.Close(); err != nil {
		return row, err
	}

	// Phase 3: warm restart from the snapshot, measure the first window.
	restored, err := cache.LoadFile(path, conf)
	if err != nil {
		return row, err
	}
	addr, stop, err = restartServe(restored)
	if err != nil {
		restored.Close()
		return row, err
	}
	row.WarmHitRatio, err = restartWindow(addr, postW)
	stop()
	restored.Close()
	if err != nil {
		return row, err
	}

	// Phase 4: cold-restart baseline — same config, empty cache, same
	// first window.
	cold, err := cache.New(conf)
	if err != nil {
		return row, err
	}
	addr, stop, err = restartServe(cold)
	if err != nil {
		cold.Close()
		return row, err
	}
	row.ColdHitRatio, err = restartWindow(addr, postW)
	stop()
	cold.Close()
	if err != nil {
		return row, err
	}
	return row, nil
}
