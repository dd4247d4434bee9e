// Command s3cached is a memcached-style cache server on the lock-free
// S3-FIFO engine of the cache library (-engine accepts only "concurrent").
//
//	s3cached -addr :11299 -max-bytes 268435456
//
// With -admin-addr <addr> the server also exposes an HTTP admin
// listener:
//
//	/metrics       Prometheus text exposition (see DESIGN.md §9)
//	/stats         the same counters as the stats command, as JSON
//	/healthz       liveness probe ("degraded: ..." while the flash
//	               breaker is open; still HTTP 200 — DRAM serving works)
//	/debug/pprof/  runtime profiles
//
// Hardening knobs: -max-conns caps simultaneous clients, -conn-timeout
// sets per-connection idle/write deadlines, and -flash-breaker sets how
// many consecutive flash I/O errors degrade the cache to DRAM-only
// serving (0 disables; see DESIGN.md §10).
//
// The second tier (DESIGN.md §13) follows from its flags: -tier-addr
// points the remote tier at a peer s3cached, else -flash-dir names the
// flash tier's directory, else there is none. -snapshot-path
// enables warm restarts: the full eviction-metadata snapshot (queue
// membership, frequencies, ghost state) is saved there on SIGINT/SIGTERM
// and restored at the next boot, so a restarted server resumes at its
// pre-shutdown hit ratio instead of re-learning the working set.
//
// -slow-op <dur> logs every cache operation at or above the threshold
// as a structured line (op, hashed key, duration, serving tier); it also
// switches per-op latency from 1-in-64 sampling to timing every call.
//
// The server speaks two wire protocols on the same port, detected
// per connection from the first byte: the newline-framed text protocol
// (with a memcached-compatible dialect) and a length-prefixed binary
// protocol built for client-side pipelining (DESIGN.md §11). The Go
// client lives in s3fifo/client; pass
// client.Options{Pipeline: n} for the pipelined binary mode. Example
// text session (via nc):
//
//	set greeting 5
//	hello
//	STORED
//	get greeting
//	VALUE greeting 5
//	hello
//	END
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"s3fifo/cache"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":11299", "listen address")
	adminAddr := flag.String("admin-addr", "", "optional HTTP admin address serving /metrics, /stats, /healthz, /debug/pprof")
	maxBytes := flag.Uint64("max-bytes", 256<<20, "cache capacity in bytes")
	engine := flag.String("engine", "concurrent", "serving engine: concurrent, the only one served")
	shards := flag.Int("shards", 16, "cache shards")
	flashDir := flag.String("flash-dir", "", "directory for the flash tier's segment files (enables the tier)")
	flashBytes := flag.Uint64("flash-bytes", 0, "flash tier capacity in bytes (required with -flash-dir)")
	tierAddr := flag.String("tier-addr", "", "peer s3cached address for the remote tier (enables it, in place of -flash-dir)")
	snapshotPath := flag.String("snapshot-path", "",
		"metadata snapshot file: loaded at boot if present (warm restart), saved on SIGINT/SIGTERM")
	admission := flag.String("admission", "",
		"flash admission policy: "+strings.Join(cache.Admissions(), ", ")+" (default all)")
	flashBreaker := flag.Int("flash-breaker", 3,
		"consecutive flash I/O errors before degrading to DRAM-only serving (0 disables the breaker)")
	maxConns := flag.Int("max-conns", 0, "max simultaneous client connections (0 = unlimited)")
	connTimeout := flag.Duration("conn-timeout", 0, "per-connection idle/write deadline (0 disables)")
	nodeID := flag.String("node-id", "",
		"cluster node identity surfaced in stats, /stats, and /healthz (default: the listen address)")
	slowOp := flag.Duration("slow-op", 0, "log cache operations at or above this duration (0 disables; times every op)")
	antiStampede := flag.Bool("anti-stampede", false, "enable miss coalescing and GETX/SETX leases")
	coalesceWait := flag.Duration("coalesce-wait", 0, "max time a coalesced GET miss waits on the in-flight fill (0 = 50ms default)")
	grace := flag.Duration("grace", 0, "stale-while-revalidate window for getx (0 disables stale serving)")
	leaseTTL := flag.Duration("lease-ttl", 0, "fill-lease exclusivity window (0 = 2s default)")
	negativeTTL := flag.Duration("negative-ttl", 0, "default negative-cache tombstone TTL (0 = 5s default)")
	flag.Parse()
	if *engine != "concurrent" {
		log.Fatalf("s3cached: -engine %q: only concurrent is served", *engine)
	}
	// Flag semantics: 0 disables. Config semantics: 0 means default,
	// negative disables. Map the operator-friendly form onto the config.
	breakerThreshold := *flashBreaker
	if breakerThreshold <= 0 {
		breakerThreshold = -1
	}
	if *nodeID == "" {
		*nodeID = *addr
	}

	// The registry exists only when something will scrape it; with no
	// admin listener the cache runs on its metrics-off fast path (a nil
	// registry's instruments are no-ops).
	var reg *telemetry.Registry
	if *adminAddr != "" {
		reg = telemetry.NewRegistry()
	}
	var slowLog func(string)
	if *slowOp > 0 {
		slowLog = func(line string) { log.Print("s3cached: ", line) }
	}

	cfg := cache.Config{
		MaxBytes:              *maxBytes,
		Engine:                *engine,
		Shards:                *shards,
		TierAddr:              *tierAddr,
		FlashDir:              *flashDir,
		FlashBytes:            *flashBytes,
		Admission:             *admission,
		FlashBreakerThreshold: breakerThreshold,
		Metrics:               reg,
		SlowOpThreshold:       *slowOp,
		SlowOpLog:             slowLog,
	}
	// Warm restart: restore the previous process's metadata snapshot when
	// one exists. A missing file is the normal first boot; a corrupt one
	// is logged and ignored — a cold cache serves correctly either way.
	var c *cache.Cache
	var err error
	if *snapshotPath != "" {
		c, err = cache.LoadFile(*snapshotPath, cfg)
		switch {
		case err == nil:
			fmt.Printf("restored snapshot %s (%d entries)\n", *snapshotPath, c.Len())
		case errors.Is(err, fs.ErrNotExist):
			c, err = cache.New(cfg)
		default:
			log.Print("s3cached: snapshot load: ", err, " (starting cold)")
			c, err = cache.New(cfg)
		}
	} else {
		c, err = cache.New(cfg)
	}
	if err != nil {
		log.Fatal("s3cached: ", err)
	}
	srvOpts := []server.Option{
		server.WithMaxConns(*maxConns),
		server.WithConnTimeout(*connTimeout),
		server.WithNodeID(*nodeID),
	}
	if *antiStampede {
		srvOpts = append(srvOpts, server.WithAntiStampede(server.AntiStampede{
			Coalesce:     true,
			CoalesceWait: *coalesceWait,
			LeaseTTL:     *leaseTTL,
			Grace:        *grace,
			NegativeTTL:  *negativeTTL,
		}))
	}
	srv := server.New(c, srvOpts...)
	if *adminAddr != "" {
		srv.RegisterMetrics(reg)
		handler := server.AdminHandler(srv, reg)
		go func() { log.Fatal(http.ListenAndServe(*adminAddr, handler)) }()
		fmt.Printf("admin on http://%s (/metrics /stats /healthz /debug/pprof)\n", *adminAddr)
	}
	// On SIGINT/SIGTERM: stop serving, save the metadata snapshot (if
	// configured), then sync and close the second tier so a restart
	// recovers the full index without replay losses.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		srv.Close()
		if *snapshotPath != "" {
			if err := c.SaveFile(*snapshotPath); err != nil {
				log.Print("s3cached: snapshot save: ", err)
			} else {
				fmt.Printf("saved snapshot %s (%d entries)\n", *snapshotPath, c.Len())
			}
		}
		if err := c.Close(); err != nil {
			log.Print("s3cached: close: ", err)
		}
		os.Exit(0)
	}()
	if *flashDir != "" {
		fmt.Printf("s3cached listening on %s (engine %s, %d MiB DRAM + %d MiB flash at %s, %d shards)\n",
			*addr, c.Engine(), *maxBytes>>20, *flashBytes>>20, *flashDir, *shards)
	} else {
		fmt.Printf("s3cached listening on %s (engine %s, %d MiB, %d shards)\n",
			*addr, c.Engine(), *maxBytes>>20, *shards)
	}
	if *slowOp > 0 {
		fmt.Printf("slow-op log at %v\n", *slowOp)
	}
	err = srv.ListenAndServe(*addr)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal(err)
	}
	// Listener closed by the signal handler: block until it finishes
	// syncing the flash tier and calls os.Exit(0). Exiting here instead
	// would race the flash close and could lose index records.
	select {}
}
