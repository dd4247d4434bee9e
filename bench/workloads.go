package main

import "fmt"

// Fixed shape of the load: two connections with a window of sixteen, and
// two goroutines for the embedded workload, as on the 2-CPU host the
// benchmark was frozen on. They are constants, not nproc, so the same seed
// gives the same stream on any host; the fingerprint records the host.
const (
	conns           = 2
	window          = 16
	servedClients   = conns * window
	embeddedClients = 2
)

// workload is one entry of the catalogue. BENCHMARK.json repeats name and
// why; everything else is frozen here.
type workload struct {
	name string
	why  string

	clients      int
	opsPerClient int
	mix          *zipfMix // served workloads
	churn        *churn   // embedded-churn
	minValue     int
	maxValue     int

	embedded   bool
	engine     string // -engine for the child; "" leaves the binary's default
	maxBytes   uint64
	flashBytes uint64 // > 0 adds -flash-dir and -flash-bytes
	populate   int    // per client: the hottest keys stored once before warming
	warmOps    int    // per client, replayed untimed after populate

	// ladderRate is how many requests the traced run's rungs replay per
	// second of --seconds.
	ladderRate int

	// Open-loop rates in ops/s: 50% and 80% of the lowest closed-loop kops
	// among the seed commit's timed runs on the reference host, rounded to
	// two figures and frozen (README "How mid and high were frozen").
	mid, high float64
}

var workloads = []*workload{
	{
		name:    "served-hot",
		why:     "100k keys Zipf 1.0, 64 B, 95/5 GET/SET, all resident: cost is client+proto+server+syscalls, engine only its lock-free hit path",
		clients: servedClients, opsPerClient: 1 << 15,
		mix:      &zipfMix{keys: 100_000 / servedClients, alpha: 1.0, setShare: 0.05, absentShare: 0.02},
		minValue: 64, maxValue: 64,
		engine: "concurrent", maxBytes: 16 << 20,
		populate: 100_000 / servedClients, warmOps: 1 << 11,
		mid: 110_000, high: 180_000, ladderRate: 40_000,
	},
	{
		name:    "embedded-churn",
		why:     "in-process cache, look-aside over one-hit wonders, Zipf 0.7, burst scans and a polluted loop at 10x the cache: engine queue work, allocation and GC, no network",
		clients: embeddedClients, opsPerClient: 1 << 22,
		churn:    &churn{hot: 300_000, loop: 25_000, scan: 375_000},
		minValue: 32, maxValue: 256,
		embedded: true, engine: "concurrent", maxBytes: 80 << 20,
		warmOps: 1 << 20,
		mid:     540_000, high: 860_000, ladderRate: 40_000,
	},
	{
		name:    "served-tiered",
		why:     "100k keys Zipf 0.9, 1-4 KiB, 90% GET set-on-miss, 20 MB DRAM over a 128 MB flash tier: every eviction is a tier write, reclamation cycles",
		clients: servedClients, opsPerClient: 1 << 14,
		mix:      &zipfMix{keys: 100_000 / servedClients, alpha: 0.9, setShare: 0.10, fill: true},
		minValue: 1024, maxValue: 4096,
		engine: "concurrent", maxBytes: 20 << 20, flashBytes: 128 << 20,
		populate: 100_000 / servedClients, warmOps: 1 << 10,
		mid: 33_000, high: 53_000, ladderRate: 10_000,
	},
	{
		name:    "served-mixed-rw",
		why:     "400k keys Zipf 0.8, 64-512 B, 50/35/15 GET/SET/DELETE with TTLs, cache a quarter of the data, default engine: a read gain paid for by writes shows",
		clients: servedClients, opsPerClient: 1 << 15,
		mix:      &zipfMix{keys: 400_000 / servedClients, alpha: 0.8, setShare: 0.35, ttlShare: 0.5, delShare: 0.15},
		minValue: 64, maxValue: 512,
		maxBytes: 30 << 20,
		populate: 100_000 / servedClients, warmOps: 1 << 11,
		mid: 77_000, high: 120_000, ladderRate: 40_000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// build generates the workload's stream from the seed.
func (w *workload) build(seed uint64) *stream {
	s := &stream{clients: make([][]op, w.clients), uniques: make([]uint32, w.clients)}
	for c := range s.clients {
		rng := clientRNG(seed, w.name, c)
		if w.churn != nil {
			s.clients[c], s.uniques[c] = w.churn.generate(rng, w.opsPerClient)
			s.bounded = w.churn.bounded()
		} else {
			s.clients[c] = w.mix.generate(rng, w.opsPerClient)
			s.bounded = w.mix.keys
			if w.mix.absentShare > 0 {
				s.bounded = 2 * w.mix.keys
			}
		}
	}
	s.render()
	return s
}

// valueLen is fixed per key, spread evenly over [minValue, maxValue].
func (w *workload) valueLen(hash uint64) int {
	return w.minValue + int((hash>>20)%uint64(w.maxValue-w.minValue+1))
}
