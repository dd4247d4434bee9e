// Package sim is this repository's libCacheSim stand-in: it replays
// request traces through eviction policies and produces the metrics the
// paper's evaluation reports — request and byte miss ratios (§5.1.2), the
// frequency-at-eviction histogram (Fig. 4), and the quick-demotion speed
// and precision probes (§6.1, Fig. 10).
package sim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"s3fifo/internal/core"
	"s3fifo/internal/policy"
	"s3fifo/internal/stats"
	"s3fifo/internal/trace"
)

// Result summarizes one policy × trace run.
type Result struct {
	Algorithm      string
	Requests       uint64
	Misses         uint64
	BytesRequested uint64
	BytesMissed    uint64
	Evictions      uint64
}

// MissRatio returns the request miss ratio.
func (r Result) MissRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Requests)
}

// ByteMissRatio returns the byte miss ratio.
func (r Result) ByteMissRatio() float64 {
	if r.BytesRequested == 0 {
		return 0
	}
	return float64(r.BytesMissed) / float64(r.BytesRequested)
}

// String renders the result as a table row.
func (r Result) String() string {
	return fmt.Sprintf("%-22s miss %7.4f  byte-miss %7.4f  (%d/%d)",
		r.Algorithm, r.MissRatio(), r.ByteMissRatio(), r.Misses, r.Requests)
}

// Run replays tr through p. Deletes are applied; only Get requests count
// toward the miss ratio.
func Run(p policy.Policy, tr trace.Trace) Result {
	res := Result{Algorithm: p.Name()}
	var evictions uint64
	p.SetObserver(func(policy.Eviction) { evictions++ })
	for _, r := range tr {
		switch r.Op {
		case trace.OpDelete:
			p.Delete(r.ID)
		default:
			res.Requests++
			res.BytesRequested += uint64(r.Size)
			if !p.Request(r.ID, r.Size) {
				res.Misses++
				res.BytesMissed += uint64(r.Size)
			}
		}
	}
	p.SetObserver(nil)
	res.Evictions = evictions
	return res
}

// NewPolicy constructs any algorithm known to the repository: the
// baselines from internal/policy, the S3-FIFO family from internal/core,
// the offline "belady" bound (which needs the trace itself), and the
// ratio-parameterized variants used by the Fig. 10/11 sweeps —
// "s3fifo-r<frac>" (small-queue fraction) and "tinylfu-r<frac>" (window
// fraction), e.g. "s3fifo-r0.05".
func NewPolicy(name string, capacity uint64, tr trace.Trace) (policy.Policy, error) {
	if name == "belady" {
		return policy.NewBelady(capacity, tr), nil
	}
	if rest, ok := strings.CutPrefix(name, "s3fifo-r"); ok {
		ratio, err := strconv.ParseFloat(rest, 64)
		if err != nil || ratio <= 0 || ratio >= 1 {
			return nil, fmt.Errorf("sim: bad small-queue ratio in %q", name)
		}
		return core.NewS3FIFO(capacity, core.Options{SmallRatio: ratio}), nil
	}
	if rest, ok := strings.CutPrefix(name, "s3fifo-t"); ok {
		threshold, err := strconv.Atoi(rest)
		if err != nil || threshold < 1 || threshold > 3 {
			return nil, fmt.Errorf("sim: bad move threshold in %q", name)
		}
		return core.NewS3FIFO(capacity, core.Options{MoveThreshold: threshold, Name: name}), nil
	}
	if rest, ok := strings.CutPrefix(name, "s3fifo-g"); ok {
		// Ghost capacity as a multiple of the cache size (object count),
		// e.g. "s3fifo-g0.5" tracks half a cache's worth of ghosts.
		mult, err := strconv.ParseFloat(rest, 64)
		if err != nil || mult <= 0 || mult > 16 {
			return nil, fmt.Errorf("sim: bad ghost multiplier in %q", name)
		}
		entries := int(float64(capacity) * mult)
		if entries < 16 {
			entries = 16
		}
		return core.NewS3FIFO(capacity, core.Options{GhostEntries: entries, FixedGhost: true, Name: name}), nil
	}
	if rest, ok := strings.CutPrefix(name, "tinylfu-r"); ok {
		ratio, err := strconv.ParseFloat(rest, 64)
		if err != nil || ratio <= 0 || ratio >= 1 {
			return nil, fmt.Errorf("sim: bad window ratio in %q", name)
		}
		return policy.NewTinyLFU(capacity, ratio), nil
	}
	if f, ok := core.Factories()[name]; ok {
		return f(capacity), nil
	}
	return policy.New(name, capacity)
}

// Algorithms returns the sorted names of every available algorithm,
// including the offline bound.
func Algorithms() []string {
	names := policy.Names()
	for n := range core.Factories() {
		names = append(names, n)
	}
	names = append(names, "belady")
	sort.Strings(names)
	return names
}

// CacheSize computes the evaluation cache size: fraction of the trace's
// footprint, in objects (unit-size runs) or bytes (byteMode).
func CacheSize(tr trace.Trace, fraction float64, byteMode bool) uint64 {
	if byteMode {
		return uint64(float64(tr.FootprintBytes()) * fraction)
	}
	return uint64(float64(tr.UniqueObjects()) * fraction)
}

// Unitize returns a copy of tr with every size forced to 1 (the paper's
// default slab-storage setting ignores object size, §5.1.2).
func Unitize(tr trace.Trace) trace.Trace {
	out := make(trace.Trace, len(tr))
	for i, r := range tr {
		out[i] = trace.Request{ID: r.ID, Size: 1, Op: r.Op}
	}
	return out
}

// FrequencyAtEviction replays tr and histograms how many times each
// evicted object had been requested after insertion (Fig. 4). Bucket i
// holds evictions with i post-insertion accesses; the last bucket is
// overflow.
func FrequencyAtEviction(p policy.Policy, tr trace.Trace, buckets int) *stats.Histogram {
	h := stats.NewHistogram(buckets)
	p.SetObserver(func(ev policy.Eviction) { h.Observe(ev.Freq) })
	for _, r := range tr {
		if r.Op == trace.OpDelete {
			p.Delete(r.ID)
			continue
		}
		p.Request(r.ID, r.Size)
	}
	p.SetObserver(nil)
	return h
}
