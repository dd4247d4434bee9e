// Tiered operation: the DRAM cache over a pluggable second tier (the
// Tier interface, tier.go), modeled on the paper's §5.4 flash study and
// on production DRAM-over-flash hierarchies (Cachelib). DRAM eviction is
// the demotion point — an admission policy decides whether the evicted
// value is worth a tier write, since (on flash) every write consumes
// device lifetime — and a tier hit lazily promotes the entry back into
// DRAM, leaving the tier copy valid so re-demoting it later costs
// nothing.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"s3fifo/internal/ghost"
	"s3fifo/internal/sketch"
)

// secondTier couples the backing Tier with the admission policy, the
// circuit breaker, and the demotion-flow counters.
type secondTier struct {
	t   Tier
	adm admitter
	br  *breaker

	demoted      uint64 // written to the tier at DRAM eviction
	demotedClean uint64 // admitted, but a valid tier copy already existed
	declined     uint64 // rejected by the admission policy (or oversized)
	writeThrough uint64 // written at Set time on a ghost re-request
	dropped      uint64 // demotions dropped while degraded (breaker open)
}

// available reports whether the second tier is currently serving
// (breaker closed).
func (t *secondTier) available() bool { return t.br.available() }

// admitter decides which entries are worth a tier write. Implementations
// must be safe for concurrent use: shards call them under their own locks.
type admitter interface {
	name() string
	// admitEvicted decides at DRAM-eviction time; freq is the entry's
	// hit count while resident (the policy's frequency-at-eviction).
	admitEvicted(id uint64, size uint32, freq int) bool
	// admitInsert decides at Set time whether the new value should be
	// written through to the tier immediately (ghost re-request).
	admitInsert(id uint64, size uint32) bool
}

// admissionFactories maps Config.Admission names to constructors.
var admissionFactories = map[string]func(cfg Config) admitter{
	"all":  func(Config) admitter { return admitAll{} },
	"prob": func(Config) admitter { return &admitProb{} },
	"freq": func(Config) admitter { return admitFreq{} },
	"ghost": func(cfg Config) admitter {
		sizer := ghost.Sizer{FlashBytes: cfg.FlashBytes}
		return &admitGhost{g: ghost.New(sizer.Entries()), sizer: sizer}
	},
}

// Admissions returns the available admission policy names, sorted.
func Admissions() []string {
	names := make([]string, 0, len(admissionFactories))
	for n := range admissionFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newSecondTier builds the second tier described by cfg, or returns
// (nil, nil) when none is configured: Config.SecondTier when set, else
// the remote tier when TierAddr is, else the flash tier when FlashDir is.
func newSecondTier(cfg Config) (*secondTier, error) {
	if cfg.SecondTier == nil && cfg.TierAddr == "" && cfg.FlashDir == "" {
		if cfg.FlashBytes != 0 || cfg.Admission != "" {
			return nil, fmt.Errorf("cache: FlashBytes/Admission need a second tier (FlashDir, TierAddr, or SecondTier)")
		}
		return nil, nil
	}
	if cfg.Admission == "" {
		cfg.Admission = "all"
	}
	mk, ok := admissionFactories[cfg.Admission]
	if !ok {
		return nil, fmt.Errorf("cache: unknown admission policy %q (have %v)",
			cfg.Admission, Admissions())
	}

	tier := cfg.SecondTier
	var err error
	switch {
	case tier != nil:
	case cfg.TierAddr != "":
		if cfg.FlashBytes == 0 {
			// The ghost admission policy sizes its queue from FlashBytes;
			// for a remote tier it is only that sizing hint, so default it
			// rather than demand the peer's capacity be known.
			cfg.FlashBytes = 256 << 20
		}
		tier, err = newRemoteTier(cfg)
	case cfg.FlashBytes == 0:
		return nil, fmt.Errorf("cache: the flash tier needs FlashBytes")
	default:
		tier, err = newFlashStoreTier(cfg)
	}
	if err != nil {
		return nil, err
	}

	br := newBreaker(tier, cfg.FlashBreakerThreshold, cfg.FlashRetryMin, cfg.FlashRetryMax)
	return &secondTier{t: tier, adm: mk(cfg), br: br}, nil
}

// demote runs at DRAM eviction, inside the engine's eviction hook and
// therefore under an engine lock (engine -> tier is the one lock
// order). It reports whether the entry lives on in the second tier
// (written now, or already there from an earlier demotion).
func (t *secondTier) demote(ev EngineEviction) bool {
	key := ev.Key
	if len(key) == 0 {
		return false
	}
	// Degraded mode: the entry leaves the cache entirely rather than
	// touching a backend the breaker has declared sick.
	if !t.br.available() {
		atomic.AddUint64(&t.dropped, 1)
		return false
	}
	// Admission IDs are hashed from the key so admitEvicted and
	// admitInsert agree on identity regardless of the serving engine.
	if !t.adm.admitEvicted(hashString(key), ev.Size, ev.Freq) {
		atomic.AddUint64(&t.declined, 1)
		return false
	}
	if t.t.Contains(key) {
		// The entry was promoted from the tier and not overwritten since
		// (Set invalidates), so the tier copy is still the live value:
		// lazy promotion saved this write.
		atomic.AddUint64(&t.demotedClean, 1)
		return true
	}
	err := t.t.Put(key, ev.Value, ev.ExpiresAt)
	if errors.Is(err, ErrEntryTooLarge) {
		// A per-entry decline (backend limits), not backend sickness.
		atomic.AddUint64(&t.declined, 1)
		return false
	}
	t.br.note(err)
	if err != nil {
		return false
	}
	atomic.AddUint64(&t.demoted, 1)
	return true
}

// onSet runs after an engine Set: the new value supersedes any tier
// copy (tombstoned, not just dropped from the index, so a stale record
// can never resurrect on crash recovery), and ghost admission may write
// it through immediately. The facade's Set orders this after engine.Set
// returns, which both engines guarantee is after any in-flight demotion
// of the superseded value has settled.
func (t *secondTier) onSet(key string, id uint64, value []byte, stored bool) {
	if t.br.markDirtyIfDegraded(key) {
		return // superseded copy is tombstoned by the breaker's restore
	}
	t.supersede(key)
	if !stored {
		return
	}
	if t.adm.admitInsert(id, entrySize(key, value)) {
		err := t.t.Put(key, value, 0)
		if errors.Is(err, ErrEntryTooLarge) {
			return
		}
		t.br.note(err)
		if err == nil {
			atomic.AddUint64(&t.writeThrough, 1)
		}
	}
}

// supersede tombstones any tier copy of key, feeding the backend outcome
// to the breaker. No-op deletes (key not in the tier) touch no backend
// I/O and so carry no health signal.
func (t *secondTier) supersede(key string) {
	if wrote, err := t.t.Delete(key); wrote {
		t.br.note(err)
	}
}

// invalidate is the facade's Set(TTL)/Delete supersession entry: while
// degraded the key is queued for the breaker's restore sweep, otherwise
// the tier copy is tombstoned now.
func (t *secondTier) invalidate(key string) {
	if t.br.markDirtyIfDegraded(key) {
		return
	}
	t.supersede(key)
}

// --- admission policies ---

// admitAll admits every eviction: the no-filter baseline whose write
// bytes the other policies are measured against.
type admitAll struct{}

func (admitAll) name() string                          { return "all" }
func (admitAll) admitEvicted(uint64, uint32, int) bool { return true }
func (admitAll) admitInsert(uint64, uint32) bool       { return false }

// probAdmitP matches the simulator's probabilistic baseline (§5.4).
const probAdmitP = 0.2

// admitProb admits a fixed fraction of evictions, decided by a hash of a
// global draw counter so repeated evictions of one key get fresh coins.
type admitProb struct {
	n uint64
}

func (a *admitProb) name() string { return "prob" }

func (a *admitProb) admitEvicted(id uint64, _ uint32, _ int) bool {
	n := atomic.AddUint64(&a.n, 1)
	h := sketch.Hash(id^n, 0xF1A5)
	return float64(h>>11)/float64(1<<53) < probAdmitP
}

func (a *admitProb) admitInsert(uint64, uint32) bool { return false }

// admitFreq admits entries that were hit at least once while resident in
// DRAM — one-hit wonders (the majority of objects in every trace the
// paper studies) never reach the second tier.
type admitFreq struct{}

func (admitFreq) name() string { return "freq" }
func (admitFreq) admitEvicted(_ uint64, _ uint32, freq int) bool {
	return freq >= 1
}
func (admitFreq) admitInsert(uint64, uint32) bool { return false }

// admitGhost is the paper's small-FIFO filter (§5.4) against a real
// ghost queue: evictions hit while resident are admitted; the rest are
// remembered in a ghost FIFO queue sized to one flash generation
// (ghost.Sizer), and a re-Set while remembered proves reuse and
// writes through. Everything the ghost has forgotten is a one-hit wonder
// and never touches the second tier.
type admitGhost struct {
	mu    sync.Mutex
	g     *ghost.Queue
	sizer ghost.Sizer
}

func (a *admitGhost) name() string { return "ghost" }

func (a *admitGhost) admitEvicted(id uint64, size uint32, freq int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if entries, resized := a.sizer.Observe(size); resized {
		a.g.Resize(entries)
	}
	if freq >= 1 {
		a.g.Remove(id) // admitted: later evictions start from fresh state
		return true
	}
	a.g.Insert(id)
	return false
}

func (a *admitGhost) admitInsert(id uint64, _ uint32) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.g.Contains(id) {
		return false
	}
	a.g.Remove(id)
	return true
}
