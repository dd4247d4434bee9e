// Package policy defines the eviction-policy interface shared by the
// simulator and implements every baseline algorithm the paper compares
// S3-FIFO against (§5.2): FIFO, LRU, FIFO-Reinsertion/CLOCK, Segmented
// FIFO, SLRU, 2Q, ARC, LIRS, TinyLFU (1% and 10% windows), LRU-K, LeCaR,
// LHD, B-LRU, FIFO-Merge (Segcache), Sieve, Random, and the offline Belady
// bound. S3-FIFO itself lives in internal/core and implements the same
// interface.
//
// All policies are size-aware: capacity and usage are tracked in bytes
// (unit-size workloads simply use size 1, making capacity an object count,
// which matches the paper's default slab-storage setting).
package policy

import (
	"fmt"
	"sort"
)

// Eviction describes one evicted object, delivered to the eviction
// observer for instrumentation (frequency-at-eviction, eviction age,
// demotion precision).
type Eviction struct {
	Key  uint64
	Size uint32
	// Freq is the number of hits the object received after insertion.
	Freq int
	// InsertedAt and EvictedAt are logical times in requests processed by
	// the policy.
	InsertedAt, EvictedAt uint64
	// Queue names the queue the object was evicted from, for policies with
	// more than one (core.S3FIFO reports QueueSmall or QueueMain, mapping
	// to Algorithm 1's EVICTS/EVICTM branches). Single-queue baselines
	// leave it empty.
	Queue string
}

// Queue values reported in Eviction.Queue by multi-queue policies.
const (
	QueueSmall = "small"
	QueueMain  = "main"
)

// Observer receives eviction events.
type Observer func(Eviction)

// Policy is a single-threaded cache eviction policy.
//
// Request processes a Get: it returns true on a hit; on a miss the object
// is admitted (on-demand fill) subject to the policy's admission rules, and
// other objects are evicted as needed. Objects larger than the cache are
// bypassed (a miss, nothing cached).
type Policy interface {
	// Name returns the algorithm's canonical name.
	Name() string
	// Request processes a Get for key with the given size.
	Request(key uint64, size uint32) bool
	// Contains reports whether key is currently cached, without side
	// effects on the policy's metadata.
	Contains(key uint64) bool
	// Delete removes key if cached.
	Delete(key uint64)
	// Used returns the bytes currently cached.
	Used() uint64
	// Capacity returns the configured capacity in bytes.
	Capacity() uint64
	// SetObserver installs the eviction observer (nil to clear).
	SetObserver(Observer)
}

// Factory constructs a policy with the given capacity in bytes.
type Factory func(capacity uint64) Policy

// builtin maps algorithm names to factories for every online baseline in
// this package. Belady is offline and constructed separately via NewBelady.
var builtin = map[string]Factory{
	"fifo":        func(c uint64) Policy { return NewFIFO(c) },
	"lru":         func(c uint64) Policy { return NewLRU(c) },
	"clock":       func(c uint64) Policy { return NewClock(c) },
	"sfifo":       func(c uint64) Policy { return NewSegmentedFIFO(c, 2) },
	"slru":        func(c uint64) Policy { return NewSLRU(c, 4) },
	"2q":          func(c uint64) Policy { return New2Q(c) },
	"arc":         func(c uint64) Policy { return NewARC(c) },
	"lirs":        func(c uint64) Policy { return NewLIRS(c) },
	"tinylfu":     func(c uint64) Policy { return NewTinyLFU(c, 0.01) },
	"tinylfu-0.1": func(c uint64) Policy { return NewTinyLFU(c, 0.10) },
	"lru-2":       func(c uint64) Policy { return NewLRUK(c, 2) },
	"lecar":       func(c uint64) Policy { return NewLeCaR(c) },
	"lhd":         func(c uint64) Policy { return NewLHD(c) },
	"b-lru":       func(c uint64) Policy { return NewBLRU(c) },
	"fifo-merge":  func(c uint64) Policy { return NewFIFOMerge(c) },
	"sieve":       func(c uint64) Policy { return NewSieve(c) },
	"random":      func(c uint64) Policy { return NewRandom(c) },
	"cacheus":     func(c uint64) Policy { return NewCACHEUS(c) },
	"clock-pro":   func(c uint64) Policy { return NewClockPro(c) },
	"eelru":       func(c uint64) Policy { return NewEELRU(c) },
	"mq":          func(c uint64) Policy { return NewMQ(c) },
}

// New constructs the named baseline policy.
func New(name string, capacity uint64) (Policy, error) {
	f, ok := builtin[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown algorithm %q", name)
	}
	return f(capacity), nil
}

// Names returns the sorted names of all baseline policies.
func Names() []string {
	names := make([]string, 0, len(builtin))
	for n := range builtin {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// base carries the bookkeeping shared by every policy implementation.
type base struct {
	name     string
	capacity uint64
	used     uint64
	clock    uint64 // requests processed
	observer Observer
}

func (b *base) Name() string           { return b.name }
func (b *base) Used() uint64           { return b.used }
func (b *base) Capacity() uint64       { return b.capacity }
func (b *base) SetObserver(o Observer) { b.observer = o }

// notify reports an eviction to the observer if one is installed.
func (b *base) notify(key uint64, size uint32, freq int, insertedAt uint64) {
	if b.observer != nil {
		b.observer(Eviction{
			Key: key, Size: size, Freq: freq,
			InsertedAt: insertedAt, EvictedAt: b.clock,
		})
	}
}
