// Package core implements the paper's contribution: S3-FIFO (§4), its
// adaptive variant S3-FIFO-D (§6.2.2), and the queue-type ablations of
// §6.3. All variants satisfy the policy.Policy interface so the simulator
// treats them like any baseline.
//
// S3-FIFO uses three static FIFO queues:
//
//   - a small probationary FIFO queue S (10% of the cache by default) that
//     filters one-hit wonders and guarantees quick demotion;
//   - a main FIFO queue M (the rest) using FIFO-Reinsertion driven by a
//     2-bit frequency counter capped at 3;
//   - a ghost FIFO queue G remembering as many recently-S-evicted object
//     IDs as M holds objects, implemented as a fingerprint hash table
//     (internal/ghost) per §4.2.
//
// Reads only bump the frequency counter (no queue movement, no locking in
// the concurrent variant). On a miss, the object enters M if its ID is in
// G, otherwise S. When S is over its budget, its tail either moves to M
// (frequency > 1, bits cleared) or drops into G. M eviction reinserts
// objects with non-zero frequency, decrementing it.
package core

import (
	"fmt"

	"s3fifo/internal/ghost"
	"s3fifo/internal/list"
	"s3fifo/internal/policy"
)

// QueueKind selects the ordering discipline of a queue for the §6.3
// ablation study.
type QueueKind uint8

// Queue kinds.
const (
	// FIFOQueue never reorders on hit; eviction candidates come from the
	// insertion-order tail (with reinsertion in M).
	FIFOQueue QueueKind = iota
	// LRUQueue promotes to the head on every hit.
	LRUQueue
	// SieveQueue (main queue only) applies SIEVE eviction (§7): a hand
	// scans from the tail, clearing frequency in place without moving
	// objects, and evicts the first zero-frequency object. Objects keep
	// their insertion-order position, avoiding reinsertion churn.
	SieveQueue
)

// Options configure an S3-FIFO instance. The zero value plus defaults
// reproduces the paper's configuration.
type Options struct {
	// SmallRatio is the fraction of capacity given to the small queue S.
	// Default 0.10 (§4.1).
	SmallRatio float64
	// MoveThreshold is the minimum frequency for an S-tail object to be
	// promoted to M instead of dropping into the ghost queue. Default 2,
	// matching Algorithm 1's "freq > 1".
	MoveThreshold int
	// GhostEntries caps the physical size of the ghost table. Default:
	// capacity (treated as an object-count estimate) capped at 2^20.
	// The logical ghost capacity is resized after every S eviction to
	// the resident object count (S and M; see evictS).
	GhostEntries int
	// FixedGhost pins the ghost's logical capacity to GhostEntries
	// instead of resizing it — used by the ghost-size ablation study.
	FixedGhost bool
	// SmallKind and MainKind choose queue disciplines (§6.3 ablation).
	// Both default to FIFOQueue.
	SmallKind, MainKind QueueKind
	// PromoteOnHit moves an object from S to M immediately on its
	// MoveThreshold-th access instead of waiting for S's eviction scan
	// (§6.3's "moving objects from S to M upon cache hits" ablation).
	PromoteOnHit bool
	// Name overrides the reported algorithm name.
	Name string
}

func (o Options) withDefaults(capacity uint64) Options {
	if o.SmallRatio <= 0 || o.SmallRatio >= 1 {
		o.SmallRatio = 0.10
	}
	if o.MoveThreshold <= 0 {
		o.MoveThreshold = 2
	}
	if o.GhostEntries <= 0 {
		ge := capacity
		if ge > 1<<20 {
			ge = 1 << 20
		}
		if ge < 16 {
			ge = 16
		}
		o.GhostEntries = int(ge)
	}
	if o.Name == "" {
		o.Name = "s3fifo"
		switch {
		case o.SmallKind == LRUQueue && o.MainKind == LRUQueue:
			o.Name = "s3fifo-lru-both"
		case o.SmallKind == LRUQueue:
			o.Name = "s3fifo-lru-s"
		case o.MainKind == LRUQueue:
			o.Name = "s3fifo-lru-m"
		case o.MainKind == SieveQueue:
			o.Name = "s3fifo-sieve-m"
		}
		if o.PromoteOnHit {
			o.Name += "-hit-promote"
		}
		if o.SmallRatio != 0.10 {
			o.Name = fmt.Sprintf("%s-%g", o.Name, o.SmallRatio)
		}
	}
	return o
}

type whichQueue uint8

const (
	inSmall whichQueue = iota
	inMain
)

// S3FIFO is the paper's eviction algorithm (Algorithm 1).
type S3FIFO struct {
	name     string
	capacity uint64
	used     uint64
	clock    uint64
	opts     Options

	small, main *list.List
	sUsed       uint64
	sTarget     uint64
	index       map[uint64]*entry
	ghost       *ghost.Queue
	// hand is the SIEVE scan position in main (SieveQueue ablation only).
	hand *list.Node

	observer policy.Observer
	demote   policy.DemotionObserver
	// onSEvict and onMEvict are internal hooks invoked when an object is
	// truly evicted from S (into the ghost) or from M; S3-FIFO-D uses them
	// to feed its shadow ghost queues.
	onSEvict, onMEvict func(key uint64)
	// stats
	insertedToS, insertedToM uint64
	movedToM, movedToGhost   uint64
	reinsertedM              uint64
}

type entry struct {
	node  *list.Node
	where whichQueue
}

const maxFreq = 3 // 2-bit counter (§4.1)

// NewS3FIFO returns an S3-FIFO cache with the given byte capacity.
func NewS3FIFO(capacity uint64, opts Options) *S3FIFO {
	opts = opts.withDefaults(capacity)
	sTarget := uint64(float64(capacity) * opts.SmallRatio)
	if sTarget < 1 {
		sTarget = 1
	}
	return &S3FIFO{
		name:     opts.Name,
		capacity: capacity,
		opts:     opts,
		small:    list.New(),
		main:     list.New(),
		sTarget:  sTarget,
		index:    make(map[uint64]*entry),
		ghost:    ghost.New(opts.GhostEntries),
	}
}

// Name implements policy.Policy.
func (c *S3FIFO) Name() string { return c.name }

// Used implements policy.Policy.
func (c *S3FIFO) Used() uint64 { return c.used }

// Capacity implements policy.Policy.
func (c *S3FIFO) Capacity() uint64 { return c.capacity }

// SetObserver implements policy.Policy.
func (c *S3FIFO) SetObserver(o policy.Observer) { c.observer = o }

// SetDemotionObserver implements policy.DemotionTracker: S is the
// probationary region.
func (c *S3FIFO) SetDemotionObserver(o policy.DemotionObserver) { c.demote = o }

// Request implements policy.Policy (Algorithm 1 READ).
func (c *S3FIFO) Request(key uint64, size uint32) bool {
	c.clock++
	if e, ok := c.index[key]; ok {
		if e.node.Freq < maxFreq {
			e.node.Freq++
		}
		switch e.where {
		case inSmall:
			if c.opts.SmallKind == LRUQueue {
				c.small.MoveToFront(e.node)
			}
			if c.opts.PromoteOnHit && int(e.node.Freq) >= c.opts.MoveThreshold {
				c.promoteToMain(e)
			}
		case inMain:
			if c.opts.MainKind == LRUQueue {
				c.main.MoveToFront(e.node)
			}
		}
		return true
	}
	if uint64(size) > c.capacity {
		return false
	}
	for c.used+uint64(size) > c.capacity {
		c.evict()
	}
	n := &list.Node{Key: key, Size: size, Aux: int64(c.clock)}
	e := &entry{node: n}
	c.index[key] = e
	c.used += uint64(size)
	if c.ghost.Contains(key) {
		c.ghost.Remove(key)
		e.where = inMain
		c.main.PushFront(n)
		c.insertedToM++
	} else {
		e.where = inSmall
		c.small.PushFront(n)
		c.sUsed += uint64(size)
		c.insertedToS++
	}
	return false
}

// promoteToMain moves an S resident to M's head (hit-promotion ablation).
func (c *S3FIFO) promoteToMain(e *entry) {
	c.small.Remove(e.node)
	c.sUsed -= uint64(e.node.Size)
	c.emitDemotion(e.node, true)
	e.node.Freq = 0
	e.where = inMain
	c.main.PushFront(e.node)
	c.movedToM++
}

// evict frees space for one incoming object: S is scanned when it is over
// its target (or M is empty), M otherwise.
func (c *S3FIFO) evict() {
	if c.sUsed >= c.sTarget || c.main.Len() == 0 {
		c.evictS()
	} else {
		c.evictM()
	}
}

// evictS implements Algorithm 1 EVICTS: pop S-tail objects, promoting
// frequent ones to M (clearing their bits) until one is demoted to the
// ghost queue.
func (c *S3FIFO) evictS() {
	for {
		t := c.small.PopBack()
		if t == nil {
			// S empty; fall through to M so the caller's loop progresses.
			c.evictM()
			return
		}
		c.sUsed -= uint64(t.Size)
		e := c.index[t.Key]
		if int(t.Freq) >= c.opts.MoveThreshold {
			c.emitDemotion(t, true)
			t.Freq = 0 // access bits cleared during the move (§4.1)
			e.where = inMain
			c.main.PushFront(t)
			c.movedToM++
			continue
		}
		// Demote: drop data, remember the ID in the ghost queue.
		delete(c.index, t.Key)
		c.used -= uint64(t.Size)
		c.ghost.Insert(t.Key)
		if !c.opts.FixedGhost {
			// §4.1 sizes G like M. c.index holds S and M, so len(c.index)
			// is never below c.main.Len() and this max is always the
			// resident object count, not |M|: G is sized to every resident
			// object, at every point of the run. That is a deviation from
			// the paper, kept until the reference and the served engine
			// share one ghost rule (ROADMAP.md, "One rule, one reference").
			c.ghost.Resize(maxInt(maxInt(c.main.Len(), len(c.index)), 16))
		}
		c.movedToGhost++
		c.emitDemotion(t, false)
		if c.onSEvict != nil {
			c.onSEvict(t.Key)
		}
		c.notifyEvict(t, policy.QueueSmall)
		return
	}
}

// evictM implements Algorithm 1 EVICTM: FIFO-Reinsertion on M driven by
// the frequency bits (or SIEVE's in-place hand scan for the §7 variant).
func (c *S3FIFO) evictM() {
	if c.opts.MainKind == SieveQueue {
		c.evictMSieve()
		return
	}
	for {
		t := c.main.PopBack()
		if t == nil {
			return
		}
		if t.Freq > 0 {
			t.Freq--
			c.main.PushFront(t)
			c.reinsertedM++
			continue
		}
		delete(c.index, t.Key)
		c.used -= uint64(t.Size)
		if c.onMEvict != nil {
			c.onMEvict(t.Key)
		}
		c.notifyEvict(t, policy.QueueMain)
		return
	}
}

// evictMSieve evicts from M with SIEVE's moving hand: frequency is
// decremented in place (no reinsertion) and the first zero-frequency
// object from the hand position is evicted.
func (c *S3FIFO) evictMSieve() {
	n := c.hand
	if n == nil || !n.InList() {
		n = c.main.Back()
	}
	for n != nil && n.Freq > 0 {
		n.Freq--
		n = n.Prev()
		if n == nil {
			n = c.main.Back()
		}
	}
	if n == nil {
		return
	}
	c.hand = n.Prev()
	c.main.Remove(n)
	delete(c.index, n.Key)
	c.used -= uint64(n.Size)
	if c.onMEvict != nil {
		c.onMEvict(n.Key)
	}
	c.notifyEvict(n, policy.QueueMain)
}

func (c *S3FIFO) emitDemotion(n *list.Node, toMain bool) {
	if c.demote != nil {
		c.demote(policy.Demotion{Key: n.Key, Entered: uint64(n.Aux), Left: c.clock, ToMain: toMain})
	}
}

func (c *S3FIFO) notifyEvict(n *list.Node, queue string) {
	if c.observer != nil {
		c.observer(policy.Eviction{
			Key: n.Key, Size: n.Size, Freq: int(n.Freq),
			InsertedAt: uint64(n.Aux), EvictedAt: c.clock,
			Queue: queue,
		})
	}
}

// Contains implements policy.Policy.
func (c *S3FIFO) Contains(key uint64) bool {
	_, ok := c.index[key]
	return ok
}

// Delete implements policy.Policy. Deleted objects release their space
// immediately; this is where the paper notes S3-FIFO's small queue helps
// ring-buffer deployments reclaim deleted space sooner (§4.2).
func (c *S3FIFO) Delete(key uint64) {
	e, ok := c.index[key]
	if !ok {
		return
	}
	if e.where == inSmall {
		c.small.Remove(e.node)
		c.sUsed -= uint64(e.node.Size)
	} else {
		if c.hand == e.node {
			c.hand = e.node.Prev()
		}
		c.main.Remove(e.node)
	}
	c.used -= uint64(e.node.Size)
	delete(c.index, key)
}

// Len returns the number of cached objects.
func (c *S3FIFO) Len() int { return len(c.index) }

// SmallLen and MainLen return per-queue object counts (instrumentation).
func (c *S3FIFO) SmallLen() int { return c.small.Len() }

// MainLen returns the number of objects in the main queue.
func (c *S3FIFO) MainLen() int { return c.main.Len() }

// SmallBytes returns the bytes resident in the small queue S.
func (c *S3FIFO) SmallBytes() uint64 { return c.sUsed }

// MainBytes returns the bytes resident in the main queue M.
func (c *S3FIFO) MainBytes() uint64 { return c.used - c.sUsed }

// GhostLen returns the number of IDs remembered by the ghost queue G.
func (c *S3FIFO) GhostLen() int { return c.ghost.Len() }

// Ghost returns the ghost queue G itself, for reading its fingerprints.
func (c *S3FIFO) Ghost() *ghost.Queue { return c.ghost }

// EachQueued calls fn for every resident object in eviction order, S then
// M, oldest first: the state an optimised engine is held to exactly.
func (c *S3FIFO) EachQueued(fn func(key uint64, freq int, inMain bool)) {
	for i, q := range []*list.List{c.small, c.main} {
		for n := q.Back(); n != nil; n = n.Prev() {
			fn(n.Key, int(n.Freq), i == 1)
		}
	}
}

// Stats reports internal movement counters.
type Stats struct {
	InsertedToSmall, InsertedToMain uint64
	MovedToMain, MovedToGhost       uint64
	ReinsertedMain                  uint64
}

// Stats returns movement counters accumulated since creation.
func (c *S3FIFO) Stats() Stats {
	return Stats{
		InsertedToSmall: c.insertedToS,
		InsertedToMain:  c.insertedToM,
		MovedToMain:     c.movedToM,
		MovedToGhost:    c.movedToGhost,
		ReinsertedMain:  c.reinsertedM,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
