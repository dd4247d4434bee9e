// Package cluster is the client-side router that turns N independent
// s3cached processes into one cache: consistent-hash placement with
// bounded loads (internal/hashring), one pipelined binary connection
// per node, and a per-node circuit breaker so a dead node degrades to
// misses on its slice of the keyspace — never to client errors.
//
// Two cluster-level mechanisms ride on top of the S3-FIFO machinery the
// nodes already run:
//
//   - Ghost-driven warm-up. Nodes export their resident keys
//     hottest-first (the KEYS command, backed by the engines'
//     frequency counters). When a node joins, the router replays the
//     ring-adjacent nodes' hot keys into it BEFORE the ring cutover,
//     so the keyspace slice it takes over arrives warm. When a node
//     leaves (or dies), the fingerprints of what it held go into the
//     router's own ghost queue — a ghost of the nodes' ghosts — so
//     subsequent misses caused by the topology change are counted as
//     such (lost_misses) instead of blending into the miss noise.
//
//   - Replicated hot shards. With Replication=R>1, keys the router's
//     frequency sketch flags as hot are written to R ring owners and
//     reads load-balance across them. Values are last-writer-wins
//     versioned (a 16-byte version-and-deadline header on the wire);
//     reads repair replicas observed stale or missing, plus a 1-in-16
//     full replica probe. This is eventual consistency — see DESIGN.md §12 for what
//     that does and does not guarantee.
package cluster

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/client"
	"s3fifo/internal/ghost"
	"s3fifo/internal/hashring"
	"s3fifo/internal/sketch"
	"s3fifo/internal/telemetry"
)

// Defaults for Options zero values, and the router's fixed sizes.
const (
	defaultPipeline       = 64
	defaultHotThreshold   = 8
	defaultWarmupSamples  = 4096
	defaultStatsKeysLimit = defaultWarmupSamples

	hotTrackEntries = 4096  // width of the hot-key frequency sketch
	ghostEntries    = 65536 // fingerprints the ghost-of-ghosts remembers
	replicaProbe    = 16    // 1-in-N full replica version check on hot reads
)

// Options configures a cluster Client.
type Options struct {
	// Nodes is the initial member list (host:port). May be empty;
	// members can be added later with AddNode.
	Nodes []string

	// Replication is the number of ring owners a HOT key is written to
	// (R). 0 or 1 disables replication. With R>1 every write is
	// version-prefixed on the wire so replicas can be compared.
	Replication int

	// HotThreshold is the frequency-sketch estimate (0..15) at or above
	// which a key counts as hot. Default 8. Only consulted when
	// Replication > 1.
	HotThreshold int

	// WarmupSamples is how many keys to request from each donor node
	// when warming a joining node. Default 4096. 0 uses the default;
	// negative disables warm-up.
	WarmupSamples int

	// RetryMin/RetryMax bound the backoff of the probe that retries a
	// node whose breaker opened (after 3 consecutive errors).
	RetryMin time.Duration
	RetryMax time.Duration

	// Client configures the per-node connections. Binary mode is
	// forced; Pipeline defaults to 64 when unset.
	Client client.Options

	// Metrics, when non-nil, receives the router's counter and gauge
	// families.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Replication < 1 {
		o.Replication = 1
	}
	if o.HotThreshold <= 0 {
		o.HotThreshold = defaultHotThreshold
	}
	if o.WarmupSamples == 0 {
		o.WarmupSamples = defaultWarmupSamples
	}
	o.Client.Binary = true
	if o.Client.Pipeline <= 0 {
		o.Client.Pipeline = defaultPipeline
	}
	// A router must bound per-operation latency: a wedged connection
	// has to fail into the breaker, not hang the caller. Negative
	// disables (the raw client's "no timeout" behavior).
	if o.Client.OpTimeout == 0 {
		o.Client.OpTimeout = 2 * time.Second
	}
	return o
}

// Client routes cache operations across the cluster. It is safe for
// concurrent use.
type Client struct {
	opts Options

	// ring is immutable and swapped atomically; lookups never lock.
	ring atomic.Pointer[hashring.Ring]

	// mu guards the node table; memberMu serializes whole membership
	// operations (their read-modify-write of the ring).
	mu       sync.RWMutex
	memberMu sync.Mutex
	nodes    map[string]*node

	// hot is the frequency sketch behind hot-shard detection. CountMin
	// is not concurrency-safe; sketchMu serializes it.
	sketchMu sync.Mutex
	hot      *sketch.CountMin

	// ghosts remembers fingerprints of keys lost to topology changes.
	ghostMu sync.Mutex
	ghosts  *ghost.Queue

	rr         atomic.Uint64 // hot-read rotation
	repairTick atomic.Uint64 // 1-in-N full replica probe

	hotGets       atomic.Uint64
	readRepairs   atomic.Uint64
	lostMisses    atomic.Uint64
	degradedDrops atomic.Uint64
	warmedKeys    atomic.Uint64
}

// New builds a router over the given member list. Nodes are dialed
// lazily: a member that is down at construction joins with its breaker
// closed and trips on first use, exactly like a mid-run outage.
func New(opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{
		opts:   opts,
		nodes:  make(map[string]*node),
		hot:    sketch.NewCountMin(hotTrackEntries),
		ghosts: ghost.New(ghostEntries),
	}
	seen := make(map[string]bool)
	for _, addr := range opts.Nodes {
		if addr == "" {
			return nil, errors.New("cluster: empty node address")
		}
		if seen[addr] {
			return nil, errors.New("cluster: duplicate node address " + addr)
		}
		seen[addr] = true
		c.nodes[addr] = c.newMember(addr)
	}
	c.ring.Store(hashring.New(opts.Nodes, hashring.Options{}))
	c.registerGlobalMetrics()
	for addr := range c.nodes {
		c.registerNodeMetrics(addr)
	}
	return c, nil
}

func (c *Client) newMember(addr string) *node {
	return newNode(addr, c.opts.Client, c.opts.RetryMin, c.opts.RetryMax)
}

func (c *Client) nodeByAddr(addr string) *node {
	c.mu.RLock()
	n := c.nodes[addr]
	c.mu.RUnlock()
	return n
}

// --- hot-key tracking and the ghost-of-ghosts -----------------------

// observe records an access in the sketch and reports whether the key
// is hot enough to replicate.
func (c *Client) observe(h uint64) bool {
	if c.opts.Replication <= 1 {
		return false
	}
	c.sketchMu.Lock()
	c.hot.Add(h)
	hot := int(c.hot.Estimate(h)) >= c.opts.HotThreshold
	c.sketchMu.Unlock()
	return hot
}

// isHot is observe without recording — used on the write path so sets
// alone don't promote a key to hot.
func (c *Client) isHot(h uint64) bool {
	if c.opts.Replication <= 1 {
		return false
	}
	c.sketchMu.Lock()
	hot := int(c.hot.Estimate(h)) >= c.opts.HotThreshold
	c.sketchMu.Unlock()
	return hot
}

func (c *Client) ghostInsert(h uint64) {
	c.ghostMu.Lock()
	c.ghosts.Insert(h)
	c.ghostMu.Unlock()
}

// ghostTake reports whether h was recorded as lost, consuming the
// record: each lost key is counted once — the caller's re-set after the
// miss restores it, so later misses are ordinary.
func (c *Client) ghostTake(h uint64) bool {
	c.ghostMu.Lock()
	hit := c.ghosts.Contains(h)
	if hit {
		c.ghosts.Remove(h)
	}
	c.ghostMu.Unlock()
	return hit
}

func (c *Client) ghostLen() int {
	c.ghostMu.Lock()
	n := c.ghosts.Len()
	c.ghostMu.Unlock()
	return n
}

// --- versioned values (replication wire format) ---------------------

// With Replication > 1 every stored value carries a 16-byte big-endian
// header: a version (the writer's UnixNano clock), so replicas can be
// ordered, last writer wins; and the write's absolute deadline (UnixNano,
// 0 = no TTL), so a copy made later expires with the write it copies.
// Reads strip the header; repairs copy the raw wire bytes so the version
// travels with the value.

const headerLen = 16

func encodeVersion(ver uint64, deadline int64, value []byte) []byte {
	wire := make([]byte, headerLen+len(value))
	binary.BigEndian.PutUint64(wire, ver)
	binary.BigEndian.PutUint64(wire[8:], uint64(deadline))
	copy(wire[headerLen:], value)
	return wire
}

// stamp versions a write of value made now with the given TTL.
func stamp(value []byte, ttl time.Duration) []byte {
	now := time.Now()
	var deadline int64
	if ttl > 0 {
		deadline = now.Add(ttl).UnixNano()
	}
	return encodeVersion(uint64(now.UnixNano()), deadline, value)
}

// decodeVersion splits a wire value into (version, deadline, payload). A
// short value (written before replication was enabled, or by a
// non-cluster client) decodes as version 0, older than any versioned
// write, with no deadline.
func decodeVersion(wire []byte) (ver uint64, deadline int64, value []byte) {
	if len(wire) < headerLen {
		return 0, 0, wire
	}
	return binary.BigEndian.Uint64(wire), int64(binary.BigEndian.Uint64(wire[8:])), wire[headerLen:]
}

// copyTTL is the TTL a copy of a versioned wire value written now must
// carry: what is left of the original write's TTL, rounded down to whole
// seconds because the wire carries whole seconds and the client rounds a
// TTL up. ok is false when under a second is left, and the copy should
// not be made: it would outlive the write it copies.
func copyTTL(wire []byte) (ttl time.Duration, ok bool) {
	_, deadline, _ := decodeVersion(wire)
	if deadline == 0 {
		return 0, true
	}
	ttl = time.Duration(deadline - time.Now().UnixNano()).Truncate(time.Second)
	return ttl, ttl >= time.Second
}

// --- operations -----------------------------------------------------

// replicaCount returns how many ring owners an operation on a key with
// the given hotness touches.
func (c *Client) replicaCount(hot bool) int {
	if hot && c.opts.Replication > 1 {
		return c.opts.Replication
	}
	return 1
}

// Get looks the key up on its ring owner (owners, when hot and
// replicated). A dead or unreachable node yields a miss for its slice
// of the keyspace, never an error: the only errors Get returns are
// usage errors (empty ring).
func (c *Client) Get(key string) ([]byte, bool, error) {
	ring := c.ring.Load()
	if ring == nil || ring.Len() == 0 {
		return nil, false, errors.New("cluster: no nodes")
	}
	h := hashring.KeyHash(key)
	hot := c.observe(h)
	r := c.replicaCount(hot)
	if r == 1 {
		return c.getSimple(ring, h, key)
	}
	c.hotGets.Add(1)
	return c.getReplicated(ring, h, key, r)
}

// getSimple is the unreplicated read: one owner, miss on unavailability.
func (c *Client) getSimple(ring *hashring.Ring, h uint64, key string) ([]byte, bool, error) {
	n := c.nodeByAddr(ring.LookupHash(h))
	unavailable := n == nil || !n.available()
	if !unavailable {
		wire, ok, err := n.get(key)
		if err == nil {
			if !ok {
				return c.miss(h, false)
			}
			if c.opts.Replication > 1 {
				_, _, v := decodeVersion(wire)
				return v, true, nil
			}
			return wire, true, nil
		}
		unavailable = true
	}
	return c.miss(h, unavailable)
}

// replicaRead is one probed owner's result during a replicated read.
type replicaRead struct {
	n    *node
	wire []byte
	ver  uint64
	hit  bool
}

// getReplicated reads a hot key: rotate across the R owners for load
// balance, stop at the first hit (or probe all owners 1 in N reads),
// then repair any probed replica that was missing or stale.
func (c *Client) getReplicated(ring *hashring.Ring, h uint64, key string, r int) ([]byte, bool, error) {
	owners := ring.OwnersHash(h, r)
	start := int(c.rr.Add(1)) % len(owners)
	probeAll := c.repairTick.Add(1)%replicaProbe == 0
	var (
		reads       []replicaRead
		unavailable bool
	)
	for i := 0; i < len(owners); i++ {
		n := c.nodeByAddr(owners[(start+i)%len(owners)])
		if n == nil || !n.available() {
			unavailable = true
			continue
		}
		wire, ok, err := n.get(key)
		if err != nil {
			unavailable = true
			continue
		}
		if !ok {
			reads = append(reads, replicaRead{n: n})
			continue
		}
		ver, _, _ := decodeVersion(wire)
		reads = append(reads, replicaRead{n: n, wire: wire, ver: ver, hit: true})
		if !probeAll {
			break
		}
	}
	best := -1
	for i, rd := range reads {
		if rd.hit && (best < 0 || rd.ver > reads[best].ver) {
			best = i
		}
	}
	if best < 0 {
		return c.miss(h, unavailable)
	}
	// Read-repair: every probed replica that missed, or that answered
	// with an older version, gets the winning raw bytes (header and all)
	// with what is left of the winner's TTL. Best effort — a failed
	// repair is just a future repair.
	for i, rd := range reads {
		if i == best || (rd.hit && rd.ver >= reads[best].ver) {
			continue
		}
		ttl, ok := copyTTL(reads[best].wire)
		if !ok {
			break
		}
		if _, err := rd.n.set(key, reads[best].wire, ttl); err == nil {
			c.readRepairs.Add(1)
		}
	}
	_, _, v := decodeVersion(reads[best].wire)
	return v, true, nil
}

// miss finalizes a miss. A miss with an unreachable owner is lost by
// definition — the key may well be resident behind the open breaker —
// so it counts directly, and its fingerprint is remembered so the first
// miss after the owner's slice moves on (recovery, removal) is still
// attributed to the outage. An ordinary miss counts as lost only if the
// ghost queue predicted it, and each prediction is consumed: the caller
// re-populates after a miss, so later misses are workload again.
func (c *Client) miss(h uint64, unavailable bool) ([]byte, bool, error) {
	if unavailable {
		c.ghostInsert(h)
		c.lostMisses.Add(1)
		return nil, false, nil
	}
	if c.ghostTake(h) {
		c.lostMisses.Add(1)
	}
	return nil, false, nil
}

// Set stores the key on its ring owner; a hot key (Replication > 1)
// fans out to all R owners. An unavailable owner's write is dropped and
// counted (degraded_drops) rather than surfaced as an error — the
// contract matches Get's degrade-to-miss.
func (c *Client) Set(key string, value []byte) (bool, error) {
	return c.SetWithTTL(key, value, 0)
}

// SetWithTTL is Set with a per-key TTL (0 = no expiry).
func (c *Client) SetWithTTL(key string, value []byte, ttl time.Duration) (bool, error) {
	ring := c.ring.Load()
	if ring == nil || ring.Len() == 0 {
		return false, errors.New("cluster: no nodes")
	}
	h := hashring.KeyHash(key)
	wire := value
	if c.opts.Replication > 1 {
		// ALL writes are versioned once replication is on — cold keys
		// too — so a key crossing the hot threshold later compares
		// correctly against copies written while it was cold.
		wire = stamp(value, ttl)
	}
	r := c.replicaCount(c.isHot(h))
	owners := ring.OwnersHash(h, r)
	stored := false
	for _, addr := range owners {
		n := c.nodeByAddr(addr)
		if n == nil || !n.available() {
			c.degradedDrops.Add(1)
			continue
		}
		ok, err := n.set(key, wire, ttl)
		if err != nil {
			c.degradedDrops.Add(1)
			continue
		}
		stored = stored || ok
	}
	return stored, nil
}

// Delete removes the key from every owner that could hold a copy —
// always max(1, R) owners, because hotness is transient and a key that
// cooled off may still have replicas.
func (c *Client) Delete(key string) (bool, error) {
	ring := c.ring.Load()
	if ring == nil || ring.Len() == 0 {
		return false, errors.New("cluster: no nodes")
	}
	h := hashring.KeyHash(key)
	r := 1
	if c.opts.Replication > 1 {
		r = c.opts.Replication
	}
	deleted := false
	for _, addr := range ring.OwnersHash(h, r) {
		n := c.nodeByAddr(addr)
		if n == nil || !n.available() {
			c.degradedDrops.Add(1)
			continue
		}
		ok, err := n.del(key)
		if err != nil {
			c.degradedDrops.Add(1)
			continue
		}
		deleted = deleted || ok
	}
	return deleted, nil
}

// Close shuts down every node connection and prober.
func (c *Client) Close() error {
	c.mu.Lock()
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.nodes = make(map[string]*node)
	c.mu.Unlock()
	for _, n := range nodes {
		n.close()
	}
	return nil
}

// --- stats and telemetry --------------------------------------------

// NodeStats is one member's routing view.
type NodeStats struct {
	Addr          string
	Available     bool
	RoutedGets    uint64
	RoutedSets    uint64
	RoutedDeletes uint64
	RoutedGetx    uint64
	RoutedSetx    uint64
	Errors        uint64
	BreakerTrips  uint64
	Restores      uint64
}

// Stats is the router's aggregate view.
type Stats struct {
	Nodes         []NodeStats
	HotGets       uint64 // replicated (fan-out) reads
	ReadRepairs   uint64 // replicas repaired from a fresher copy
	LostMisses    uint64 // misses predicted by the ghost-of-ghosts
	DegradedDrops uint64 // writes/deletes dropped on open breakers
	WarmedKeys    uint64 // keys replayed into joining nodes
	GhostEntries  int    // fingerprints currently tracked as lost
}

// Stats snapshots the router counters.
func (c *Client) Stats() Stats {
	st := Stats{
		HotGets:       c.hotGets.Load(),
		ReadRepairs:   c.readRepairs.Load(),
		LostMisses:    c.lostMisses.Load(),
		DegradedDrops: c.degradedDrops.Load(),
		WarmedKeys:    c.warmedKeys.Load(),
		GhostEntries:  c.ghostLen(),
	}
	ring := c.ring.Load()
	if ring == nil {
		return st
	}
	for _, addr := range ring.Nodes() {
		n := c.nodeByAddr(addr)
		if n == nil {
			continue
		}
		st.Nodes = append(st.Nodes, NodeStats{
			Addr:          addr,
			Available:     n.available(),
			RoutedGets:    n.routedGet.Load(),
			RoutedSets:    n.routedSet.Load(),
			RoutedDeletes: n.routedDelete.Load(),
			RoutedGetx:    n.routedGetx.Load(),
			RoutedSetx:    n.routedSetx.Load(),
			Errors:        n.errors.Load(),
			BreakerTrips:  n.trips.Load(),
			Restores:      n.restores.Load(),
		})
	}
	return st
}

func (c *Client) registerGlobalMetrics() {
	m := c.opts.Metrics
	if m == nil {
		return
	}
	m.CounterFunc("cluster_hot_gets_total", "replicated (fan-out) reads", nil, c.hotGets.Load)
	m.CounterFunc("cluster_read_repairs_total", "replicas repaired from a fresher copy", nil, c.readRepairs.Load)
	m.CounterFunc("cluster_lost_misses_total", "misses predicted by the router ghost queue", nil, c.lostMisses.Load)
	m.CounterFunc("cluster_degraded_drops_total", "writes dropped on open node breakers", nil, c.degradedDrops.Load)
	m.CounterFunc("cluster_warmed_keys_total", "keys replayed into joining nodes", nil, c.warmedKeys.Load)
	m.GaugeFunc("cluster_ghost_entries", "fingerprints tracked as lost to topology changes", nil,
		func() float64 { return float64(c.ghostLen()) })
	m.GaugeFunc("cluster_ring_nodes", "members in the current ring", nil, func() float64 {
		if r := c.ring.Load(); r != nil {
			return float64(r.Len())
		}
		return 0
	})
}

// registerNodeMetrics publishes one member's families, keyed by a node
// label. The closures resolve the node through the table at scrape time,
// so they survive remove/re-add cycles (registration is idempotent for
// the same name+labels; a removed node's series reads zero).
func (c *Client) registerNodeMetrics(addr string) {
	m := c.opts.Metrics
	if m == nil {
		return
	}
	counter := func(name, help, op string, load func(*node) uint64) {
		labels := telemetry.Labels{{Key: "node", Value: addr}}
		if op != "" {
			labels = append(labels, telemetry.Label{Key: "op", Value: op})
		}
		m.CounterFunc(name, help, labels, func() uint64 {
			if n := c.nodeByAddr(addr); n != nil {
				return load(n)
			}
			return 0
		})
	}
	counter("cluster_node_routed_total", "operations routed to the node", "get",
		func(n *node) uint64 { return n.routedGet.Load() })
	counter("cluster_node_routed_total", "operations routed to the node", "set",
		func(n *node) uint64 { return n.routedSet.Load() })
	counter("cluster_node_routed_total", "operations routed to the node", "delete",
		func(n *node) uint64 { return n.routedDelete.Load() })
	counter("cluster_node_routed_total", "operations routed to the node", "getx",
		func(n *node) uint64 { return n.routedGetx.Load() })
	counter("cluster_node_routed_total", "operations routed to the node", "setx",
		func(n *node) uint64 { return n.routedSetx.Load() })
	counter("cluster_node_errors_total", "operations failed against the node", "",
		func(n *node) uint64 { return n.errors.Load() })
	counter("cluster_node_breaker_trips_total", "times the node breaker opened", "",
		func(n *node) uint64 { return n.trips.Load() })
	counter("cluster_node_breaker_restores_total", "times the node breaker closed after probing", "",
		func(n *node) uint64 { return n.restores.Load() })
	m.GaugeFunc("cluster_node_available", "1 when the node breaker is closed",
		telemetry.Labels{{Key: "node", Value: addr}}, func() float64 {
			if n := c.nodeByAddr(addr); n != nil && n.available() {
				return 1
			}
			return 0
		})
}
