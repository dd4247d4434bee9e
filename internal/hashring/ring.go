// Package hashring implements the consistent-hash ring the cluster
// router places keys with: each node contributes many virtual points on
// a 64-bit circle, a key belongs to the first point clockwise of its
// hash, and a bounded-load pass caps how much of the circle any single
// node may own. Plain consistent hashing with V virtual nodes leaves a
// relative keyspace imbalance of O(sqrt(N/V)·ln N) — enough that one
// unlucky node runs hot — so after placing the points the ring walks
// them once and reassigns arc ownership wherever a node's accumulated
// arc would exceed ceil((1+ε)·space/N), in the spirit of
// "Consistent Hashing with Bounded Loads" (Mirrokni et al.), but
// applied deterministically to the hash space rather than to observed
// request load: every router that knows the same member list computes
// the identical placement, which is what makes client-side routing
// coherent without coordination.
//
// Rings are immutable: Add and Remove return a new ring, so a router
// can swap an atomic pointer and in-flight lookups keep a consistent
// view. Construction is O(N·V·log(N·V)) and only runs on membership
// change; lookups are a binary search.
package hashring

import (
	"fmt"
	"sort"

	"s3fifo/internal/sketch"
)

const (
	// virtualNodes is the number of points each node contributes. 128
	// points keeps the pre-balance imbalance small enough that the
	// bounded-load pass moves only a few arcs.
	virtualNodes = 128
	// DefaultEpsilon is the bounded-load slack: no node owns more than
	// (1+ε)/N of the hash space.
	DefaultEpsilon = 0.25
)

// Options tunes ring construction. The zero value gives ε = 0.25.
type Options struct {
	// Epsilon is the bounded-load slack: a node's owned fraction of the
	// hash space is capped at (1+Epsilon)/N. Zero means the default;
	// negative disables the bound (plain consistent hashing).
	Epsilon float64
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = DefaultEpsilon
	}
	return o
}

// point is one virtual node: a position on the circle and the index of
// the node that owns the arc ending at it.
type point struct {
	hash uint64
	node int32
}

// Ring is an immutable consistent-hash ring over a set of node IDs.
type Ring struct {
	opts   Options
	nodes  []string // sorted, deduplicated
	points []point  // sorted by hash
}

// New builds a ring over nodes (deduplicated; order does not matter —
// two routers given the same set in any order build identical rings).
// An empty node list yields a ring whose lookups return "".
func New(nodes []string, opts Options) *Ring {
	opts = opts.withDefaults()
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		if _, ok := seen[n]; ok || n == "" {
			continue
		}
		seen[n] = struct{}{}
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{opts: opts, nodes: uniq}
	r.build()
	return r
}

// hashString is FNV-1a folded through the repository's shared mixer, so
// ring placement uses the same key fingerprints as everything else.
func hashString(s string) uint64 {
	return sketch.Hash(sketch.FNV1a(s), 0x52494E47) // seed "RING"
}

// build places every node's virtual points and runs the bounded-load
// reassignment pass.
func (r *Ring) build() {
	n := len(r.nodes)
	if n == 0 {
		r.points = nil
		return
	}
	r.points = make([]point, 0, n*virtualNodes)
	for i, node := range r.nodes {
		for v := 0; v < virtualNodes; v++ {
			h := sketch.Hash(hashString(node), uint64(v)+1)
			r.points = append(r.points, point{hash: h, node: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (astronomically rare) break by node index so the sort is
		// total and deterministic.
		return r.points[a].node < r.points[b].node
	})
	if r.opts.Epsilon >= 0 && n > 1 {
		r.rebalance()
	}
}

// arcBefore returns the length of the arc ending at points[i] (the keys
// points[i] owns).
func (r *Ring) arcBefore(i int) uint64 {
	if i == 0 {
		// The wrap arc: from the last point around 0 to the first.
		return r.points[0].hash - r.points[len(r.points)-1].hash // wraps mod 2^64
	}
	return r.points[i].hash - r.points[i-1].hash
}

// rebalance caps every node's owned arc at (1+ε)/N of the hash space.
// Walking the points in circle order, an arc that would push its owner
// past the cap is handed to the next node (in ring-member order) still
// under cap — deterministic, so every router agrees. Because the caps
// sum to (1+ε)·space > space, a candidate always exists; a single arc
// longer than the cap (only possible with very few points) goes to the
// least-loaded node.
func (r *Ring) rebalance() {
	n := len(r.nodes)
	cap64 := uint64(float64(^uint64(0)) / float64(n) * (1 + r.opts.Epsilon))
	load := make([]uint64, n)
	for i := range r.points {
		arc := r.arcBefore(i)
		owner := int(r.points[i].node)
		if load[owner]+arc > cap64 || load[owner]+arc < load[owner] {
			// Overflowing: scan candidates clockwise from the owner.
			picked := -1
			for d := 1; d < n; d++ {
				c := (owner + d) % n
				if load[c]+arc <= cap64 && load[c]+arc >= load[c] {
					picked = c
					break
				}
			}
			if picked < 0 {
				// Arc longer than any node's headroom: least-loaded node.
				picked = 0
				for c := 1; c < n; c++ {
					if load[c] < load[picked] {
						picked = c
					}
				}
			}
			owner = picked
			r.points[i].node = int32(owner)
		}
		load[owner] += arc
	}
}

// Nodes returns the member node IDs, sorted. The slice is shared; do
// not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Contains reports whether node is a member.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// locate returns the index of the first point clockwise of h.
func (r *Ring) locate(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrapped past the last point
	}
	return i
}

// Lookup returns the node that owns key, or "" for an empty ring.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.locate(hashString(key))].node]
}

// LookupHash is Lookup for a precomputed key hash (see KeyHash).
func (r *Ring) LookupHash(h uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.locate(h)].node]
}

// OwnersHash returns the first n distinct nodes clockwise of the key hash
// h — the replica set for a replication factor of n. Fewer than n members
// returns them all, primary first.
func (r *Ring) OwnersHash(h uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[int32]struct{}, n)
	start := r.locate(h)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.node]; ok {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, r.nodes[p.node])
	}
	return out
}

// KeyHash returns the ring's hash of key, for callers that route and
// fingerprint the same key (the router's ghost-of-ghosts).
func KeyHash(key string) uint64 { return hashString(key) }

// Add returns a new ring with node added (a no-op copy if already a
// member).
func (r *Ring) Add(node string) *Ring {
	if r.Contains(node) || node == "" {
		return r
	}
	return New(append(append([]string{}, r.nodes...), node), r.opts)
}

// Remove returns a new ring with node removed (a no-op copy if not a
// member).
func (r *Ring) Remove(node string) *Ring {
	if !r.Contains(node) {
		return r
	}
	keep := make([]string, 0, len(r.nodes)-1)
	for _, n := range r.nodes {
		if n != node {
			keep = append(keep, n)
		}
	}
	return New(keep, r.opts)
}

// String renders a compact description for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("hashring(%d nodes, %d points, eps=%.2f)",
		len(r.nodes), len(r.points), r.opts.Epsilon)
}
