package cluster

import (
	"errors"
	"time"

	"s3fifo/internal/hashring"
)

// AddNode joins a new member. The sequence matters:
//
//  1. Dial and ping the node. If it is unreachable it still joins (the
//     ring must agree across routers that share a member list), but
//     with its breaker open and no warm-up — it will be probed back to
//     health like any outage.
//  2. Warm-up: BEFORE the ring cutover, replay the hot keys of the
//     nodes that currently own the slices the newcomer will take.
//     Donors export their resident keys hottest-first (the engines'
//     S3-FIFO frequency counters drive the order); every sampled key
//     whose owner set under the NEW ring includes the newcomer is
//     copied in, raw bytes, so version headers survive. Until the
//     swap, all traffic still routes to the old owners — the newcomer
//     fills up invisibly.
//  3. Swap the ring. The newcomer starts serving a slice it already
//     holds the hot end of, so the hit ratio steps down briefly
//     instead of cratering to zero.
//
// The KEYS export carries frequencies but not TTLs, so it leaves out
// every entry that has one: a warmed copy of it would outlive its
// original. With Replication > 1 the wire header carries the deadline,
// and a key given a TTL after it was sampled is copied with what is left
// of it.
func (c *Client) AddNode(addr string) error {
	if addr == "" {
		return errors.New("cluster: empty node address")
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.mu.Lock()
	if _, dup := c.nodes[addr]; dup {
		c.mu.Unlock()
		return errors.New("cluster: node already present: " + addr)
	}
	n := c.newMember(addr)
	c.nodes[addr] = n
	c.mu.Unlock()

	oldRing := c.ring.Load()
	if oldRing == nil {
		oldRing = hashring.New(nil, hashring.Options{})
	}
	newRing := oldRing.Add(addr)

	// Probe before warm-up: an unreachable newcomer joins dark.
	cc, err := n.clientConn()
	if err == nil {
		err = cc.Ping()
	}
	if err != nil {
		n.br.Trip()
		n.dropConn()
	} else if c.opts.WarmupSamples > 0 && oldRing.Len() > 0 {
		c.warmUp(n, oldRing, newRing)
	}

	c.ring.Store(newRing)
	c.registerNodeMetrics(addr)
	return nil
}

// warmUp replays donor nodes' hot keys into the joining node. Donors
// are every current member — bounded-load rebalancing means arcs the
// newcomer inherits can come from any of them — but only keys the NEW
// ring assigns to the newcomer are copied, so the work is proportional
// to the slice it takes over, not the whole keyspace.
func (c *Client) warmUp(dst *node, oldRing, newRing *hashring.Ring) {
	replicas := 1
	if c.opts.Replication > 1 {
		replicas = c.opts.Replication
	}
	for _, donorAddr := range oldRing.Nodes() {
		donor := c.nodeByAddr(donorAddr)
		if donor == nil || !donor.available() {
			continue
		}
		samples, err := donor.keys(c.opts.WarmupSamples)
		if err != nil {
			continue
		}
		for _, s := range samples {
			h := hashring.KeyHash(s.Key)
			if !ownedBy(newRing.OwnersHash(h, replicas), dst.addr) {
				continue
			}
			wire, ok, err := donor.get(s.Key)
			if err != nil || !ok {
				continue
			}
			var ttl time.Duration
			if c.opts.Replication > 1 {
				if ttl, ok = copyTTL(wire); !ok {
					continue
				}
			}
			if stored, err := dst.set(s.Key, wire, ttl); err == nil && stored {
				c.warmedKeys.Add(1)
				// A key coming back that the ghost queue wrote off as
				// lost is recovered — stop predicting misses for it.
				c.ghostMu.Lock()
				c.ghosts.Remove(h)
				c.ghostMu.Unlock()
			}
		}
	}
}

func ownedBy(owners []string, addr string) bool {
	for _, o := range owners {
		if o == addr {
			return true
		}
	}
	return false
}

// RemoveNode drops a member. If the node is still reachable its
// resident keys are exported first and their fingerprints recorded in
// the router's ghost queue: the keys themselves are gone (their slices
// redistribute to nodes that never held them), but the first miss on
// each is then attributable to the removal (lost_misses) rather than to
// the workload. Dead nodes export nothing — what they held is unknown,
// which the ghost queue honestly reflects.
func (c *Client) RemoveNode(addr string) error {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.mu.Lock()
	n := c.nodes[addr]
	if n == nil {
		c.mu.Unlock()
		return errors.New("cluster: no such node: " + addr)
	}
	delete(c.nodes, addr)
	c.mu.Unlock()

	if n.available() {
		if samples, err := n.keys(c.opts.WarmupSamples); err == nil {
			c.ghostMu.Lock()
			for _, s := range samples {
				c.ghosts.Insert(hashring.KeyHash(s.Key))
			}
			c.ghostMu.Unlock()
		}
	}

	if ring := c.ring.Load(); ring != nil && ring.Contains(addr) {
		c.ring.Store(ring.Remove(addr))
	}
	n.close()
	return nil
}
