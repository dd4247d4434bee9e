// Cluster routing for the lease protocol (GETX/SETX, DESIGN.md §14).
// Leases are per-node state: the fill-slot table lives in one s3cached
// process, so a lease is only redeemable on the node that granted it.
// The router therefore pins both halves of the exchange to the key's
// PRIMARY ring owner — replicas never see GETX, so two owners cannot
// grant independent leases for one key and send two clients to the
// backend. A fill redeemed on the primary still fans out to the
// replicas as a plain write, keeping hot-shard copies warm.
package cluster

import (
	"errors"
	"time"

	"s3fifo/client"
	"s3fifo/internal/hashring"
)

// GetX is the anti-stampede lookup, routed to the key's primary owner.
// An unavailable owner degrades to a plain miss with a zero lease —
// never an error — which deliberately un-coalesces the key for the
// outage: every caller falls through to the backend, exactly as if the
// cache node were absent.
func (c *Client) GetX(key string, grace time.Duration) (client.GetXResult, error) {
	ring := c.ring.Load()
	if ring == nil || ring.Len() == 0 {
		return client.GetXResult{}, errors.New("cluster: no nodes")
	}
	h := hashring.KeyHash(key)
	c.observe(h)
	n := c.nodeByAddr(ring.LookupHash(h))
	if n == nil || !n.available() {
		_, _, _ = c.miss(h, true)
		return client.GetXResult{}, nil
	}
	res, err := n.getx(key, grace)
	if err != nil {
		_, _, _ = c.miss(h, true)
		return client.GetXResult{}, nil
	}
	if !res.Found && res.Lease == 0 {
		_, _, _ = c.miss(h, false)
	}
	if res.Found && c.opts.Replication > 1 {
		_, _, res.Value = decodeVersion(res.Value) // SetX stamped it
	}
	return res, nil
}

// SetX redeems a lease on the key's primary owner, then (best effort)
// copies an accepted fill to the replica owners when the key is hot —
// the replicas never saw the lease, so they get plain versioned Sets.
// ErrLeaseInvalid surfaces unchanged; an unreachable primary reports
// client.ErrLeaseInvalid too, because by the time it heals the lease
// will have expired anyway.
func (c *Client) SetX(key string, lease uint64, value []byte, ttl time.Duration) (bool, error) {
	ring := c.ring.Load()
	if ring == nil || ring.Len() == 0 {
		return false, errors.New("cluster: no nodes")
	}
	h := hashring.KeyHash(key)
	n := c.nodeByAddr(ring.LookupHash(h))
	if n == nil || !n.available() {
		c.degradedDrops.Add(1)
		return false, client.ErrLeaseInvalid
	}
	wire := value
	if c.opts.Replication > 1 {
		wire = stamp(value, ttl)
	}
	stored, err := n.setx(key, lease, wire, ttl)
	if err != nil {
		if errors.Is(err, client.ErrLeaseInvalid) {
			return false, err
		}
		c.degradedDrops.Add(1)
		return false, client.ErrLeaseInvalid
	}
	if stored {
		if r := c.replicaCount(c.isHot(h)); r > 1 {
			for _, addr := range ring.OwnersHash(h, r)[1:] {
				rn := c.nodeByAddr(addr)
				if rn == nil || !rn.available() {
					c.degradedDrops.Add(1)
					continue
				}
				if _, err := rn.set(key, wire, ttl); err != nil {
					c.degradedDrops.Add(1)
				}
			}
		}
	}
	return stored, nil
}

// SetXNegative redeems a lease as "confirmed absent" on the key's
// primary owner. Negative tombstones are not replicated: replicas never
// grant leases, so only the primary's lookup path consults them.
func (c *Client) SetXNegative(key string, lease uint64, ttl time.Duration) error {
	ring := c.ring.Load()
	if ring == nil || ring.Len() == 0 {
		return errors.New("cluster: no nodes")
	}
	h := hashring.KeyHash(key)
	n := c.nodeByAddr(ring.LookupHash(h))
	if n == nil || !n.available() {
		c.degradedDrops.Add(1)
		return client.ErrLeaseInvalid
	}
	err := n.setxNegative(key, lease, ttl)
	if err != nil && !errors.Is(err, client.ErrLeaseInvalid) {
		c.degradedDrops.Add(1)
		return client.ErrLeaseInvalid
	}
	return err
}

// --- node wrappers --------------------------------------------------

// leaseNote filters lease rejections out of the breaker's evidence
// stream: ErrLeaseInvalid is a healthy node answering a protocol
// question, not an outage.
func leaseNote(n *node, err error) {
	if errors.Is(err, client.ErrLeaseInvalid) {
		err = nil
	}
	n.note(err)
}

func (n *node) getx(key string, grace time.Duration) (client.GetXResult, error) {
	n.routedGetx.Add(1)
	c, err := n.clientConn()
	if err != nil {
		n.note(err)
		return client.GetXResult{}, err
	}
	res, err := c.GetX(key, grace)
	n.note(err)
	return res, err
}

func (n *node) setx(key string, lease uint64, value []byte, ttl time.Duration) (bool, error) {
	n.routedSetx.Add(1)
	c, err := n.clientConn()
	if err != nil {
		n.note(err)
		return false, err
	}
	ok, err := c.SetX(key, lease, value, ttl)
	leaseNote(n, err)
	return ok, err
}

func (n *node) setxNegative(key string, lease uint64, ttl time.Duration) error {
	n.routedSetx.Add(1)
	c, err := n.clientConn()
	if err != nil {
		n.note(err)
		return err
	}
	err = c.SetXNegative(key, lease, ttl)
	leaseNote(n, err)
	return err
}
