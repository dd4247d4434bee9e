package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/client"
	"s3fifo/internal/breaker"
)

// node is the router's handle on one s3cached process: a pipelined
// binary connection (dialed lazily, so a node that is down at router
// start heals in the background like any other outage) plus a circuit
// breaker, internal/breaker's, the same one the cache's second tier uses.
// While the breaker is open the router never touches the connection —
// reads on the node's slice of the ring degrade to misses, writes are
// dropped and counted — and the breaker's prober redials and pings until
// the node answers, then closes the circuit.
type node struct {
	addr  string
	copts client.Options
	br    breaker.Breaker

	mu sync.Mutex
	c  *client.Client // nil until the first successful dial

	// Telemetry: routed operations by verb; the breaker counts the rest.
	routedGet    atomic.Uint64
	routedSet    atomic.Uint64
	routedDelete atomic.Uint64
	routedGetx   atomic.Uint64
	routedSetx   atomic.Uint64
}

func newNode(addr string, copts client.Options, retryMin, retryMax time.Duration) *node {
	n := &node{addr: addr, copts: copts}
	n.br = breaker.New(breaker.DefaultThreshold, retryMin, retryMax, n.probe)
	return n
}

// available reports whether the breaker permits traffic: one atomic load
// on the routing hot path.
func (n *node) available() bool { return n.br.Available() }

// clientConn returns the node's connection, dialing on first use.
func (n *node) clientConn() (*client.Client, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.c != nil {
		return n.c, nil
	}
	c, err := client.DialOptions(n.addr, n.copts)
	if err != nil {
		return nil, err
	}
	n.c = c
	return c, nil
}

// dropConn discards a connection the breaker no longer trusts; the next
// probe (or post-restore operation) redials.
func (n *node) dropConn() {
	n.mu.Lock()
	if n.c != nil {
		n.c.Close()
		n.c = nil
	}
	n.mu.Unlock()
}

// note records one operation's outcome against the breaker, and drops
// the connection when it trips the circuit. The client has its own
// retry/redial layer, so an error surfacing here means the node stayed
// unreachable through those retries — real evidence, not a single
// dropped packet.
func (n *node) note(err error) {
	if n.br.Note(err) {
		n.dropConn()
	}
}

// probe is the breaker's health check: redial and ping the node, and
// close the circuit once it answers.
func (n *node) probe() error {
	c, err := n.clientConn()
	if err == nil {
		err = c.Ping()
	}
	if err != nil {
		n.dropConn()
		return err
	}
	n.br.Restore()
	return nil
}

// get/set/del/keys wrap the client operations with breaker accounting.

func (n *node) get(key string) ([]byte, bool, error) {
	n.routedGet.Add(1)
	c, err := n.clientConn()
	if err != nil {
		n.note(err)
		return nil, false, err
	}
	v, ok, err := c.Get(key)
	n.note(err)
	return v, ok, err
}

func (n *node) set(key string, value []byte, ttl time.Duration) (bool, error) {
	n.routedSet.Add(1)
	c, err := n.clientConn()
	if err != nil {
		n.note(err)
		return false, err
	}
	var ok bool
	if ttl > 0 {
		ok, err = c.SetWithTTL(key, value, ttl)
	} else {
		ok, err = c.Set(key, value)
	}
	n.note(err)
	return ok, err
}

func (n *node) del(key string) (bool, error) {
	n.routedDelete.Add(1)
	c, err := n.clientConn()
	if err != nil {
		n.note(err)
		return false, err
	}
	ok, err := c.Delete(key)
	n.note(err)
	return ok, err
}

func (n *node) keys(max int) ([]client.KeySample, error) {
	c, err := n.clientConn()
	if err != nil {
		n.note(err)
		return nil, err
	}
	ks, err := c.Keys(max)
	n.note(err)
	return ks, err
}

// close stops the prober and drops the connection.
func (n *node) close() {
	n.br.Close()
	n.dropConn()
}
