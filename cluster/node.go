package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/client"
)

// Per-node circuit-breaker defaults, mirroring the flash breaker
// (cache/breaker.go): trip after a short run of consecutive errors,
// probe with exponential backoff until the node answers again.
const (
	breakerThreshold = 3
	defaultRetryMin  = 100 * time.Millisecond
	defaultRetryMax  = 30 * time.Second
)

// node is the router's handle on one s3cached process: a pipelined
// binary connection (dialed lazily, so a node that is down at router
// start heals in the background like any other outage) plus a circuit
// breaker. While the breaker is open the router never touches the
// connection — reads on the node's slice of the ring degrade to misses,
// writes are dropped and counted — and a background prober pings until
// the node answers, then closes the circuit.
type node struct {
	addr     string
	copts    client.Options
	retryMin time.Duration
	retryMax time.Duration

	mu sync.Mutex
	c  *client.Client // nil until the first successful dial
	// stopped guards against probes outliving close; stop is closed once.
	stopped bool
	stop    chan struct{}
	wg      sync.WaitGroup

	open        atomic.Bool
	consecutive atomic.Uint64
	probing     atomic.Bool

	// Telemetry: routed operations by verb, plus breaker accounting.
	routedGet    atomic.Uint64
	routedSet    atomic.Uint64
	routedDelete atomic.Uint64
	routedGetx   atomic.Uint64
	routedSetx   atomic.Uint64
	errors       atomic.Uint64
	trips        atomic.Uint64
	restores     atomic.Uint64
}

func newNode(addr string, copts client.Options, retryMin, retryMax time.Duration) *node {
	n := &node{
		addr:     addr,
		copts:    copts,
		retryMin: retryMin,
		retryMax: retryMax,
		stop:     make(chan struct{}),
	}
	if n.retryMin <= 0 {
		n.retryMin = defaultRetryMin
	}
	if n.retryMax <= 0 {
		n.retryMax = defaultRetryMax
	}
	if n.retryMax < n.retryMin {
		n.retryMax = n.retryMin
	}
	return n
}

// available reports whether the breaker permits traffic: one atomic load
// on the routing hot path.
func (n *node) available() bool { return !n.open.Load() }

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

// note records one operation's outcome against the breaker. The client
// has its own retry/redial layer, so an error surfacing here means the
// node stayed unreachable through those retries — real evidence, not a
// single dropped packet.
func (n *node) note(err error) {
	if err == nil {
		n.consecutive.Store(0)
		return
	}
	n.errors.Add(1)
	if n.open.Load() {
		return
	}
	if n.consecutive.Add(1) >= breakerThreshold {
		n.trip()
	}
}

// trip opens the breaker and starts the background prober (one at a
// time: probing is the spawn guard).
func (n *node) trip() {
	if !n.open.CompareAndSwap(false, true) {
		return
	}
	n.trips.Add(1)
	n.dropConn()
	if n.probing.CompareAndSwap(false, true) {
		n.mu.Lock()
		if n.stopped {
			n.probing.Store(false)
			n.mu.Unlock()
			return
		}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.probeLoop()
	}
}

// probeLoop redials and pings the node with exponential backoff until it
// answers (restore) or the router closes.
func (n *node) probeLoop() {
	defer n.wg.Done()
	defer n.probing.Store(false)
	backoff := n.retryMin
	for {
		select {
		case <-n.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < n.retryMax {
			backoff *= 2
			if backoff > n.retryMax {
				backoff = n.retryMax
			}
		}
		c, err := n.clientConn()
		if err == nil {
			err = c.Ping()
		}
		if err != nil {
			n.errors.Add(1)
			n.dropConn()
			continue
		}
		n.consecutive.Store(0)
		n.open.Store(false)
		n.restores.Add(1)
		return
	}
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
	n.mu.Lock()
	if !n.stopped {
		n.stopped = true
		close(n.stop)
	}
	n.mu.Unlock()
	n.wg.Wait()
	n.dropConn()
}
