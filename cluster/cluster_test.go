package cluster

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/hashring"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
)

// testNode is one in-process s3cached: a real server on a loopback
// listener, restartable on the same address (kill + rejoin scenarios).
type testNode struct {
	t      *testing.T
	addr   string
	srv    *server.Server
	leases bool // serve GETX/SETX (server.WithAntiStampede)
}

func startTestNode(t *testing.T) *testNode { return startNode(t, false) }

func startNode(t *testing.T, leases bool) *testNode {
	t.Helper()
	n := &testNode{t: t, leases: leases}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = l.Addr().String()
	n.serveOn(l)
	return n
}

func (n *testNode) serveOn(l net.Listener) {
	c, err := cache.New(cache.Config{MaxBytes: 4 << 20, Engine: "concurrent"})
	if err != nil {
		n.t.Fatal(err)
	}
	opts := []server.Option{server.WithNodeID(n.addr)}
	if n.leases {
		opts = append(opts, server.WithAntiStampede(server.AntiStampede{}))
	}
	n.srv = server.New(c, opts...)
	srv := n.srv
	go srv.Serve(l)
	n.t.Cleanup(func() { srv.Close() })
}

func (n *testNode) kill() { n.srv.Close() }

// restart brings the node back on the SAME address with an EMPTY cache,
// like a process restart. The bind retries briefly: the router's breaker
// probe dials this address continuously, and one of those transient
// sockets (or a self-connect it just tore down) can hold the port for a
// moment.
func (n *testNode) restart() {
	n.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		l, err := net.Listen("tcp", n.addr)
		if err == nil {
			n.serveOn(l)
			return
		}
		if time.Now().After(deadline) {
			n.t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fastOpts keeps breaker probing and client retries snappy for tests.
func fastOpts(addrs ...string) Options {
	return Options{
		Nodes:    addrs,
		RetryMin: 5 * time.Millisecond,
		RetryMax: 50 * time.Millisecond,
		Client: client.Options{
			Retries:      1,
			RetryBackoff: time.Millisecond,
			DialTimeout:  time.Second,
			OpTimeout:    500 * time.Millisecond,
		},
	}
}

func startCluster(t *testing.T, n int, mutate func(*Options)) (*Client, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = startTestNode(t)
		addrs[i] = nodes[i].addr
	}
	opts := fastOpts(addrs...)
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, nodes
}

// TestRouterBasic: keys round-trip through the router and land spread
// across every node.
func TestRouterBasic(t *testing.T) {
	c, _ := startCluster(t, 3, nil)
	const keys = 300
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if ok, err := c.Set(k, []byte("v-"+k)); err != nil || !ok {
			t.Fatalf("Set(%s) = %v, %v", k, ok, err)
		}
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, ok, err := c.Get(k)
		if err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("Get(%s) = %q, %v, %v", k, v, ok, err)
		}
	}
	st := c.Stats()
	if len(st.Nodes) != 3 {
		t.Fatalf("Stats.Nodes = %d, want 3", len(st.Nodes))
	}
	var totalSets uint64
	for _, ns := range st.Nodes {
		if ns.RoutedSets == 0 {
			t.Errorf("node %s received no sets — keys not spreading", ns.Addr)
		}
		totalSets += ns.RoutedSets
	}
	if totalSets != keys {
		t.Errorf("routed sets = %d, want %d", totalSets, keys)
	}
	if ok, err := c.Delete("key-0000"); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, ok, _ := c.Get("key-0000"); ok {
		t.Error("deleted key still readable")
	}
}

// TestRoutingMatchesRing: the router sends each key to the node the
// ring names — verified against the nodes' own stats.
func TestRoutingMatchesRing(t *testing.T) {
	c, nodes := startCluster(t, 3, nil)
	want := map[string]int{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("route-%d", i)
		want[c.ring.Load().Lookup(k)]++
		if ok, err := c.Set(k, []byte("x")); err != nil || !ok {
			t.Fatalf("Set = %v, %v", ok, err)
		}
	}
	for _, n := range nodes {
		direct, err := client.DialOptions(n.addr, client.Options{Binary: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := direct.ServerStats()
		direct.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := int(st.Sets); got != want[n.addr] {
			t.Errorf("node %s holds %d sets, ring placed %d", n.addr, got, want[n.addr])
		}
	}
}

// TestDeadNodeDegradesToMisses: killing a node must never surface an
// error to callers — its slice of the keyspace just misses until the
// breaker's probe finds the node again.
func TestDeadNodeDegradesToMisses(t *testing.T) {
	c, nodes := startCluster(t, 3, nil)
	const keys = 120
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("dk-%d", i)
		if ok, err := c.Set(k, []byte("v")); err != nil || !ok {
			t.Fatalf("Set = %v, %v", ok, err)
		}
	}
	dead := nodes[1]
	dead.kill()
	deadAddr := dead.addr
	hits, misses := 0, 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("dk-%d", i)
		v, ok, err := c.Get(k)
		if err != nil {
			t.Fatalf("Get(%s) returned error with a dead node: %v", k, err)
		}
		owner := c.ring.Load().Lookup(k)
		switch {
		case ok && owner == deadAddr:
			t.Errorf("hit %q=%q from dead node?", k, v)
		case !ok && owner != deadAddr:
			t.Errorf("miss on %q owned by live node %s", k, owner)
		case ok:
			hits++
		default:
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("hits=%d misses=%d — expected both live hits and dead-slice misses", hits, misses)
	}
	// Writes to the dead slice are dropped and counted, not errored.
	if ok, err := c.Set("dk-0", []byte("v2")); err != nil {
		t.Fatalf("Set with dead node errored: %v (ok=%v)", err, ok)
	}
	st := c.Stats()
	var deadStats *NodeStats
	for i := range st.Nodes {
		if st.Nodes[i].Addr == deadAddr {
			deadStats = &st.Nodes[i]
		}
	}
	if deadStats == nil {
		t.Fatal("dead node missing from stats")
	}
	if deadStats.Available {
		t.Error("dead node still marked available")
	}
	if deadStats.BreakerTrips == 0 {
		t.Error("breaker never tripped")
	}
}

// TestBreakerRestoresAfterRestart: a killed node that comes back on the
// same address is probed back into service without any membership call.
func TestBreakerRestoresAfterRestart(t *testing.T) {
	c, nodes := startCluster(t, 2, nil)
	victim := nodes[0]
	victim.kill()
	// Drive enough traffic to trip the breaker.
	for i := 0; i < 30; i++ {
		if _, _, err := c.Get(fmt.Sprintf("rk-%d", i)); err != nil {
			t.Fatalf("Get errored: %v", err)
		}
	}
	n := c.nodeByAddr(victim.addr)
	if n == nil || n.available() {
		t.Fatal("breaker did not trip after sustained errors")
	}
	victim.restart()
	deadline := time.Now().Add(5 * time.Second)
	for !n.available() {
		if time.Now().After(deadline) {
			t.Fatal("breaker never restored after node restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Traffic flows to the restored node again.
	if ok, err := c.Set("post-restore", []byte("v")); err != nil || !ok {
		t.Fatalf("Set after restore = %v, %v", ok, err)
	}
	if _, ok, err := c.Get("post-restore"); err != nil || !ok {
		t.Fatalf("Get after restore = %v, %v", ok, err)
	}
}

// TestVersionCodec: the LWW wire format round-trips, and unversioned
// values decode as version 0 without a deadline.
func TestVersionCodec(t *testing.T) {
	ver, dl, val := decodeVersion(encodeVersion(42, 99, []byte("hello")))
	if ver != 42 || dl != 99 || string(val) != "hello" {
		t.Fatalf("roundtrip = %d, %d, %q", ver, dl, val)
	}
	ver, dl, val = decodeVersion(encodeVersion(7, 0, nil))
	if ver != 7 || dl != 0 || len(val) != 0 {
		t.Fatalf("empty roundtrip = %d, %d, %q", ver, dl, val)
	}
	ver, dl, val = decodeVersion([]byte("short"))
	if ver != 0 || dl != 0 || string(val) != "short" {
		t.Fatalf("legacy value = %d, %d, %q", ver, dl, val)
	}
}

// TestHotKeyReplicates: with R=2, a key that crosses the hot threshold
// is written to both ring owners; cold keys stay on one.
func TestHotKeyReplicates(t *testing.T) {
	c, _ := startCluster(t, 3, func(o *Options) {
		o.Replication = 2
		o.HotThreshold = 2
	})
	const hot = "hot-key"
	if ok, err := c.Set(hot, []byte("v1")); err != nil || !ok {
		t.Fatalf("Set = %v, %v", ok, err)
	}
	// Heat the key past the threshold, then write again: this write
	// fans out.
	for i := 0; i < 8; i++ {
		if _, _, err := c.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := c.Set(hot, []byte("v2")); err != nil || !ok {
		t.Fatalf("hot Set = %v, %v", ok, err)
	}
	owners := c.ring.Load().OwnersHash(hashring.KeyHash(hot), 2)
	for _, addr := range owners {
		direct, err := client.DialOptions(addr, client.Options{Binary: true})
		if err != nil {
			t.Fatal(err)
		}
		wire, ok, err := direct.Get(hot)
		direct.Close()
		if err != nil || !ok {
			t.Fatalf("owner %s missing hot key: %v, %v", addr, ok, err)
		}
		ver, _, val := decodeVersion(wire)
		if ver == 0 || string(val) != "v2" {
			t.Fatalf("owner %s copy = ver %d, %q", addr, ver, val)
		}
	}
	// Reads return the decoded payload, version stripped.
	v, ok, err := c.Get(hot)
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get(hot) = %q, %v, %v", v, ok, err)
	}
	if c.Stats().HotGets == 0 {
		t.Error("hot gets not counted")
	}
}

// TestReadRepair: delete a hot key's copy from one replica behind the
// router's back; repeated reads restore it from the surviving copy.
func TestReadRepair(t *testing.T) {
	c, _ := startCluster(t, 3, func(o *Options) {
		o.Replication = 2
		o.HotThreshold = 2
	})
	const hot = "repair-me"
	if ok, err := c.Set(hot, []byte("v1")); err != nil || !ok {
		t.Fatalf("Set = %v, %v", ok, err)
	}
	for i := 0; i < 8; i++ {
		c.Get(hot)
	}
	if ok, err := c.Set(hot, []byte("v2")); err != nil || !ok {
		t.Fatalf("Set = %v, %v", ok, err)
	}
	victim := c.ring.Load().OwnersHash(hashring.KeyHash(hot), 2)[1]
	direct, err := client.DialOptions(victim, client.Options{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := direct.Delete(hot); err != nil || !ok {
		t.Fatalf("direct delete = %v, %v", ok, err)
	}
	// Reads rotate across replicas and repair observed gaps; the 1-in-16
	// probe catches the rest. Drive enough reads to guarantee repair.
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := 0; i < 40; i++ {
			v, ok, err := c.Get(hot)
			if err != nil {
				t.Fatal(err)
			}
			if ok && string(v) != "v2" {
				t.Fatalf("read wrong value %q during repair window", v)
			}
		}
		wire, ok, err := direct.Get(hot)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if _, _, val := decodeVersion(wire); string(val) != "v2" {
				t.Fatalf("repaired copy = %q, want v2", val)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never repaired")
		}
	}
	direct.Close()
	if c.Stats().ReadRepairs == 0 {
		t.Error("read repairs not counted")
	}
}

// TestReadRepairKeepsTTL: a replica repaired from a TTL'd write expires
// with that write. A repaired copy written without a TTL would serve the
// key forever after both originals expired.
func TestReadRepairKeepsTTL(t *testing.T) {
	c, _ := startCluster(t, 3, func(o *Options) {
		o.Replication = 2
		o.HotThreshold = 2
	})
	const hot = "ttl-repair"
	if ok, err := c.Set(hot, []byte("v1")); err != nil || !ok {
		t.Fatalf("Set = %v, %v", ok, err)
	}
	for i := 0; i < 8; i++ {
		c.Get(hot)
	}
	if ok, err := c.SetWithTTL(hot, []byte("v2"), 2*time.Second); err != nil || !ok {
		t.Fatalf("SetWithTTL = %v, %v", ok, err)
	}
	written := time.Now()
	direct, err := client.DialOptions(c.ring.Load().OwnersHash(hashring.KeyHash(hot), 2)[1], client.Options{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if ok, err := direct.Delete(hot); err != nil || !ok {
		t.Fatalf("direct delete = %v, %v", ok, err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := c.Get(hot); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().ReadRepairs == 0 {
		t.Fatal("no read repair ran")
	}
	time.Sleep(time.Until(written.Add(2500 * time.Millisecond)))
	for i := 0; i < 50; i++ {
		if v, ok, err := c.Get(hot); err != nil || ok {
			t.Fatalf("read %d after the TTL = %q, %v, %v; want a miss", i, v, ok, err)
		}
	}
}

// TestRemoveNodeGhosts: removing a live node records its keys in the
// router's ghost queue, and the next miss on each is counted as lost.
func TestRemoveNodeGhosts(t *testing.T) {
	c, nodes := startCluster(t, 3, nil)
	const keys = 150
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("gk-%d", i)
		if ok, err := c.Set(k, []byte("v")); err != nil || !ok {
			t.Fatalf("Set = %v, %v", ok, err)
		}
	}
	removed := nodes[2].addr
	lostKeys := []string{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("gk-%d", i)
		if c.ring.Load().Lookup(k) == removed {
			lostKeys = append(lostKeys, k)
		}
	}
	if len(lostKeys) == 0 {
		t.Skip("no keys landed on the removed node")
	}
	if err := c.RemoveNode(removed); err != nil {
		t.Fatal(err)
	}
	if c.ring.Load().Contains(removed) {
		t.Fatal("ring still contains removed node")
	}
	if c.Stats().GhostEntries == 0 {
		t.Fatal("removal exported nothing into the ghost queue")
	}
	for _, k := range lostKeys {
		if _, ok, err := c.Get(k); err != nil {
			t.Fatal(err)
		} else if ok {
			// Bounded-load rebalancing may have kept this key's arc on a
			// surviving owner; fine.
			continue
		}
	}
	if got := c.Stats().LostMisses; got == 0 {
		t.Error("misses on removed node's keys not counted as lost")
	}
	// Each loss counts once: re-misses are ordinary.
	first := c.Stats().LostMisses
	for _, k := range lostKeys {
		c.Get(k)
	}
	if again := c.Stats().LostMisses; again != first {
		t.Errorf("lost misses recounted: %d -> %d", first, again)
	}
}

// TestAddNodeWarmup: a joining node receives the ring-adjacent nodes'
// hot keys before the cutover, so keys it takes over still hit.
func TestAddNodeWarmup(t *testing.T) {
	c, _ := startCluster(t, 2, nil)
	const keys = 200
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("wk-%d", i)
		if ok, err := c.Set(k, []byte("v-"+k)); err != nil || !ok {
			t.Fatalf("Set = %v, %v", ok, err)
		}
	}
	joiner := startTestNode(t)
	if err := c.AddNode(joiner.addr); err != nil {
		t.Fatal(err)
	}
	if !c.ring.Load().Contains(joiner.addr) {
		t.Fatal("ring missing joined node")
	}
	if c.Stats().WarmedKeys == 0 {
		t.Fatal("warm-up copied nothing")
	}
	// Every key the new ring assigns to the joiner must still hit.
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("wk-%d", i)
		if c.ring.Load().Lookup(k) != joiner.addr {
			continue
		}
		v, ok, err := c.Get(k)
		if err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("warmed key %s = %q, %v, %v", k, v, ok, err)
		}
	}
}

// TestAddNodeWarmupKeepsTTL: warm-up never gives a joining node a copy
// that outlives its original. The KEYS export carries no TTL, so a warmed
// copy of a TTL'd key would serve it forever.
func TestAddNodeWarmupKeepsTTL(t *testing.T) {
	c, _ := startCluster(t, 2, nil)
	const keys = 200
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("tk-%d", i)
		if ok, err := c.SetWithTTL(k, []byte("v-"+k), time.Second); err != nil || !ok {
			t.Fatalf("SetWithTTL = %v, %v", ok, err)
		}
	}
	written := time.Now()
	joiner := startTestNode(t)
	if err := c.AddNode(joiner.addr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Until(written.Add(1500 * time.Millisecond)))
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("tk-%d", i)
		if v, ok, err := c.Get(k); err != nil || ok {
			t.Fatalf("%s after its TTL (owner %s) = %q, %v, %v; want a miss",
				k, c.ring.Load().Lookup(k), v, ok, err)
		}
	}
}

// TestAddNodeUnreachable: an unreachable joiner still enters the ring
// (member lists must agree), but dark — breaker open, no warm-up, and
// its slice degrades to misses instead of errors.
func TestAddNodeUnreachable(t *testing.T) {
	c, _ := startCluster(t, 2, nil)
	ghost := startTestNode(t)
	ghostAddr := ghost.addr
	ghost.kill()
	if err := c.AddNode(ghostAddr); err != nil {
		t.Fatalf("AddNode(unreachable) = %v", err)
	}
	if !c.ring.Load().Contains(ghostAddr) {
		t.Fatal("unreachable node not in ring")
	}
	if n := c.nodeByAddr(ghostAddr); n == nil || n.available() {
		t.Fatal("unreachable joiner's breaker not open")
	}
	for i := 0; i < 50; i++ {
		if _, _, err := c.Get(fmt.Sprintf("uk-%d", i)); err != nil {
			t.Fatalf("Get with dark member errored: %v", err)
		}
	}
}

// TestMembershipErrors: duplicate adds and unknown removes are errors.
func TestMembershipErrors(t *testing.T) {
	c, nodes := startCluster(t, 2, nil)
	if err := c.AddNode(nodes[0].addr); err == nil {
		t.Error("duplicate AddNode succeeded")
	}
	if err := c.AddNode(""); err == nil {
		t.Error("empty AddNode succeeded")
	}
	if err := c.RemoveNode("127.0.0.1:1"); err == nil {
		t.Error("RemoveNode of non-member succeeded")
	}
}

// TestTelemetryFamilies: the router's metric families land in the
// registry, per-node series labeled by address.
func TestTelemetryFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, nodes := startCluster(t, 2, func(o *Options) { o.Metrics = reg })
	if ok, err := c.Set("tk", []byte("v")); err != nil || !ok {
		t.Fatalf("Set = %v, %v", ok, err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cluster_ring_nodes 2",
		`cluster_node_routed_total{node="` + nodes[0].addr + `",op="get"}`,
		`cluster_node_available{node="` + nodes[0].addr + `"} 1`,
		"cluster_hot_gets_total",
		"cluster_lost_misses_total",
		"cluster_ghost_entries",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Re-add after remove must not panic on re-registration, and the
	// series must track the NEW node instance.
	addr := nodes[1].addr
	if err := c.RemoveNode(addr); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(addr); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cluster_ring_nodes 2") {
		t.Error("ring gauge wrong after remove/re-add")
	}
}

// TestEmptyRouter: operations against a routerless cluster error
// cleanly rather than panic.
func TestEmptyRouter(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get("k"); err == nil {
		t.Error("Get on empty cluster did not error")
	}
	if _, err := c.Set("k", []byte("v")); err == nil {
		t.Error("Set on empty cluster did not error")
	}
	if _, err := c.Delete("k"); err == nil {
		t.Error("Delete on empty cluster did not error")
	}
}

// TestRingIsHashring: the router's ring is the bounded-load ring —
// sanity-check the import wiring rather than re-proving ring math here
// (internal/hashring has the property tests).
func TestRingIsHashring(t *testing.T) {
	c, _ := startCluster(t, 3, nil)
	var r *hashring.Ring = c.ring.Load()
	if r.Len() != 3 {
		t.Fatalf("ring len = %d", r.Len())
	}
}

// TestLeaseFillReadsBackBareValue: with Replication > 1 SetX stores the
// value behind the router's version header, and GetX must strip it, as
// Get does, so a filled key reads back exactly what was filled.
func TestLeaseFillReadsBackBareValue(t *testing.T) {
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = startNode(t, true).addr
	}
	opts := fastOpts(addrs...)
	opts.Replication = 2
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	res, err := c.GetX("k", 0)
	if err != nil || res.Found || res.Lease == 0 {
		t.Fatalf("first GetX = %+v, %v; want a lease", res, err)
	}
	if ok, err := c.SetX("k", res.Lease, []byte("value"), 0); !ok || err != nil {
		t.Fatalf("SetX = %v, %v", ok, err)
	}
	res, err = c.GetX("k", 0)
	if err != nil || !res.Found || string(res.Value) != "value" {
		t.Fatalf("GetX after the fill = %q (found %v), %v; want \"value\"", res.Value, res.Found, err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || string(v) != "value" {
		t.Fatalf("Get after the fill = %q, %v, %v", v, ok, err)
	}
}
