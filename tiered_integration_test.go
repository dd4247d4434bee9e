package s3fifo

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/server"
)

// startServer brings up a server over c on a real TCP listener and
// returns a connected client plus a shutdown func (which closes the
// cache too).
func startServer(t *testing.T, c *cache.Cache) (*client.Client, func()) {
	t.Helper()
	srv := server.New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	cl, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return cl, func() {
		cl.Close()
		srv.Close()
		c.Close()
	}
}

// tieredStack describes one Tier backend under integration test. For
// "remote" a DRAM-only peer server is stood up first and survives
// front-cache restarts, playing the role the on-disk directory plays for
// the flash tier.
type tieredStack struct {
	tier string
	// start builds the front cache + server for this backend. Calling it
	// again models a restart of the front process over the same backend.
	start func(t *testing.T) (*cache.Cache, *client.Client, func())
}

func newTieredStacks(t *testing.T) []tieredStack {
	dir := t.TempDir()
	flash := tieredStack{tier: "flash", start: func(t *testing.T) (*cache.Cache, *client.Client, func()) {
		t.Helper()
		c, err := cache.New(cache.Config{
			MaxBytes:          4 << 10,
			Shards:            2,
			FlashDir:          dir,
			FlashBytes:        512 << 10,
			FlashSegmentBytes: 32 << 10,
			Admission:         "all",
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, shutdown := startServer(t, c)
		return c, cl, shutdown
	}}
	// The remote tier's peer: a plain DRAM cache big enough to hold
	// every demotion, shared across front restarts.
	peer, err := cache.New(cache.Config{MaxBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	peerSrv := server.New(peer)
	peerL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go peerSrv.Serve(peerL)
	t.Cleanup(func() {
		peerSrv.Close()
		peer.Close()
	})
	remote := tieredStack{tier: "remote", start: func(t *testing.T) (*cache.Cache, *client.Client, func()) {
		t.Helper()
		c, err := cache.New(cache.Config{
			MaxBytes:  4 << 10,
			Shards:    2,
			TierAddr:  peerL.Addr().String(),
			Admission: "all",
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, shutdown := startServer(t, c)
		return c, cl, shutdown
	}}
	return []tieredStack{flash, remote}
}

// TestTieredEndToEnd drives a server with each second-tier backend over
// real TCP: sets flood the small DRAM tier so evictions demote to the
// tier, re-reads come back correct from either layer, and the stats
// command reports the per-tier counters consistently. Restarting the
// front stack over the same backend must keep serving tier-resident
// values and must not resurrect deletes.
func TestTieredEndToEnd(t *testing.T) {
	for _, stack := range newTieredStacks(t) {
		t.Run("engine=concurrent/tier="+stack.tier, func(t *testing.T) {
			testTieredEndToEnd(t, stack)
		})
	}
}

func testTieredEndToEnd(t *testing.T, stack tieredStack) {
	_, cl, shutdown := stack.start(t)

	const n = 120
	val := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i%26)}, 100)
	}
	for i := 0; i < n; i++ {
		if ok, err := cl.Set(fmt.Sprintf("key-%04d", i), val(i)); err != nil || !ok {
			t.Fatalf("set %d: ok=%v err=%v", i, ok, err)
		}
	}
	// DRAM holds ~40 of these 120 entries; the rest must come off the
	// second tier.
	missing := 0
	for i := 0; i < n; i++ {
		v, ok, err := cl.Get(fmt.Sprintf("key-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			missing++
			continue
		}
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("key-%04d: wrong value back", i)
		}
	}
	if missing > 0 {
		t.Errorf("%d of %d keys missing despite tier capacity for all", missing, n)
	}

	st, err := cl.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine != "concurrent" {
		t.Errorf("server reports engine %q, want concurrent", st.Engine)
	}
	if st.TierKind != stack.tier {
		t.Errorf("server reports tier %q, want %q", st.TierKind, stack.tier)
	}
	if st.FlashHits == 0 {
		t.Error("no tier hits over TCP")
	}
	if st.Demotions == 0 {
		t.Error("no demotions recorded")
	}
	if st.Hits != st.DRAMHits+st.FlashHits {
		t.Errorf("hits %d != dram %d + tier %d", st.Hits, st.DRAMHits, st.FlashHits)
	}
	if st.FlashBytesWritten == 0 {
		t.Errorf("tier bytes-written not reported: %+v", st)
	}
	if stack.tier != "remote" && (st.FlashSegments == 0 || st.FlashEntries == 0) {
		t.Errorf("tier counters not reported: %+v", st)
	}
	if st.Sets != n {
		t.Errorf("sets = %d, want %d", st.Sets, n)
	}

	// Deletes must remove the tier copy too. The remote tier's Contains
	// is false by design (an existence probe would transfer the value),
	// so the DELETED/NOT_FOUND report can't see peer-only keys — the
	// delete itself still propagates, which the Gets below verify.
	ok, err := cl.Delete("key-0000")
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if !ok && stack.tier != "remote" {
		t.Fatal("delete of a tier-resident key reported NOT_FOUND")
	}
	if _, ok, _ := cl.Get("key-0000"); ok {
		t.Error("deleted key still served")
	}

	shutdown()

	// Restart the front stack on the same backend: the recovered state
	// (on-disk index, or the still-running peer) must keep serving values
	// that only live in the tier.
	_, cl2, shutdown2 := stack.start(t)
	defer shutdown2()
	st2, err := cl2.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stack.tier != "remote" && st2.FlashEntries == 0 {
		t.Fatal("no tier entries recovered after restart")
	}
	hits := 0
	for i := 1; i < n; i++ {
		v, ok, err := cl2.Get(fmt.Sprintf("key-%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hits++
			if !bytes.Equal(v, val(i)) {
				t.Fatalf("key-%04d: wrong value after restart", i)
			}
		}
	}
	if stack.tier == "remote" {
		if hits == 0 {
			t.Error("peer-resident values unreachable after front restart")
		}
	} else if uint64(hits) < st2.FlashEntries {
		t.Errorf("served %d keys after restart, tier recovered %d", hits, st2.FlashEntries)
	}
	if _, ok, _ := cl2.Get("key-0000"); ok {
		t.Error("tombstoned key resurrected by restart")
	}
}
