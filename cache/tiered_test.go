package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// tieredConfig returns a deliberately tiny single-shard DRAM tier over a
// flash tier, so a handful of Sets forces demotions.
func tieredConfig(dir, admission string) Config {
	return Config{
		MaxBytes:          2 << 10,
		Shards:            1,
		FlashDir:          dir,
		FlashBytes:        256 << 10,
		FlashSegmentBytes: 16 << 10,
		Admission:         admission,
	}
}

// forEachEngine runs fn as a subtest per serving engine: the flash tier
// must demote, promote, supersede, and recover identically on both.
func forEachEngine(t *testing.T, fn func(t *testing.T, engine string)) {
	for _, eng := range Engines() {
		t.Run("engine="+eng, func(t *testing.T) { fn(t, eng) })
	}
}

// engineTieredConfig is tieredConfig pinned to one serving engine.
func engineTieredConfig(dir, admission, engine string) Config {
	cfg := tieredConfig(dir, admission)
	cfg.Engine = engine
	return cfg
}

func val(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }

func TestTieredConfigValidation(t *testing.T) {
	if _, err := New(Config{MaxBytes: 1 << 10, FlashBytes: 1 << 20}); err == nil {
		t.Fatal("FlashBytes without FlashDir accepted")
	}
	if _, err := New(Config{MaxBytes: 1 << 10, Admission: "ghost"}); err == nil {
		t.Fatal("Admission without FlashDir accepted")
	}
	if _, err := New(Config{MaxBytes: 1 << 10, FlashDir: t.TempDir()}); err == nil {
		t.Fatal("FlashDir without FlashBytes accepted")
	}
	if _, err := New(tieredConfig(t.TempDir(), "bogus")); err == nil {
		t.Fatal("unknown admission policy accepted")
	}
	for _, name := range Admissions() {
		c, err := New(tieredConfig(t.TempDir(), name))
		if err != nil {
			t.Fatalf("admission %q: %v", name, err)
		}
		c.Close()
	}
}

// TestDemotionAndPromotion pushes entries out of DRAM and reads them
// back: the values must come from flash and promote into DRAM.
func TestDemotionAndPromotion(t *testing.T) {
	forEachEngine(t, testDemotionAndPromotion)
}

func testDemotionAndPromotion(t *testing.T, engine string) {
	c, err := New(engineTieredConfig(t.TempDir(), "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if !c.Set(fmt.Sprintf("key-%03d", i), val(i)) {
			t.Fatalf("Set %d failed", i)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Demotions == 0 {
		t.Fatalf("expected demotions, got %+v", st)
	}
	if st.FlashBytesWritten == 0 || st.FlashEntries == 0 {
		t.Fatalf("flash never written: %+v", st)
	}
	hits := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", i)
		v, ok := c.Get(key)
		if !ok {
			continue
		}
		hits++
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%q) returned wrong value", key)
		}
	}
	st = c.Stats()
	if st.FlashHits == 0 {
		t.Fatalf("every hit came from DRAM; wanted flash hits: %+v", st)
	}
	if hits < n/2 {
		t.Fatalf("only %d/%d keys survived in the two tiers", hits, n)
	}
	if st.Hits != st.DRAMHits+st.FlashHits {
		t.Fatalf("Hits %d != DRAMHits %d + FlashHits %d", st.Hits, st.DRAMHits, st.FlashHits)
	}
	// A flash hit promotes: the same key again must now hit DRAM.
	preDRAM := st.DRAMHits
	key := "key-000"
	if _, ok := c.Get(key); !ok {
		t.Skip("key-000 fell off both tiers")
	}
	if _, ok := c.Get(key); !ok {
		t.Fatalf("promoted key missed")
	}
	if got := c.Stats().DRAMHits; got <= preDRAM {
		t.Fatalf("promotion did not land in DRAM (DRAMHits %d -> %d)", preDRAM, got)
	}
}

// TestTieredSurvivesRestart is the headline property: reopen the same
// flash directory and the demoted working set is still servable.
func TestTieredSurvivesRestart(t *testing.T) {
	forEachEngine(t, testTieredSurvivesRestart)
}

func testTieredSurvivesRestart(t *testing.T, engine string) {
	dir := t.TempDir()
	c, err := New(engineTieredConfig(dir, "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	for i := 0; i < n; i++ {
		c.Set(fmt.Sprintf("key-%03d", i), val(i))
	}
	flashEntries := c.Stats().FlashEntries
	if flashEntries == 0 {
		t.Fatal("nothing demoted before restart")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, err = New(engineTieredConfig(dir, "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := c.Stats()
	if st.FlashEntries != flashEntries {
		t.Fatalf("recovered %d flash entries, want %d", st.FlashEntries, flashEntries)
	}
	hits := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", i)
		v, ok := c.Get(key)
		if !ok {
			continue
		}
		hits++
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("recovered Get(%q) returned wrong value", key)
		}
	}
	if uint64(hits) < flashEntries {
		t.Fatalf("only %d hits after restart, flash held %d", hits, flashEntries)
	}
	if c.Stats().FlashHits == 0 {
		t.Fatal("restart served no flash hits")
	}
}

// TestGhostAdmissionWriteThrough: a one-hit wonder is declined at
// eviction, but re-Setting it while the ghost remembers proves reuse and
// writes it through to flash.
func TestGhostAdmissionWriteThrough(t *testing.T) {
	forEachEngine(t, testGhostAdmissionWriteThrough)
}

func testGhostAdmissionWriteThrough(t *testing.T, engine string) {
	c, err := New(engineTieredConfig(t.TempDir(), "ghost", engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Set("wanted", val(1))
	// Flood with one-hit wonders until "wanted" is evicted (declined:
	// never hit while resident).
	for i := 0; c.Contains("wanted") && i < 1000; i++ {
		c.Set(fmt.Sprintf("flood-%04d", i), val(2))
	}
	st := c.Stats()
	if st.Demotions != 0 {
		t.Fatalf("one-hit wonders reached flash: %+v", st)
	}
	if st.DemotionsDeclined == 0 {
		t.Fatalf("expected declined demotions: %+v", st)
	}
	// Re-request after demotion: a full miss, so the caller re-Sets it.
	c.Set("wanted", val(1))
	st = c.Stats()
	if st.FlashBytesWritten == 0 || st.FlashEntries == 0 {
		t.Fatalf("ghost re-Set did not write through: %+v", st)
	}
}

// TestFreqAdmission: entries hit while resident are admitted, one-hit
// wonders are not.
func TestFreqAdmission(t *testing.T) {
	forEachEngine(t, testFreqAdmission)
}

func testFreqAdmission(t *testing.T, engine string) {
	c, err := New(engineTieredConfig(t.TempDir(), "freq", engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Set("hot", val(1))
	c.Get("hot") // freq 1: worth a flash write at eviction
	for i := 0; c.Contains("hot") && i < 1000; i++ {
		c.Set(fmt.Sprintf("flood-%04d", i), val(2))
	}
	st := c.Stats()
	if st.Demotions == 0 {
		t.Fatalf("hot entry not demoted to flash: %+v", st)
	}
	if st.DemotionsDeclined == 0 {
		t.Fatalf("cold flood entries admitted: %+v", st)
	}
	if v, ok := c.Get("hot"); !ok || !bytes.Equal(v, val(1)) {
		t.Fatal("hot entry lost after demotion")
	}
}

// TestGhostWritesLessThanAdmitAll replays one Zipf-ish workload under
// both policies: ghost must write strictly fewer flash bytes without
// losing hits (the Fig. 9 property on the real store).
func TestGhostWritesLessThanAdmitAll(t *testing.T) {
	run := func(admission string) Stats {
		// Flash far smaller than the tail footprint: admit-all churns
		// its own hot entries out with one-hit-wonder writes.
		c, err := New(Config{
			MaxBytes:          2 << 10,
			Shards:            1,
			FlashDir:          t.TempDir(),
			FlashBytes:        32 << 10,
			FlashSegmentBytes: 8 << 10,
			Admission:         admission,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(42))
		req := func(key string, v int) {
			if _, ok := c.Get(key); !ok {
				c.Set(key, val(v))
			}
		}
		warm := 0
		for i := 0; i < 12000; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				// Hot set: short re-request interval, lives in DRAM/flash
				// under either policy.
				req(fmt.Sprintf("hot-%02d", rng.Intn(60)), 1)
			case 4:
				// Warm set: revisited in quick pairs (so both policies
				// admit it on eviction), but the between-pair interval
				// exceeds admit-all's flash residency — only a flash tier
				// not churned by one-hit-wonder writes retains it.
				key := fmt.Sprintf("warm-%03d", warm%200)
				warm++
				req(key, 2)
				req(key, 2)
			default:
				// One-hit wonders: pure write-amplification for admit-all.
				req(fmt.Sprintf("tail-%06d", i), 3)
			}
		}
		return c.Stats()
	}
	all := run("all")
	ghost := run("ghost")
	if ghost.FlashBytesWritten >= all.FlashBytesWritten {
		t.Fatalf("ghost wrote %d bytes, admit-all %d", ghost.FlashBytesWritten, all.FlashBytesWritten)
	}
	if ghost.Hits < all.Hits {
		t.Fatalf("ghost hit count %d below admit-all %d", ghost.Hits, all.Hits)
	}
}

func TestDeleteRemovesBothTiers(t *testing.T) {
	forEachEngine(t, testDeleteRemovesBothTiers)
}

func testDeleteRemovesBothTiers(t *testing.T, engine string) {
	dir := t.TempDir()
	c, err := New(engineTieredConfig(dir, "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	c.Set("victim", val(1))
	for i := 0; i < 100; i++ {
		c.Set(fmt.Sprintf("flood-%04d", i), val(2))
	}
	if _, ok := c.Get("victim"); !ok {
		t.Skip("victim fell off both tiers")
	}
	c.Delete("victim")
	if _, ok := c.Get("victim"); ok {
		t.Fatal("deleted key still served")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The delete must survive restart (tombstoned on flash).
	c, err = New(engineTieredConfig(dir, "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get("victim"); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
}

func TestTTLNotServedFromFlash(t *testing.T) {
	forEachEngine(t, testTTLNotServedFromFlash)
}

func testTTLNotServedFromFlash(t *testing.T, engine string) {
	c, err := New(engineTieredConfig(t.TempDir(), "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetWithTTL("ttl", val(1), 30*time.Millisecond)
	for i := 0; c.Contains("ttl") && i < 1000; i++ {
		c.Set(fmt.Sprintf("flood-%04d", i), val(2)) // demote it
	}
	if v, ok := c.Get("ttl"); !ok || !bytes.Equal(v, val(1)) {
		t.Skip("ttl entry was not retained on flash")
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := c.Get("ttl"); ok {
		t.Fatal("expired entry served from flash")
	}
}

func TestSetSupersedesFlashCopy(t *testing.T) {
	forEachEngine(t, testSetSupersedesFlashCopy)
}

func testSetSupersedesFlashCopy(t *testing.T, engine string) {
	c, err := New(engineTieredConfig(t.TempDir(), "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Set("k", val(1))
	for i := 0; c.Contains("k") && i < 1000; i++ {
		c.Set(fmt.Sprintf("flood-%04d", i), val(2))
	}
	// k now lives on flash (admit-all). Overwrite it: the flash copy
	// must never be served again.
	c.Set("k", []byte("new-value"))
	if v, ok := c.Get("k"); !ok || string(v) != "new-value" {
		t.Fatalf("Get(k) = %q, %v after overwrite", v, ok)
	}
	for i := 0; c.Contains("k") && i < 1000; i++ {
		c.Set(fmt.Sprintf("flood2-%04d", i), val(3)) // evict the new value
	}
	if v, ok := c.Get("k"); ok && !bytes.Equal(v, []byte("new-value")) {
		t.Fatalf("stale flash value served: %q", v)
	}
}

// TestRestartDoesNotResurrectSupersededValue pins the crash-safety side
// of supersession: overwriting a key that has a flash copy must tombstone
// that copy on disk, so a restart (which loses the DRAM tier) can never
// bring the old value back.
func TestRestartDoesNotResurrectSupersededValue(t *testing.T) {
	forEachEngine(t, testRestartDoesNotResurrectSupersededValue)
}

func testRestartDoesNotResurrectSupersededValue(t *testing.T, engine string) {
	dir := t.TempDir()
	c, err := New(engineTieredConfig(dir, "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	c.Set("k", val(1))
	for i := 0; c.Contains("k") && i < 1000; i++ {
		c.Set(fmt.Sprintf("flood-%04d", i), val(2)) // demote k to flash
	}
	if _, ok := c.Get("k"); !ok {
		t.Fatal("k lost entirely before the overwrite")
	}
	c.Set("k", []byte("new-value")) // supersedes the flash copy
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, err = New(engineTieredConfig(dir, "all", engine))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The new value lived only in DRAM and is gone; the old flash record
	// must not come back as a hit.
	if v, ok := c.Get("k"); ok && bytes.Equal(v, val(1)) {
		t.Fatalf("restart resurrected the superseded value %q", v)
	}
}

// TestTieredConcurrent hammers a tiered cache from several goroutines;
// make race runs this under -race.
func TestTieredConcurrent(t *testing.T) {
	forEachEngine(t, testTieredConcurrent)
}

func testTieredConcurrent(t *testing.T, engine string) {
	c, err := New(Config{
		MaxBytes:          8 << 10,
		Engine:            engine,
		Shards:            4,
		FlashDir:          t.TempDir(),
		FlashBytes:        128 << 10,
		FlashSegmentBytes: 16 << 10,
		Admission:         "ghost",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("key-%03d", rng.Intn(300))
				switch rng.Intn(10) {
				case 0:
					c.Delete(key)
				case 1, 2, 3:
					c.Set(key, val(rng.Intn(50)))
				default:
					if _, ok := c.Get(key); !ok {
						c.Set(key, val(rng.Intn(50)))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}
