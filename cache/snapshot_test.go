package cache

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20})
	want := map[string]string{}
	for i := 0; i < 500; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%d", i*7)
		c.Set(k, []byte(v))
		want[k] = v
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != len(want) {
		t.Fatalf("restored %d entries, want %d", restored.Len(), len(want))
	}
	for k, v := range want {
		got, ok := restored.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("restored[%q] = %q, %v; want %q", k, got, ok, v)
		}
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1024})
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, Config{MaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 {
		t.Errorf("restored %d entries from empty snapshot", restored.Len())
	}
}

func TestSnapshotSkipsExpired(t *testing.T) {
	clock := withFakeClock(t)
	c := mustNew(t, Config{MaxBytes: 1 << 16})
	c.Set("keep", []byte("k"))
	c.SetWithTTL("drop", []byte("d"), time.Minute)
	c.SetWithTTL("live", []byte("l"), time.Hour)
	*clock = clock.Add(10 * time.Minute)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, Config{MaxBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Contains("drop") {
		t.Error("expired entry restored")
	}
	if !restored.Contains("keep") || !restored.Contains("live") {
		t.Error("live entries missing after restore")
	}
	// The restored TTL entry still expires at (about) the original time.
	*clock = clock.Add(2 * time.Hour)
	if restored.Contains("live") {
		t.Error("restored TTL entry never expires")
	}
}

func TestSnapshotIntoSmallerCache(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 20, Shards: 1})
	for i := 0; i < 1000; i++ {
		c.Set(fmt.Sprintf("key-%04d", i), make([]byte, 64))
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	small, err := Load(&buf, Config{MaxBytes: 8 << 10, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.Used() > small.Capacity() {
		t.Errorf("restored cache over capacity: %d > %d", small.Used(), small.Capacity())
	}
	if small.Len() == 0 {
		t.Error("nothing survived the downsized restore")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTSNAP!restofdata"),
	}
	for _, data := range cases {
		if _, err := Load(bytes.NewReader(data), Config{MaxBytes: 1024}); err == nil {
			t.Errorf("Load(%q) succeeded", data)
		}
	}
	// A v1 snapshot, whatever follows the magic, is rejected by version.
	v1 := append(append([]byte(nil), snapshotMagicV1[:]...), make([]byte, 8)...)
	if _, err := Load(bytes.NewReader(v1), Config{MaxBytes: 1024}); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
		t.Errorf("v1 snapshot: %v", err)
	}
}

func TestSnapshotBinaryValues(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 16})
	value := []byte{0, 1, 2, 0xff, '\r', '\n', 'S', '3'}
	c.Set("bin", value)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf, Config{MaxBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := restored.Get("bin")
	if !ok || !bytes.Equal(got, value) {
		t.Errorf("binary value corrupted: %v", got)
	}
}

// TestSnapshotMetaRoundTrip checks the v2 format restores full S3-FIFO
// state on the concurrent engine: queue membership, frequencies (via
// occupancy equality), and the ghost queue.
func TestSnapshotMetaRoundTrip(t *testing.T) {
	cfg := Config{MaxBytes: 32 << 10, Engine: "concurrent", Shards: 1}
	c := mustNew(t, cfg)
	defer c.Close()
	// Churn enough inserts through the cache to evict (populating the
	// ghost queue), then re-get a subset so survivors are promoted into
	// the main queue with nonzero frequency.
	val := make([]byte, 128)
	for i := 0; i < 400; i++ {
		c.Set(fmt.Sprintf("key-%04d", i), val)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 300; i < 400; i++ {
			c.Get(fmt.Sprintf("key-%04d", i))
		}
	}
	// Promotion small->main happens during eviction scans, so push more
	// inserts through to evict past the hot range.
	for i := 400; i < 800; i++ {
		c.Set(fmt.Sprintf("key-%04d", i), val)
	}
	before := c.engine.Occupancy()
	if before.GhostLen == 0 {
		t.Fatalf("test setup: ghost queue empty: %+v", before)
	}
	if before.MainLen == 0 {
		t.Fatalf("test setup: nothing promoted to main: %+v", before)
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	after := restored.engine.Occupancy()
	if after.SmallBytes != before.SmallBytes || after.MainBytes != before.MainBytes ||
		after.SmallLen != before.SmallLen || after.MainLen != before.MainLen {
		t.Errorf("queue occupancy not restored: before %+v, after %+v", before, after)
	}
	if after.GhostLen != before.GhostLen {
		t.Errorf("ghost queue not restored: before %d, after %d", before.GhostLen, after.GhostLen)
	}
	if restored.Len() != c.Len() {
		t.Errorf("Len %d after restore, want %d", restored.Len(), c.Len())
	}
	if st := restored.Stats(); st.SnapshotUnixNano == 0 {
		t.Error("restored cache does not report its snapshot time")
	}
}

// TestSnapshotV2CrossEngine: a snapshot from one engine loads into the
// other (metadata the target cannot represent degrades, data survives).
func TestSnapshotV2CrossEngine(t *testing.T) {
	for _, pair := range [][2]string{{"concurrent", "policy"}, {"policy", "concurrent"}} {
		t.Run(pair[0]+"->"+pair[1], func(t *testing.T) {
			src := mustNew(t, Config{MaxBytes: 1 << 20, Engine: pair[0]})
			defer src.Close()
			for i := 0; i < 200; i++ {
				src.Set(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("val-%d", i)))
			}
			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatal(err)
			}
			dst, err := Load(&buf, Config{MaxBytes: 1 << 20, Engine: pair[1]})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			if dst.Len() != src.Len() {
				t.Fatalf("Len %d after cross-engine restore, want %d", dst.Len(), src.Len())
			}
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%03d", i)
				if v, ok := dst.Get(k); !ok || string(v) != fmt.Sprintf("val-%d", i) {
					t.Fatalf("%s = %q, %v after cross-engine restore", k, v, ok)
				}
			}
		})
	}
}

func TestSaveAfterCloseReturnsErrClosed(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 16})
	c.Set("k", []byte("v"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after Close: %v, want ErrClosed", err)
	}
	if buf.Len() != 0 {
		t.Errorf("Save after Close wrote %d bytes", buf.Len())
	}
}

// TestSaveCloseRace hammers concurrent Save and Close: every Save must
// either complete a full snapshot or return ErrClosed — never tear.
func TestSaveCloseRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		c := mustNew(t, Config{MaxBytes: 1 << 18, FlashDir: t.TempDir(), FlashBytes: 1 << 20})
		for i := 0; i < 500; i++ {
			c.Set(fmt.Sprintf("key-%04d", i), make([]byte, 64))
		}
		type saveResult struct {
			data []byte
			err  error
		}
		results := make(chan saveResult, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				err := c.Save(&buf)
				results <- saveResult{buf.Bytes(), err}
			}()
		}
		closed := make(chan error, 1)
		go func() { closed <- c.Close() }()
		wg.Wait()
		if err := <-closed; err != nil {
			t.Fatalf("Close: %v", err)
		}
		close(results)
		for res := range results {
			if errors.Is(res.err, ErrClosed) {
				continue
			}
			if res.err != nil {
				t.Fatalf("Save failed with %v, want success or ErrClosed", res.err)
			}
			// A successful Save raced ahead of Close: it must be a complete,
			// loadable snapshot.
			if _, err := Load(bytes.NewReader(res.data), Config{MaxBytes: 1 << 18}); err != nil {
				t.Fatalf("snapshot saved during Close does not load: %v", err)
			}
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	c := mustNew(t, Config{MaxBytes: 1 << 16})
	c.Set("durable", []byte("value"))
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after SaveFile")
	}
	c.Close()
	restored, err := LoadFile(path, Config{MaxBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if v, ok := restored.Get("durable"); !ok || string(v) != "value" {
		t.Fatalf("restored[durable] = %q, %v", v, ok)
	}
	// A missing file is detectable as fs.ErrNotExist for cold-start
	// fallback.
	if _, err := LoadFile(filepath.Join(dir, "absent.snap"), Config{MaxBytes: 1 << 16}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LoadFile(absent) = %v, want fs.ErrNotExist", err)
	}
}

// TestLoadRejectsCorruptV2: any bit flip or truncation of a v2 snapshot
// fails the checksum (or structural validation) and loads nothing.
func TestLoadRejectsCorruptV2(t *testing.T) {
	c := mustNew(t, Config{MaxBytes: 1 << 16})
	defer c.Close()
	for i := 0; i < 50; i++ {
		c.Set(fmt.Sprintf("key-%02d", i), []byte("value"))
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, i := range []int{8, 20, len(good) / 2, len(good) - 5} {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x01
		if _, err := Load(bytes.NewReader(bad), Config{MaxBytes: 1 << 16}); err == nil {
			t.Errorf("bit flip at %d loaded anyway", i)
		}
	}
	for _, n := range []int{9, 13, len(good) / 2, len(good) - 1} {
		if _, err := Load(bytes.NewReader(good[:n]), Config{MaxBytes: 1 << 16}); err == nil {
			t.Errorf("truncation to %d bytes loaded anyway", n)
		}
	}
}

// FuzzSnapshotLoad: corrupt or adversarial snapshots must never panic
// and never yield a partially restored cache — Load returns a working
// cache or an error, nothing in between.
func FuzzSnapshotLoad(f *testing.F) {
	// Seeds: a real v2 snapshot, a well-formed v1 snapshot (an input
	// format with no loader: must be rejected), and junk.
	c, err := New(Config{MaxBytes: 1 << 16})
	if err != nil {
		f.Fatal(err)
	}
	c.Set("alpha", []byte("one"))
	c.SetWithTTL("beta", []byte{0xff, 0x00}, time.Hour)
	var v2 bytes.Buffer
	if err := c.Save(&v2); err != nil {
		f.Fatal(err)
	}
	c.Close()
	f.Add(v2.Bytes())
	v1 := append([]byte(nil), snapshotMagicV1[:]...)
	v1 = append(v1, 5, 0, 0, 0, 0, 0, 0, 0)
	v1 = append(v1, []byte("gamma")...)
	v1 = append(v1, 3, 0, 0, 0, 0, 0, 0, 0)
	v1 = append(v1, []byte("def")...)
	v1 = append(v1, make([]byte, 8)...) // no expiry
	v1 = append(v1, make([]byte, 8)...) // terminator
	f.Add(v1)
	f.Add([]byte("S3SNAP02"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data), Config{MaxBytes: 1 << 16})
		if err == nil && bytes.HasPrefix(data, snapshotMagicV1[:]) {
			t.Fatal("v1 snapshot loaded")
		}
		if err != nil {
			if loaded != nil {
				t.Fatal("Load returned both a cache and an error")
			}
			return
		}
		// Whatever loaded must be a fully functional cache.
		loaded.Set("probe", []byte("x"))
		if v, ok := loaded.Get("probe"); !ok || string(v) != "x" {
			t.Fatalf("loaded cache broken: probe = %q, %v", v, ok)
		}
		var buf bytes.Buffer
		if err := loaded.Save(&buf); err != nil {
			t.Fatalf("loaded cache cannot re-save: %v", err)
		}
		loaded.Close()
	})
}
