package flash

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// liveBytes reads the bytes of live records (keys + values + headers).
func liveBytes(s *Store) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

func openTest(t *testing.T, dir string, maxBytes, segBytes uint64) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, MaxBytes: maxBytes, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), 1<<20, 16<<10)
	defer s.Close()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		val := bytes.Repeat([]byte{byte(i)}, 10+i)
		if err := s.Put(key, val, 0); err != nil {
			t.Fatal(err)
		}
		got, _, ok := s.Get(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("Get(%q) = %v, %v; want the stored value", key, got, ok)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if _, _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) hit")
	}
	st := s.Stats()
	if st.Hits != 100 || st.Misses != 1 || st.Puts != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverwriteTakesNewestValue(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 16<<10)
	for i := 0; i < 5; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got, _, _ := s.Get("k"); string(got) != "v4" {
		t.Fatalf("got %q, want v4", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Newest wins across restart too.
	s = openTest(t, dir, 1<<20, 16<<10)
	defer s.Close()
	if got, _, ok := s.Get("k"); !ok || string(got) != "v4" {
		t.Fatalf("after reopen got %q %v, want v4", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 8<<10)
	want := map[string][]byte{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%03d", i)
		val := bytes.Repeat([]byte{byte(i), byte(i >> 3)}, 20+i%7)
		want[key] = val
		if err := s.Put(key, val, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, 1<<20, 8<<10)
	defer s.Close()
	if s.Len() != len(want) {
		t.Fatalf("recovered %d records, want %d", s.Len(), len(want))
	}
	for key, val := range want {
		got, _, ok := s.Get(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("after reopen Get(%q) = %v, %v", key, got, ok)
		}
	}
}

// TestCrashRecoveryTruncatedTail kills the store mid-segment: the tail of
// the newest segment is cut mid-record, and reopen must keep exactly the
// records whose checksums still verify.
func TestCrashRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 1<<20) // one big segment: all records in one file
	const n = 50
	vals := map[string][]byte{}
	var offsets []uint64 // cumulative record end offsets
	var end uint64
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%02d", i)
		val := bytes.Repeat([]byte{byte(i + 1)}, 100)
		vals[key] = val
		if err := s.Put(key, val, 0); err != nil {
			t.Fatal(err)
		}
		end += headerSize + uint64(len(key)) + uint64(len(val))
		offsets = append(offsets, end)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append: cut the file 13 bytes into the last record.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(segs))
	}
	cut := offsets[n-2] + 13
	if err := os.Truncate(segs[0], int64(cut)); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, 1<<20, 1<<20)
	defer s.Close()
	if s.Len() != n-1 {
		t.Fatalf("recovered %d records, want %d", s.Len(), n-1)
	}
	st := s.Stats()
	if st.TruncatedBytes != 13 {
		t.Fatalf("TruncatedBytes = %d, want 13", st.TruncatedBytes)
	}
	for i := 0; i < n-1; i++ {
		key := fmt.Sprintf("key-%02d", i)
		got, _, ok := s.Get(key)
		if !ok || !bytes.Equal(got, vals[key]) {
			t.Fatalf("surviving record %q lost: %v %v", key, got, ok)
		}
	}
	if _, _, ok := s.Get(fmt.Sprintf("key-%02d", n-1)); ok {
		t.Fatal("truncated record resurrected")
	}
	// The store must be appendable again after truncation.
	if err := s.Put("fresh", []byte("value"), 0); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s.Get("fresh"); !ok || string(got) != "value" {
		t.Fatalf("post-recovery Put lost: %v %v", got, ok)
	}
}

// TestCorruptRecordDropped flips a byte inside a record's value: the
// checksum must catch it and recovery must drop (only) the damaged tail.
func TestCorruptRecordDropped(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 1<<20)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), bytes.Repeat([]byte("x"), 50), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	recSize := int64(headerSize + len("key-0") + 50)
	// Corrupt the value of record 4.
	if _, err := f.WriteAt([]byte{0xFF}, 4*recSize+headerSize+int64(len("key-4"))+10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = openTest(t, dir, 1<<20, 1<<20)
	defer s.Close()
	// Records 0..3 survive; 4.. are behind the corruption and unreachable.
	for i := 0; i < 4; i++ {
		if _, _, ok := s.Get(fmt.Sprintf("key-%d", i)); !ok {
			t.Fatalf("record %d before the corruption lost", i)
		}
	}
	if _, _, ok := s.Get("key-4"); ok {
		t.Fatal("corrupt record served")
	}
}

func TestDeleteTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 16<<10)
	if err := s.Put("keep", []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("gone", []byte("b"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, 1<<20, 16<<10)
	defer s.Close()
	if _, _, ok := s.Get("gone"); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
	if _, _, ok := s.Get("keep"); !ok {
		t.Fatal("undeleted key lost")
	}
}

// TestReclaimFIFOWithReinsertion fills the store past MaxBytes and checks
// that (a) the footprint stays bounded, (b) cold records are evicted
// oldest-first, and (c) records read while on flash are reinserted.
func TestReclaimFIFOWithReinsertion(t *testing.T) {
	s := openTest(t, t.TempDir(), 64<<10, 8<<10)
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 1000)
	if err := s.Put("hot", val, 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		// Keep "hot" read so each reclamation carries it forward.
		if _, _, ok := s.Get("hot"); !ok {
			t.Fatalf("hot record lost at round %d", round)
		}
		if err := s.Put(fmt.Sprintf("cold-%04d", round), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	if used := s.DiskUsed(); used > 64<<10+9<<10 {
		t.Fatalf("disk used %d exceeds budget", used)
	}
	st := s.Stats()
	if st.Reclaims == 0 || st.ReclaimDropped == 0 {
		t.Fatalf("expected reclamation activity, got %+v", st)
	}
	if st.ReclaimKept == 0 || st.GCBytes == 0 {
		t.Fatalf("expected hot reinsertion, got %+v", st)
	}
	// The earliest cold records must be gone (FIFO order).
	if _, _, ok := s.Get("cold-0000"); ok {
		t.Fatal("oldest cold record still present after reclamation")
	}
}

// TestReclaimReadsThroughWindows reclaims segments four staging buffers
// long, whose records straddle the window's end or, written directly, are
// longer than a window, with every third record read so that some are
// carried forward, some more than once. The counts are golden: the same
// calls against a store that read each victim whole in one buffer gave
// exactly these, so a window that lost, split or repeated a record shows.
func TestReclaimReadsThroughWindows(t *testing.T) {
	s := openTest(t, t.TempDir(), 8<<20, 2<<20)
	defer s.Close()
	val := func(i int) []byte {
		n := 100_003 // five to a window, the sixth straddles its end
		if i%7 == 6 {
			n = stageBytes + 4321 // written directly
		}
		return bytes.Repeat([]byte{byte(i)}, n)
	}
	const n = 150 // about 20 MiB of Puts through an 8 MiB budget
	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i), 0); err != nil {
			t.Fatal(err)
		}
		for j := i % 3; j <= i; j += 3 * (1 + i%5) {
			s.Get(key(j))
		}
	}
	for i := 0; i < n; i++ {
		if got, _, ok := s.Get(key(i)); ok && !bytes.Equal(got, val(i)) {
			t.Fatalf("%s: %d bytes, not its value", key(i), len(got))
		}
	}
	st := s.Stats()
	got := [...]uint64{st.Hits, st.Misses, st.BytesWritten, st.GCBytes, st.Reclaims, st.ReclaimDropped, st.ReclaimKept, uint64(s.Len())}
	if want := [...]uint64{1199, 716, 105982919, 81977243, 44, 92, 541, 58}; got != want {
		t.Fatalf("hits, misses, bytes written, GC bytes, reclaims, dropped, kept, len = %v, want %v", got, want)
	}
}

func TestTTLExpiry(t *testing.T) {
	s := openTest(t, t.TempDir(), 1<<20, 16<<10)
	defer s.Close()
	clock := time.Now().UnixNano()
	s.now = func() int64 { return clock }
	if err := s.Put("k", []byte("v"), clock+int64(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k"); !ok {
		t.Fatal("unexpired record missing")
	}
	clock += int64(2 * time.Hour)
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("expired record served")
	}
	if s.Contains("k") {
		t.Fatal("expired record reported live")
	}
}

func TestExpiredRecordsDroppedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 1<<20, 16<<10)
	past := time.Now().Add(-time.Hour).UnixNano()
	future := time.Now().Add(time.Hour).UnixNano()
	if err := s.Put("stale", []byte("v"), past); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fresh", []byte("v"), future); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, 1<<20, 16<<10)
	defer s.Close()
	if _, _, ok := s.Get("stale"); ok {
		t.Fatal("expired record recovered")
	}
	if _, _, ok := s.Get("fresh"); !ok {
		t.Fatal("unexpired record lost")
	}
}

func TestDeleteAbsentKeyWritesNothing(t *testing.T) {
	s := openTest(t, t.TempDir(), 1<<20, 16<<10)
	defer s.Close()
	if err := s.Put("k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().BytesWritten
	if _, err := s.Delete("absent"); err != nil {
		t.Fatal(err)
	}
	if s.Stats().BytesWritten != before {
		t.Fatal("Delete of an absent key wrote a tombstone")
	}
	// Deleting a live key must write one (durability is the point).
	if _, err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.Stats().BytesWritten == before {
		t.Fatal("Delete of a live key wrote nothing")
	}
}

func TestOversizeRejected(t *testing.T) {
	s := openTest(t, t.TempDir(), 1<<20, 16<<10)
	defer s.Close()
	if err := s.Put("", []byte("v"), 0); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Put(string(bytes.Repeat([]byte("k"), MaxKeyLen)), []byte("v"), 0); err == nil {
		t.Fatal("oversized key accepted")
	}
}

// TestConcurrentAccess drives the store from many goroutines; run under
// -race via make race.
func TestConcurrentAccess(t *testing.T) {
	s := openTest(t, t.TempDir(), 256<<10, 16<<10)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			val := bytes.Repeat([]byte{byte(g)}, 200)
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", rng.Intn(200))
				switch rng.Intn(4) {
				case 0:
					if err := s.Put(key, val, 0); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := s.Delete(key); err != nil {
						t.Error(err)
						return
					}
				default:
					s.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if used := s.DiskUsed(); used > 256<<10+17<<10 {
		t.Fatalf("disk used %d exceeds budget", used)
	}
}
