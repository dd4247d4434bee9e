package flash

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"s3fifo/internal/faultfs"
)

// openInjected opens a store in a temp dir on a fault injector with small
// segments so tests hit the seal/roll path quickly.
func openInjected(t *testing.T, seed int64) (*Store, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.New(faultfs.OS(), seed)
	s, err := Open(Options{
		Dir:          t.TempDir(),
		MaxBytes:     64 << 10,
		SegmentBytes: 4 << 10,
		FS:           inj,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, inj
}

// TestPutFailsOnWriteFault: a Put of a new key is staged, so a dead disk
// shows at the next write-through or barrier, not in the Put that staged
// the bytes. From then the error is sticky: the records the failed write
// covered leave the index, and every call does its own I/O — and so fails
// itself — until one gets bytes onto the disk again.
func TestPutFailsOnWriteFault(t *testing.T) {
	s, inj := openInjected(t, 1)
	if err := s.Put("k", []byte("v"), 0); err != nil {
		t.Fatalf("healthy Put: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("healthy Sync: %v", err)
	}
	inj.FailAfter(faultfs.OpWrite, 0)
	writes := inj.Count(faultfs.OpWrite)
	if err := s.Put("k2", []byte("v2"), 0); err != nil {
		t.Fatalf("staged Put on dead disk: %v, want nil (no I/O yet)", err)
	}
	if got := inj.Count(faultfs.OpWrite); got != writes {
		t.Fatalf("Put of a new key made %d writes", got-writes)
	}
	if v, _, ok := s.Get("k2"); !ok || string(v) != "v2" {
		t.Fatalf("staged record unreadable: %q, %v", v, ok)
	}
	if err := s.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Sync on dead disk: err = %v, want ErrInjected", err)
	}
	// The record the failed write covered must not be indexed.
	if _, _, ok := s.Get("k2"); ok {
		t.Fatal("record of a failed write is readable")
	}
	// Earlier data still served.
	if v, _, ok := s.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("Get(k) = %q, %v after write fault", v, ok)
	}
	// Sticky: with the disk still dead every Put fails in the same call.
	for i := 0; i < 3; i++ {
		if err := s.Put("k3", []byte("v3"), 0); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("Put %d after the failure: err = %v, want ErrInjected", i, err)
		}
		if s.Contains("k3") {
			t.Fatal("failed Put is indexed")
		}
	}
	inj.Clear()
	if err := s.Put("k2", []byte("v2"), 0); err != nil {
		t.Fatalf("Put after faults lifted: %v", err)
	}
	// That Put wrote its record through, which ended the sticky state: the
	// next new key is staged again.
	writes = inj.Count(faultfs.OpWrite)
	if err := s.Put("k4", []byte("v4"), 0); err != nil {
		t.Fatal(err)
	}
	if got := inj.Count(faultfs.OpWrite); got != writes {
		t.Fatalf("store still writing through after recovery (%d writes)", got-writes)
	}
}

// TestBackgroundWriteFailureIsTold: when the write that fails is the
// sealer's, nobody was calling — the next call returns that error, even
// if the disk has recovered by then, and the one after is clean.
func TestBackgroundWriteFailureIsTold(t *testing.T) {
	s, inj := openInjected(t, 1)
	val := make([]byte, 512)
	inj.FailNth(faultfs.OpWrite, 1)
	// Fill the 4 KiB segment and one more: the roll hands the tail to the
	// sealer, whose write is the one that fails.
	for n := 0; s.Segments() < 2; n++ {
		if err := s.Put(fmt.Sprintf("lost-%d", n), val, 0); err != nil {
			t.Fatalf("staged Put: %v", err)
		}
	}
	s.mu.Lock()
	s.waitIdleLocked()
	s.mu.Unlock()
	if err := s.Put("next", val, 0); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("first call after a background failure: err = %v, want ErrInjected", err)
	}
	if s.Contains("lost-0") {
		t.Fatal("record of the failed background write still indexed")
	}
	if err := s.Put("next", val, 0); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got, want := s.DiskUsed(), filesBytes(t, s.opts.Dir); got != want {
		t.Fatalf("DiskUsed = %d, files hold %d", got, want)
	}
}

// TestSyncFailureBlocksSealThenRecovers drives the sync-on-seal path: with
// every sync failing, the sealer cannot seal, the failure is sticky, and
// every append that follows retries the same seal itself and fails — and
// starts succeeding again as soon as syncs do.
func TestSyncFailureBlocksSealThenRecovers(t *testing.T) {
	s, inj := openInjected(t, 1)
	val := make([]byte, 512)
	// Fill the 4 KiB active segment so the next Put must seal it.
	n := 0
	for s.active().size < s.opts.SegmentBytes {
		if err := s.Put(fmt.Sprintf("warm-%d", n), val, 0); err != nil {
			t.Fatalf("warmup Put: %v", err)
		}
		n++
	}
	inj.FailAfter(faultfs.OpSync, 0)
	if err := s.Put("blocked", val, 0); err != nil {
		t.Fatalf("the Put that rolls does no I/O itself: %v", err)
	}
	if err := s.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Sync during sync outage: err = %v, want ErrInjected", err)
	}
	for k := 0; k < 3; k++ {
		if err := s.Put("blocked", val, 0); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("Put %d during sync outage: err = %v, want ErrInjected", k, err)
		}
	}
	// Reads keep working through the outage.
	if _, _, ok := s.Get("warm-0"); !ok {
		t.Fatal("read failed during sync outage")
	}
	inj.Clear()
	if err := s.Put("blocked", val, 0); err != nil {
		t.Fatalf("Put after sync outage: %v", err)
	}
	if _, _, ok := s.Get("blocked"); !ok {
		t.Fatal("post-outage Put not readable")
	}
}

// TestCreateFailureLosesNothing: when the next segment's file cannot be
// created, what is staged for it stays staged — readable, not lost — the
// failure is sticky, and once the disk is back the same records reach the
// new file.
func TestCreateFailureLosesNothing(t *testing.T) {
	s, inj := openInjected(t, 1)
	val := make([]byte, 512)
	inj.FailAfter(faultfs.OpOpen, 0)
	var keys []string
	for n := 0; s.Segments() < 2 || n < 12; n++ { // through the roll and past it
		key := fmt.Sprintf("k-%d", n)
		if err := s.Put(key, val, 0); err != nil {
			break // the sealer's failure has surfaced
		}
		keys = append(keys, key)
	}
	if err := s.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Sync with creates failing: err = %v, want ErrInjected", err)
	}
	if err := s.Put("more", val, 0); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Put with creates failing: err = %v, want ErrInjected", err)
	}
	for _, key := range keys {
		if _, _, ok := s.Get(key); !ok {
			t.Fatalf("%s lost while the create was failing", key)
		}
	}
	inj.Clear()
	if err := s.Put("more", val, 0); err != nil {
		t.Fatalf("Put after the faults lifted: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after the faults lifted: %v", err)
	}
	if got, want := s.DiskUsed(), filesBytes(t, s.opts.Dir); got != want {
		t.Fatalf("DiskUsed = %d, files hold %d", got, want)
	}
	for _, key := range append(keys, "more") {
		if _, _, ok := s.Get(key); !ok {
			t.Fatalf("%s lost across the recovery", key)
		}
	}
}

// TestShortWriteRecoveredAsTornTail arms a short write, then reopens the
// directory: recovery must truncate the torn record and keep everything
// before it.
func TestShortWriteRecoveredAsTornTail(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS(), 1)
	opts := Options{Dir: dir, MaxBytes: 64 << 10, SegmentBytes: 8 << 10, FS: inj}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for k := 0; k < 4; k++ {
		if err := s.Put(fmt.Sprintf("keep-%d", k), []byte("value"), 0); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	inj.ShortWriteOnce(headerSize + 2) // tear mid-key
	if err := s.Put("torn", []byte("lost"), 0); err != nil {
		t.Fatalf("staged Put: %v", err)
	}
	if err := s.Sync(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Sync over the torn write: err = %v, want ErrInjected", err)
	}
	if s.Contains("torn") {
		t.Fatal("torn record still indexed")
	}
	// Simulate a crash: drop the store without Close (Close would sync,
	// which is fine, but we want the torn bytes on disk regardless).
	s.closeAll()

	re, err := Open(Options{Dir: dir, MaxBytes: 64 << 10, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	st := re.Stats()
	if st.TruncatedBytes == 0 {
		t.Fatalf("recovery truncated nothing; stats = %+v", st)
	}
	if st.CorruptDropped != 0 {
		t.Fatalf("torn tail misclassified as corruption: %+v", st)
	}
	for k := 0; k < 4; k++ {
		if v, _, ok := re.Get(fmt.Sprintf("keep-%d", k)); !ok || string(v) != "value" {
			t.Fatalf("keep-%d lost after torn-tail recovery (%q, %v)", k, v, ok)
		}
	}
	if _, _, ok := re.Get("torn"); ok {
		t.Fatal("torn record resurrected")
	}
}

func TestReadFaultCountsAsMiss(t *testing.T) {
	s, inj := openInjected(t, 1)
	if err := s.Put("k", []byte("v"), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Sync(); err != nil { // out of the staging area: the Get must read
		t.Fatalf("Sync: %v", err)
	}
	inj.FailAfter(faultfs.OpRead, 0)
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("Get succeeded through a read fault")
	}
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.CorruptDropped != 1 {
		t.Fatalf("stats after read fault = %+v", st)
	}
	// The unreadable record was dropped from the index: still a miss with
	// the fault lifted.
	inj.Clear()
	if _, _, ok, err := s.Lookup("k"); ok || err != nil {
		t.Fatalf("dropped record: Lookup = %v, %v; want a clean miss", ok, err)
	}
}

// TestLookupReportsReadErrors: the three-value Get folds a failed read
// into a miss; Lookup hands the error to callers that track disk health.
func TestLookupReportsReadErrors(t *testing.T) {
	s, inj := openInjected(t, 1)
	if err := s.Put("k", []byte("v"), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if _, _, ok, err := s.Lookup("absent"); ok || err != nil {
		t.Fatalf("Lookup(absent) = %v, %v; want a clean miss", ok, err)
	}
	inj.FailNth(faultfs.OpRead, inj.Count(faultfs.OpRead)+1)
	if _, _, ok, err := s.Lookup("k"); ok || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Lookup through a read fault = %v, %v; want miss, ErrInjected", ok, err)
	}
}

func TestDeleteReportsDiskActivity(t *testing.T) {
	s, inj := openInjected(t, 1)
	if err := s.Put("k", []byte("v"), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if wrote, err := s.Delete("absent"); wrote || err != nil {
		t.Fatalf("Delete(absent) = %v, %v; want false, nil", wrote, err)
	}
	inj.FailAfter(faultfs.OpWrite, 0)
	wrote, err := s.Delete("k")
	if !wrote || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Delete(k) on dead disk = %v, %v; want true, ErrInjected", wrote, err)
	}
	// Even with the tombstone append failed, the in-memory index dropped
	// the key.
	if s.Contains("k") {
		t.Fatal("key survived failed Delete in memory")
	}
}

func TestLatencyInjection(t *testing.T) {
	s, inj := openInjected(t, 1)
	inj.SetLatency(faultfs.OpWrite, 0) // exercise the code path; zero keeps the test fast
	if err := s.Put("k", []byte("v"), 0); err != nil {
		t.Fatalf("Put with latency rule: %v", err)
	}
}

func TestResetEmptiesStore(t *testing.T) {
	s, _ := openInjected(t, 1)
	for k := 0; k < 20; k++ {
		if err := s.Put(fmt.Sprintf("k-%d", k), make([]byte, 512), 0); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if s.Len() == 0 || s.DiskUsed() == 0 {
		t.Fatal("store empty before Reset")
	}
	if err := s.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if s.Len() != 0 || liveBytes(s) != 0 {
		t.Fatalf("after Reset: len=%d live=%d", s.Len(), liveBytes(s))
	}
	if s.Segments() != 1 {
		t.Fatalf("after Reset: %d segments, want 1 fresh active", s.Segments())
	}
	if err := s.Put("post", []byte("reset"), 0); err != nil {
		t.Fatalf("Put after Reset: %v", err)
	}
	if v, _, ok := s.Get("post"); !ok || string(v) != "reset" {
		t.Fatalf("Get after Reset = %q, %v", v, ok)
	}
}

func TestOpsAfterCloseFailCleanly(t *testing.T) {
	s, _ := openInjected(t, 1)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Put("k", []byte("v"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: %v, want ErrClosed", err)
	}
	if err := s.Reset(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reset after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// filesBytes is the total size of the segment files in dir.
func filesBytes(t *testing.T, dir string) uint64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += uint64(fi.Size())
	}
	return total
}

// TestForegroundFailureWakesWaiters: a caller asleep waiting for the sealer
// — here a Delete of an absent key, sitting out the unlink of a reclaimed
// segment that a reader still holds — must be woken when a foreground
// write fails, because from then the sealer is parked and nobody else
// will. There is no timeout in here: a lost wakeup hangs the test.
func TestForegroundFailureWakesWaiters(t *testing.T) {
	s, inj := openInjected(t, 1)
	val := make([]byte, 512)
	s.mu.Lock()
	held := s.segs[0]
	held.readers.Add(1) // what a Lookup in the middle of its read holds
	s.mu.Unlock()
	var last string
	for n := 0; !held.retired.Load(); n++ {
		last = fmt.Sprintf("k-%d", n)
		if err := s.Put(last, val, 0); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	type result struct {
		wrote bool
		err   error
	}
	absent := make(chan result)
	go func() {
		wrote, err := s.Delete("absent")
		absent <- result{wrote, err}
	}()
	// Give it time to fall asleep, the order the lost wakeup needs; it has to
	// return in the other order too.
	time.Sleep(20 * time.Millisecond)
	inj.FailAfter(faultfs.OpWrite, 0)
	if wrote, err := s.Delete(last); !wrote || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Delete(%s) on dead disk = %v, %v; want true, ErrInjected", last, wrote, err)
	}
	if r := <-absent; r.wrote || r.err != nil {
		t.Fatalf("Delete(absent) = %v, %v; want false, nil", r.wrote, r.err)
	}
	s.release(held)
	inj.Clear()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync with the disk back: %v", err)
	}
	if got, want := s.DiskUsed(), filesBytes(t, s.opts.Dir); got != want {
		t.Fatalf("DiskUsed = %d, files hold %d", got, want)
	}
}

// gateFS holds every ReadAt at a gate: entered says a read has arrived,
// and it goes on to the file once open is closed.
type gateFS struct {
	faultfs.FS
	entered, open chan struct{}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	faultfs.File
	g *gateFS
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	f.g.entered <- struct{}{}
	<-f.g.open
	return f.File.ReadAt(p, off)
}

// TestLookupRacingCloseIsAMiss: Close does not wait for a Lookup that is
// reading a live segment outside the mutex, so that read can find its file
// closed. That is the store going away, not the disk failing: a miss with
// a nil error, or the tier would count it against the breaker.
func TestLookupRacingCloseIsAMiss(t *testing.T) {
	g := &gateFS{FS: faultfs.OS(), entered: make(chan struct{}), open: make(chan struct{})}
	s, err := Open(Options{Dir: t.TempDir(), MaxBytes: 64 << 10, SegmentBytes: 4 << 10, FS: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil { // in the file, so that Lookup has to read it
		t.Fatal(err)
	}
	type result struct {
		ok  bool
		err error
	}
	got := make(chan result)
	go func() {
		_, _, ok, err := s.Lookup("k")
		got <- result{ok, err}
	}()
	<-g.entered
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(g.open)
	if r := <-got; r.ok || r.err != nil {
		t.Fatalf("Lookup across Close = %v, %v; want a miss and no error", r.ok, r.err)
	}
}
