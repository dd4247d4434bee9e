package flash

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3fifo/internal/faultfs"
	"s3fifo/internal/proto"
)

// hookFS is the real filesystem with a hook in front of every operation
// that changes what a crash would leave behind — a create, a write (and
// once more halfway through it), an unlink — and a count of open files.
// The foreground may write while the sealer syncs or unlinks, so mu makes
// each hook and the operation behind it one step: what the hook sees in
// the directory is what a crash at that instant would leave.
type hookFS struct {
	faultfs.FS
	mu    sync.Mutex
	point func()
	open  atomic.Int64
}

func newHookFS(point func()) *hookFS { return &hookFS{FS: faultfs.OS(), point: point} }

func (h *hookFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if flag&os.O_CREATE != 0 {
		h.point()
	}
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return &hookFile{File: f, fs: h}, nil
}

func (h *hookFS) Remove(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.point()
	return h.FS.Remove(name)
}

type hookFile struct {
	faultfs.File
	fs *hookFS
}

func (f *hookFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.point()
	half := len(p) / 2
	n, err := f.File.WriteAt(p[:half], off)
	if err != nil {
		return n, err
	}
	f.fs.point() // a torn write
	m, err := f.File.WriteAt(p[half:], off+int64(half))
	return n + m, err
}

func (f *hookFile) Close() error {
	f.fs.open.Add(-1)
	return f.File.Close()
}

// crashOracle is what the driver of TestCrashAtEveryIOPoint has been told:
// the value every key holds according to the calls that have returned,
// and the one call that has not.
type crashOracle struct {
	mu      sync.Mutex
	acked   map[string]string // absent: deleted or never put
	pending bool
	pendKey string
	pendVal string // "" for a Delete
}

// TestCrashAtEveryIOPoint kills the store at every point where its files
// change — before each create, write and unlink, and halfway through each
// write — during a random sequence of Put, overwriting Put, Delete and
// Get over a budget small enough to reclaim constantly. A kill is a copy
// of the directory as it is at that instant: the bytes the store has
// written, and none of the ones it has only staged. The copy is opened,
// and every key must read back as absent (a cache may forget: a staged
// demotion, a reclaimed record) or as the value the latest returned call
// gave it (or the call in progress is giving it) — never a deleted or
// superseded one.
func TestCrashAtEveryIOPoint(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { crashRun(t, seed) })
	}
}

func crashRun(t *testing.T, seed int64) {
	dir := t.TempDir()
	scratch := t.TempDir()
	or := &crashOracle{acked: map[string]string{}}
	var points int
	var failed atomic.Bool

	crash := func() {
		if failed.Load() {
			return
		}
		points++
		snap := filepath.Join(scratch, fmt.Sprint(points))
		copyDir(t, dir, snap)
		or.mu.Lock()
		acked := make(map[string]string, len(or.acked))
		for k, v := range or.acked {
			acked[k] = v
		}
		pending, pendKey, pendVal := or.pending, or.pendKey, or.pendVal
		or.mu.Unlock()

		re, err := Open(Options{Dir: snap, MaxBytes: 32 << 10, SegmentBytes: 4 << 10})
		if err != nil {
			failed.Store(true)
			t.Errorf("crash point %d: reopen: %v", points, err)
			return
		}
		for i := 0; i < crashKeys; i++ {
			key := crashKey(i)
			got, _, ok := re.Get(key)
			if !ok {
				continue
			}
			if want, live := acked[key]; live && string(got) == want {
				continue
			}
			if pending && key == pendKey && pendVal != "" && string(got) == pendVal {
				continue
			}
			failed.Store(true)
			t.Errorf("crash point %d: %s reads back %.24q; the calls so far say %.24q (in progress: %v %s=%.24q)",
				points, key, got, acked[key], pending, pendKey, pendVal)
		}
		re.Close()
		os.RemoveAll(snap)
	}

	s, err := Open(Options{Dir: dir, MaxBytes: 32 << 10, SegmentBytes: 4 << 10, FS: newHookFS(crash)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(seed))
	begin := func(key, val string) {
		or.mu.Lock()
		or.pending, or.pendKey, or.pendVal = true, key, val
		or.mu.Unlock()
	}
	end := func() {
		or.mu.Lock()
		if or.pendVal == "" {
			delete(or.acked, or.pendKey)
		} else {
			or.acked[or.pendKey] = or.pendVal
		}
		or.pending = false
		or.mu.Unlock()
	}
	for op := 0; op < 400 && !failed.Load(); op++ {
		key := crashKey(rng.Intn(crashKeys))
		switch r := rng.Intn(100); {
		case r < 45:
			val := fmt.Sprintf("%s#%d#%s", key, op, bytes.Repeat([]byte{'v'}, 200+rng.Intn(500)))
			begin(key, val)
			if err := s.Put(key, []byte(val), 0); err != nil {
				t.Fatal(err)
			}
			end()
		case r < 60:
			begin(key, "")
			if _, err := s.Delete(key); err != nil {
				t.Fatal(err)
			}
			end()
		default:
			// A read sets the access bit, so reclamation reinserts the record.
			if got, _, ok := s.Get(key); ok {
				or.mu.Lock()
				want := or.acked[key]
				or.mu.Unlock()
				if string(got) != want {
					t.Fatalf("op %d: live store reads %s = %.24q, want %.24q", op, key, got, want)
				}
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reclaims == 0 || st.ReclaimKept == 0 || points < 100 {
		t.Fatalf("the sequence did not exercise the store: %d crash points, %+v", points, st)
	}
}

const crashKeys = 40

func crashKey(i int) string { return fmt.Sprintf("key-%02d", i) }

func copyDir(t *testing.T, from, to string) {
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Error(err)
		return
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Error(err)
		return
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(to, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Error(err)
		}
	}
}

// TestReadYourDemotion: a record is readable from the moment Put returns,
// wherever its bytes are — staged, in flight to the file behind a slow
// disk, across the seal of its segment — and a record that reads keep hot
// stays readable through every reclamation of the segment it is in.
func TestReadYourDemotion(t *testing.T) {
	s, inj := openInjected(t, 1)
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 400+i%200) }

	// Staged: served from memory, without a read.
	reads := inj.Count(faultfs.OpRead)
	if err := s.Put("first", val(0), 0); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s.Get("first"); !ok || !bytes.Equal(got, val(0)) {
		t.Fatalf("staged record: Get = %d bytes, %v", len(got), ok)
	}
	if got := inj.Count(faultfs.OpRead); got != reads {
		t.Fatalf("a staged record cost %d reads", got-reads)
	}

	if err := s.Put("hot", val(1), 0); err != nil {
		t.Fatal(err)
	}
	// 64 KiB budget, 4 KiB segments: 400 records of ~500 bytes roll ~50
	// segments and reclaim ~35. A slow disk keeps chunks in flight while the
	// reads arrive.
	inj.SetLatency(faultfs.OpWrite, 200*time.Microsecond)
	for i := 2; i < 400; i++ {
		key := fmt.Sprintf("k-%d", i)
		if err := s.Put(key, val(i), 0); err != nil {
			t.Fatal(err)
		}
		// Every fourth: a read marks the record for reinsertion, and a store
		// in which everything is hot has no room for what is new.
		if i%4 == 0 {
			if got, _, ok := s.Get(key); !ok || !bytes.Equal(got, val(i)) {
				t.Fatalf("Get(%s) right after its Put = %d bytes, %v", key, len(got), ok)
			}
		}
		if got, _, ok := s.Get("hot"); !ok || !bytes.Equal(got, val(1)) {
			t.Fatalf("hot record lost at put %d (%d bytes, %v); stats %+v", i, len(got), ok, s.Stats())
		}
	}
	if st := s.Stats(); st.Reclaims < 10 || st.ReclaimKept < 10 {
		t.Fatalf("expected many reclamations carrying the hot record: %+v", st)
	}
}

// TestSyncIsTheBarrier: after Sync nothing is staged and nothing is owed —
// the files hold exactly DiskUsed bytes, there are exactly Segments of
// them, and a directory copied at that moment recovers every live record.
func TestSyncIsTheBarrier(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 64<<10, 4<<10)
	defer s.Close()
	want := map[string][]byte{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%03d", i)
		val := bytes.Repeat([]byte{byte(i)}, 300+i%100)
		if err := s.Put(key, val, 0); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, files := s.DiskUsed(), filesBytes(t, dir); got != files {
		t.Fatalf("after Sync DiskUsed = %d, the files hold %d", got, files)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(names) != s.Segments() {
		t.Fatalf("after Sync %d segment files, Segments() = %d", len(names), s.Segments())
	}
	snap := t.TempDir()
	copyDir(t, dir, snap)
	re := openTest(t, snap, 64<<10, 4<<10)
	defer re.Close()
	if re.Len() != s.Len() {
		t.Fatalf("a copy taken after Sync recovers %d records, the store holds %d", re.Len(), s.Len())
	}
	for key, val := range want {
		if !s.Contains(key) {
			continue // reclaimed
		}
		if got, _, ok := re.Get(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("%s missing from the copy taken after Sync", key)
		}
	}
}

// TestReclaimFaultLeaksNothing fails the disk's writes from the N-th on,
// for every N a run of reclaiming Puts can reach, so that the failure
// lands before, inside and after a reclamation's reinsertions. Whatever
// the calls returned, once the disk is back and Sync has passed, the
// store's accounting, the open files and the directory must agree, and a
// reopen must find exactly the records the store still claims.
func TestReclaimFaultLeaksNothing(t *testing.T) {
	for nth := uint64(1); nth <= 40; nth += 3 {
		nth := nth
		t.Run(fmt.Sprintf("write=%d", nth), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.New(faultfs.OS(), 1)
			hook := newHookFS(func() {})
			hook.FS = inj
			opts := Options{Dir: dir, MaxBytes: 32 << 10, SegmentBytes: 4 << 10, FS: hook}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			val := bytes.Repeat([]byte("v"), 700)
			var keys []string // every key Put, whatever it returned
			put := func(key string) error {
				keys = append(keys, key)
				return s.Put(key, val, 0)
			}
			hot := func() {
				for h := 0; h < 8; h++ {
					s.Get(fmt.Sprintf("hot-%d", h))
				}
			}
			for h := 0; h < 8; h++ {
				if err := put(fmt.Sprintf("hot-%d", h)); err != nil {
					t.Fatal(err)
				}
			}
			inj.FailAfter(faultfs.OpWrite, nth)
			failures := 0
			for i := 0; i < 150; i++ {
				hot() // keep them reinserted by every reclamation
				if err := put(fmt.Sprintf("cold-%d", i)); err != nil {
					failures++
				}
				if i%10 == 9 {
					// An overwrite is written through: with the disk dead it fails.
					if err := put("hot-0"); err != nil {
						failures++
					}
				}
			}
			if failures == 0 {
				t.Fatal("the dead disk never surfaced")
			}
			inj.Clear()
			if err := put("healer"); err != nil {
				t.Fatalf("Put after the faults lifted: %v", err)
			}
			for i := 0; i < 60; i++ { // and on through more reclamations
				hot()
				if err := put(fmt.Sprintf("after-%d", i)); err != nil {
					t.Fatalf("Put %d after recovery: %v", i, err)
				}
			}
			if err := s.Sync(); err != nil {
				t.Fatalf("Sync after recovery: %v", err)
			}
			names, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
			if len(names) != s.Segments() {
				t.Fatalf("%d segment files on disk, Segments() = %d", len(names), s.Segments())
			}
			if open := hook.open.Load(); open != int64(s.Segments()) {
				t.Fatalf("%d files open, Segments() = %d", open, s.Segments())
			}
			if used := s.DiskUsed(); used > opts.MaxBytes+opts.SegmentBytes+1024 {
				t.Fatalf("DiskUsed = %d past the %d budget", used, opts.MaxBytes)
			}
			// Failed writes may have left torn bytes beyond a segment's
			// logical end, never fewer bytes than it claims.
			if used, files := s.DiskUsed(), filesBytes(t, dir); files < used {
				t.Fatalf("DiskUsed = %d but the files hold only %d", used, files)
			}
			live := map[string]bool{} // the keys the store claims
			for _, key := range keys {
				if s.Contains(key) {
					live[key] = true
				}
			}
			if s.Len() != len(live) { // and the index holds nothing else
				t.Fatalf("index holds %d records, the keys put claim %d", s.Len(), len(live))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if open := hook.open.Load(); open != 0 {
				t.Fatalf("%d files open after Close", open)
			}
			os.Remove(filepath.Join(dir, manifestName)) // force the scan
			re, err := Open(Options{Dir: dir, MaxBytes: opts.MaxBytes, SegmentBytes: opts.SegmentBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != len(live) {
				t.Fatalf("reopen finds %d records, the store claimed %d", re.Len(), len(live))
			}
			for key := range live {
				if got, _, ok := re.Get(key); !ok || !bytes.Equal(got, val) {
					t.Fatalf("reopen: %s = %d bytes, %v", key, len(got), ok)
				}
			}
		})
	}
}

// TestStressStagedStore hammers Put, Get, Delete and Contains from many
// goroutines across hundreds of seals and reclamations; make race runs it
// under the race detector. Each goroutine owns a slice of the keys and
// checks its own reads exactly; reads of other goroutines' keys check that
// a value belongs to its key.
func TestStressStagedStore(t *testing.T) {
	s := openTest(t, t.TempDir(), 256<<10, 16<<10)
	defer s.Close()
	const workers, keysEach, ops = 8, 40, 2500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			mine := make(map[string][]byte)
			for i := 0; i < ops; i++ {
				owner := g
				if rng.Intn(4) == 0 {
					owner = rng.Intn(workers)
				}
				key := fmt.Sprintf("w%d-key-%d", owner, rng.Intn(keysEach))
				switch op := rng.Intn(10); {
				case owner != g || op < 4:
					got, _, ok := s.Get(key)
					if ok && !bytes.HasPrefix(got, []byte(key+"#")) {
						t.Errorf("Get(%s) returned another key's value %.30q", key, got)
						return
					}
					if owner == g && ok && !bytes.Equal(got, mine[key]) {
						t.Errorf("Get(%s) = %.30q, want the latest Put %.30q", key, got, mine[key])
						return
					}
				case op < 8:
					val := append([]byte(fmt.Sprintf("%s#%d#", key, i)), make([]byte, 200+rng.Intn(1500))...)
					if err := s.Put(key, val, 0); err != nil {
						t.Error(err)
						return
					}
					mine[key] = val
				case op < 9:
					if _, err := s.Delete(key); err != nil {
						t.Error(err)
						return
					}
					delete(mine, key)
				default:
					if s.Contains(key) && mine[key] == nil {
						t.Errorf("Contains(%s) after its Delete", key)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Reclaims < 20 {
		t.Fatalf("expected many reclamations, got %+v", st)
	}
	if used := s.DiskUsed(); used > 256<<10+18<<10 {
		t.Fatalf("disk used %d exceeds budget", used)
	}
}

// TestAllocGateFlash is the tier's allocation budget, run by make
// bench-allocs: amortised over seals and reclamations, Put and Delete
// allocate nothing and Get only the value it returns, on every read of a
// record (the index keeps no key, so bumping a record's access counter
// copies none).
func TestAllocGateFlash(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	s := openTest(t, t.TempDir(), 4<<20, 256<<10)
	defer s.Close()
	const n = 4000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	val := make([]byte, 1024)
	// Warm up: the index and the reclamation window reach their size.
	// The budget holds about 4000 records, so this reclaims, and every
	// later Put of these keys finds most of them live and a few reclaimed.
	for round := 0; round < 2; round++ {
		for _, k := range keys {
			if err := s.Put(k, val, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// AllocsPerRun calls fn once to warm up and then runs times; from start
	// it walks the keys upwards.
	gate := func(name string, want float64, start, runs int, fn func(key string)) {
		t.Helper()
		i := start
		if got := testing.AllocsPerRun(runs, func() { fn(keys[i]); i++ }); got != want {
			t.Errorf("%s: %v allocs/op, want %v", name, got, want)
		}
	}
	gate("Put", 0, 0, n-1, func(k string) { s.Put(k, val, 0) })
	// The newest thousand are all still there: every Get hits, every Delete
	// writes its tombstone. A record's first three reads bump its access
	// counter, the fourth finds it capped; each allocates the value it
	// returns and no more.
	get := func(k string) {
		if _, _, ok := s.Get(k); !ok {
			t.Errorf("Get(%s) missed", k)
		}
	}
	for read := 1; read <= 4; read++ {
		gate(fmt.Sprintf("Get, read %d of a record", read), 1, n-1000, 999, get)
	}
	gate("Delete", 0, n-1000, 999, func(k string) {
		if existed, err := s.Delete(k); !existed || err != nil {
			t.Errorf("Delete(%s) = %v, %v", k, existed, err)
		}
	})
	if st := s.Stats(); st.Reclaims == 0 {
		t.Fatalf("the gate did not exercise reclamation: %+v", st)
	}
}
