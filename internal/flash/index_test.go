package flash

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"s3fifo/internal/proto"
)

// TestIndexMatchesMap drives the open-addressed index and a Go map with the
// same random puts and deletes over a hash space small enough that probe
// runs wrap and overlap, and checks after every step that the two agree
// and that the table stays between 1/8 and 3/4 full.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, model := newIndex(), map[uint64]rec{}
	for step := 0; step < 200000; step++ {
		// Phases of growth and of shrinkage, so both resizes run often.
		h := uint64(rng.Intn(3000)) * 0x9E3779B97F4A7C15
		if step/20000%2 == 0 && rng.Intn(3) > 0 || step/20000%2 == 1 && rng.Intn(3) == 0 {
			r := rec{seg: uint64(step), klen: uint16(1 + rng.Intn(9)), vlen: uint32(step)}
			old, had := x.put(h, r)
			if want, ok := model[h]; had != ok || old != want {
				t.Fatalf("step %d: put(%x) replaced %+v %v, want %+v %v", step, h, old, had, want, ok)
			}
			model[h] = r
		} else {
			old, had := x.del(h)
			if want, ok := model[h]; had != ok || old != want {
				t.Fatalf("step %d: del(%x) = %+v %v, want %+v %v", step, h, old, had, want, ok)
			}
			delete(model, h)
		}
		if x.n != len(model) {
			t.Fatalf("step %d: n = %d, map has %d", step, x.n, len(model))
		}
		if x.n*4 > len(x.slots)*3 || len(x.slots) > 8 && x.n*8 < len(x.slots) {
			t.Fatalf("step %d: %d entries in %d slots", step, x.n, len(x.slots))
		}
		if step%1000 == 0 {
			for h, want := range model {
				if got := x.get(h); got == nil || *got != want {
					t.Fatalf("step %d: get(%x) = %v, want %+v", step, h, got, want)
				}
			}
		}
	}
}

// TestCollisionsForgetNeverLie maps every key to one hash, then to eight,
// and drives Put, Get, Contains and Delete through many reclamations
// before reopening the store by manifest and by full scan. A key sharing
// its hash with another may be forgotten, by any of them; a Get that hits
// must still return that key's own latest value, everywhere.
func TestCollisionsForgetNeverLie(t *testing.T) {
	for _, mask := range []uint64{0, 7} {
		t.Run(fmt.Sprintf("mask=%d", mask), func(t *testing.T) {
			defer func(m uint64) { keyMask = m }(keyMask)
			keyMask = mask
			dir := t.TempDir()
			s := openTest(t, dir, 64<<10, 16<<10)
			const keys = 120 // "k0".."k119": lengths 2 and 3 collide, and don't
			latest := map[string][]byte{}
			hits := 0
			check := func(s *Store, when string) {
				t.Helper()
				for i := 0; i < keys; i++ {
					k := fmt.Sprintf("k%d", i)
					if got, _, ok := s.Get(k); ok {
						hits++
						if !bytes.Equal(got, latest[k]) {
							t.Fatalf("%s: Get(%s) = %.20q, want %.20q", when, k, got, latest[k])
						}
					}
				}
				if max := int(mask) + 1; s.Len() > max {
					t.Fatalf("%s: %d records indexed under %d hashes", when, s.Len(), max)
				}
			}
			rng := rand.New(rand.NewSource(int64(mask)))
			for op := 0; op < 4000; op++ {
				k := fmt.Sprintf("k%d", rng.Intn(keys))
				switch n := rng.Intn(10); {
				case n < 4:
					if got, _, ok := s.Get(k); ok {
						hits++
						if !bytes.Equal(got, latest[k]) {
							t.Fatalf("op %d: Get(%s) = %.20q, want %.20q", op, k, got, latest[k])
						}
					}
				case n < 8:
					val := append([]byte(fmt.Sprintf("%s#%d#", k, op)), make([]byte, 200+rng.Intn(1500))...)
					if err := s.Put(k, val, 0); err != nil {
						t.Fatal(err)
					}
					latest[k] = val
				case n < 9:
					if _, err := s.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(latest, k)
				default:
					// Contains reads no record, so a twin may make it say yes;
					// a no must mean a miss.
					if !s.Contains(k) {
						if _, _, ok := s.Get(k); ok {
							t.Fatalf("op %d: Contains(%s) is false but Get hits", op, k)
						}
					}
				}
			}
			if st := s.Stats(); st.Reclaims < 20 || mask > 0 && st.ReclaimKept == 0 {
				t.Fatalf("too little reclamation: %+v", st)
			}
			check(s, "live")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openTest(t, dir, 64<<10, 16<<10)
			if !s.Stats().ManifestRecovered {
				t.Fatal("the reopen did not use the manifest")
			}
			check(s, "manifest")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			os.Remove(filepath.Join(dir, manifestName))
			s = openTest(t, dir, 64<<10, 16<<10)
			defer s.Close()
			check(s, "scan")
			if hits == 0 {
				t.Fatal("no Get ever hit: the test proves nothing")
			}
		})
	}
}

// TestFlashHeapPerRecord bounds the live heap the store holds per indexed
// record, once reclamation is its steady state: a 64 MiB store of 1-2 KiB
// values churned through 100 reclamations, a quarter of the operations
// reads of recent keys, so reinsertion runs too. `make bench-heap` runs it.
func TestFlashHeapPerRecord(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("the race detector's shadow memory is not the store's heap")
	}
	// It measures 103-104 B from run to run: 65 B of 40-byte slots in a
	// table 62 % full, 39 B of staging buffers and reclamation window spread
	// over the 40,495 records. An index keyed by a copy of each key, with a
	// reclamation buffer a segment long, reads 353 B; a Go map keyed by the
	// hash reads 195 B here and 263 B after 16 times the churn, as it never
	// shrinks (EXPERIMENTS.md, "Table or Go map").
	const maxBytesPerRecord = 150
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	s := openTest(t, t.TempDir(), 64<<20, 0)
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 2048)
	key := func(i int) string { return fmt.Sprintf("key-%08d", i) }
	for i := 0; s.Stats().Reclaims < 100; i++ {
		if err := s.Put(key(i), val[:1024+rng.Intn(1025)], 0); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			s.Get(key(i - rng.Intn(min(i, 40000))))
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	n, held := s.Len(), float64(after.HeapAlloc)-float64(before.HeapAlloc)
	t.Logf("%d records indexed after %d reclamations, %.0f B of live heap per record",
		n, s.Stats().Reclaims, held/float64(n))
	if n < 20000 {
		t.Fatalf("only %d records indexed: the store did not fill", n)
	}
	if held/float64(n) > maxBytesPerRecord {
		t.Fatalf("%.0f B of live heap per record, gate is %d", held/float64(n), maxBytesPerRecord)
	}
	runtime.KeepAlive(s)
}
