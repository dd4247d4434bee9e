package concurrent

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"s3fifo/internal/core"
	"s3fifo/internal/policy"
)

// algorithm1 drives the machine and core.S3FIFO (Algorithm 1 verbatim)
// side by side: the machine at one shard, one unit per object, and with
// the batching that is not Algorithm 1 switched off by its tuning:
//
//   - watermark slack 0, so each insert into a full shard evicts exactly
//     one object, as Algorithm 1 does;
//   - the ghost fixed at one size in both (fixedGhost, core's
//     FixedGhost). The served machine sizes G to M's live length, at the
//     end of an eviction batch and only after a drift of 1/8, where core
//     sizes it to max(|M|, |index|) after every eviction from S; that is a
//     named deviation, pinned by TestGhostTracksLiveMain.
//
// The 2³¹ ghost scrub is no difference: both sides use internal/ghost.
// Two overwrite rules are modelled rather than switched off, because the
// machine's rule is a delete followed by an insert: an overwrite with a
// value of another length, and any overwrite with an eviction hook
// installed, re-enters the key at frequency 0.
//
// After every operation check compares the resident set, queue membership
// and FIFO order, frequencies, the ghost's fingerprints, the live
// accounting and, with a hook, the eviction sequence.
type algorithm1 struct {
	t       *testing.T
	m       *machine[uint64]
	ref     *core.S3FIFO
	clock   int64
	hooked  bool
	version byte
	vals    map[uint64][]byte
	exps    map[uint64]int64
	// gotEv and wantEv are the evictions each side reported, as "key/freq".
	gotEv, wantEv []string
}

func newAlgorithm1(t *testing.T, capacity, ghostEntries int, hooked bool) *algorithm1 {
	a := &algorithm1{t: t, hooked: hooked, vals: map[uint64][]byte{}, exps: map[uint64]int64{}}
	a.m = &machine[uint64]{}
	a.m.init(uint64(capacity), 1, 1, func(uint64) shardTuning {
		return shardTuning{ghostEntries: ghostEntries, fixedGhost: true}
	})
	a.m.now = func() int64 { return a.clock }
	a.ref = core.NewS3FIFO(uint64(capacity), core.Options{GhostEntries: ghostEntries, FixedGhost: true})
	if hooked {
		a.m.onEvict = func(key uint64, _ []byte, _ uint32, freq int, _ int64) {
			a.gotEv = append(a.gotEv, fmt.Sprintf("%d/%d", key, freq))
		}
		a.ref.SetObserver(func(ev policy.Eviction) {
			a.wantEv = append(a.wantEv, fmt.Sprintf("%d/%d", ev.Key, ev.Freq))
		})
	}
	return a
}

// resident reports whether Algorithm 1 holds key unexpired, reaping it
// (Delete) when its TTL has passed, as the machine's lookups do.
func (a *algorithm1) resident(key uint64) bool {
	if !a.ref.Contains(key) {
		return false
	}
	if exp := a.exps[key]; exp != 0 && a.clock > exp {
		a.forget(key)
		return false
	}
	return true
}

func (a *algorithm1) forget(key uint64) {
	a.ref.Delete(key)
	delete(a.vals, key)
	delete(a.exps, key)
}

func (a *algorithm1) value(n int) []byte {
	a.version++
	return bytes.Repeat([]byte{a.version}, n)
}

func (a *algorithm1) get(key uint64) string {
	v, ok := a.m.get(key, key)
	want := a.resident(key)
	if want {
		a.ref.Request(key, 1)
	}
	if ok != want || ok && !bytes.Equal(v, a.vals[key]) {
		return fmt.Sprintf("get(%d) = %v, %v; Algorithm 1 holds it: %v, value %v", key, v, ok, want, a.vals[key])
	}
	return ""
}

func (a *algorithm1) contains(key uint64) string {
	if got, want := a.m.contains(key, key), a.resident(key); got != want {
		return fmt.Sprintf("contains(%d) = %v, want %v", key, got, want)
	}
	return ""
}

// set stores without reaping: an expired entry not yet reaped is
// overwritten like a live one, on both sides.
func (a *algorithm1) set(key uint64, vlen int, expiresAt int64) string {
	v := a.value(vlen)
	if !a.m.set(key, key, v, 1, expiresAt) {
		return fmt.Sprintf("set(%d) refused", key)
	}
	if a.ref.Contains(key) {
		if a.hooked || len(a.vals[key]) != vlen {
			a.ref.Delete(key)
			a.ref.Request(key, 1)
		}
	} else {
		a.ref.Request(key, 1)
	}
	a.vals[key], a.exps[key] = v, expiresAt
	return ""
}

func (a *algorithm1) add(key uint64) string {
	v := a.value(1)
	got, want := a.m.add(key, key, v, 1, 0), !a.ref.Contains(key)
	if want {
		a.ref.Request(key, 1)
		a.vals[key], a.exps[key] = v, 0
	}
	if got != want {
		return fmt.Sprintf("add(%d) = %v, want %v", key, got, want)
	}
	return ""
}

func (a *algorithm1) del(key uint64) string {
	got, want := a.m.del(key, key), a.resident(key)
	if want {
		a.forget(key)
	}
	if got != want {
		return fmt.Sprintf("delete(%d) = %v, want %v", key, got, want)
	}
	return ""
}

type queued struct {
	key  uint64
	freq int
	main bool
}

// check compares every piece of state a decision can read.
func (a *algorithm1) check() string {
	var want, got []queued
	a.ref.EachQueued(func(key uint64, freq int, inMain bool) {
		want = append(want, queued{key, freq, inMain})
	})
	s := a.m.shards[0]
	for q, r := range []*ring[uint64]{&s.small, &s.main} {
		q := uint32(q)
		var wrongTag *entry[uint64]
		r.each(func(e *entry[uint64]) bool {
			st := e.state.Load()
			if st&^dead != q && wrongTag == nil {
				wrongTag = e
			}
			if st&dead == 0 {
				got = append(got, queued{e.key, int(e.freq.Load()), q == inMain})
			}
			return true
		})
		if wrongTag != nil {
			return fmt.Sprintf("key %d queued in %d carries state %d", wrongTag.key, q, wrongTag.state.Load())
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("queues (S then M, oldest first):\n got  %v\n want %v", got, want)
	}
	indexed := 0
	var stray string
	a.m.index.forEach(func(e *entry[uint64]) bool {
		indexed++
		if e.isDead() || !a.ref.Contains(e.key) {
			stray = fmt.Sprintf("index maps %d (dead %v), Algorithm 1 does not hold it", e.key, e.isDead())
		}
		return stray == ""
	})
	if stray != "" {
		return stray
	}
	if indexed != a.ref.Len() || a.m.Len() != a.ref.Len() || a.m.Used() != a.ref.Used() {
		return fmt.Sprintf("index %d, Len %d, Used %d; Algorithm 1 holds %d", indexed, a.m.Len(), a.m.Used(), a.ref.Len())
	}
	sb, _ := s.held(inSmall)
	if _, ml := s.held(inMain); sb != a.ref.SmallBytes() || ml != a.ref.MainLen() {
		return fmt.Sprintf("live S bytes %d, live M length %d; Algorithm 1: %d, %d", sb, ml, a.ref.SmallBytes(), a.ref.MainLen())
	}
	var gotG, wantG []uint32
	s.ghost.Export(func(fp uint32) bool { gotG = append(gotG, fp); return true })
	a.ref.Ghost().Export(func(fp uint32) bool { wantG = append(wantG, fp); return true })
	if !slices.Equal(gotG, wantG) {
		return fmt.Sprintf("ghost fingerprints (oldest first):\n got  %v\n want %v", gotG, wantG)
	}
	if !slices.Equal(a.gotEv, a.wantEv) {
		return fmt.Sprintf("evictions:\n got  %v\n want %v", a.gotEv, a.wantEv)
	}
	return ""
}

// runAlgorithm1 decodes ops and runs them on both sides. The first three
// bytes pick the capacity, the ghost's size, the eviction hook and the
// sweep's timing; then each operation is two bytes, an opcode (its high
// bits a parameter) and a key from a space a few times the capacity.
func runAlgorithm1(t *testing.T, ops []byte) {
	if len(ops) < 3 {
		return
	}
	capacity, ghostEntries := 1+int(ops[0]%80), 1+int(ops[1]%128)
	a := newAlgorithm1(t, capacity, ghostEntries, ops[2]&1 != 0)
	defer func(due func(int64, int64) bool) { sweepDue = due }(sweepDue)
	switch ops[2] >> 1 & 3 {
	case 2:
		sweepDue = func(dead, _ int64) bool { return dead > 0 }
	case 3:
		sweepDue = func(int64, int64) bool { return false }
	}
	keys := uint64(3*capacity + 2)
	for i := 3; i+1 < len(ops); i += 2 {
		op, arg, key := ops[i]&7, int64(ops[i]>>3), uint64(ops[i+1])%keys
		var msg string
		switch op {
		case 0, 1:
			msg = a.get(key)
		case 2: // look-aside: a miss is filled
			if msg = a.get(key); msg == "" && !a.ref.Contains(key) {
				msg = a.set(key, 1, 0)
			}
		case 3:
			msg = a.set(key, 1+int(arg&1), 0)
		case 4:
			msg = a.set(key, 1, a.clock+1+arg%8)
		case 5:
			msg = a.del(key)
		case 6:
			if arg&1 == 0 {
				msg = a.add(key)
			} else {
				msg = a.contains(key)
			}
		case 7:
			a.clock += 1 + arg%8
		}
		if msg == "" {
			msg = a.check()
		}
		if msg != "" {
			t.Fatalf("capacity %d, ghost %d, hooked %v, sweep mode %d; op %d (%d on key %d): %s",
				capacity, ghostEntries, a.hooked, ops[2]>>1&3, (i-3)/2, op, key, msg)
		}
	}
}

// algorithm1Seed is a random operation stream over keys drawn with an
// exponential skew, so that some keys are hot enough to reach M, where
// half the deletes hit one of the last few keys written, which S still
// holds; withDeletes false takes every delete out of it.
func algorithm1Seed(seed int64, n int, withDeletes bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	capacity := 8 + rng.Intn(72)
	b := []byte{byte(capacity - 1), byte(rng.Intn(128)), byte(rng.Intn(8))}
	var recent [4]byte
	for i := 0; i < n; i++ {
		op, key := byte(rng.Intn(256)), byte(min(rng.ExpFloat64()*float64(capacity), 255))
		switch op & 7 {
		case 3, 4:
			recent[i%4] = key
		case 5:
			if !withDeletes {
				op &^= 7 // a get instead
			} else if rng.Intn(2) == 0 {
				key = recent[rng.Intn(4)]
			}
		}
		b = append(b, op, key)
	}
	return b
}

// FuzzMachineMatchesAlgorithm1 is the exact differential: the machine
// must make Algorithm 1's decisions, one for one, under any sequence of
// gets, sets, adds, deletes, TTL expiries and sweep timings. The ±0.5 pp
// and ±1 pp hit-ratio checks in sim_crosscheck_test.go remain for more
// than one shard, where the queues are split and exact agreement is not
// expected.
func FuzzMachineMatchesAlgorithm1(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(algorithm1Seed(seed, 2000, seed%4 != 0))
	}
	f.Fuzz(runAlgorithm1)
}
