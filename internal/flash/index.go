package flash

import "s3fifo/internal/sketch"

// keyMask narrows every key hash; tests shrink it to force collisions.
var keyMask = ^uint64(0)

// keyHash is what the index keys a record by: FNV-1a through the shared
// mixer. The key itself is kept only in the record, on disk or staged.
func keyHash[K string | []byte](key K) uint64 {
	return sketch.Hash(sketch.FNV1a(key), 0x464C5348) & keyMask // seed "FLSH"
}

// slot is one index entry, empty while klen is 0 (no key is empty).
type slot struct {
	hash uint64
	rec
}

// index maps key hashes to records: an open-addressed table of plain
// values, so the collector has no pointer in it to follow and no key
// string is held. Probing is linear; a delete shifts the rest of its
// probe run back over the gap, so no tombstone is left and churn
// allocates nothing; the table doubles past 3/4 full and halves below 1/8.
type index struct {
	slots []slot // length a power of two, at least 8
	n     int
}

func newIndex() index { return index{slots: make([]slot, 8)} }

// find returns the position of h, or of the empty slot that ends its run.
func (x *index) find(h uint64) uint64 {
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if sl := &x.slots[i]; sl.klen == 0 || sl.hash == h {
			return i
		}
	}
}

// get returns h's record, or nil. The pointer is valid until the next
// put or del.
func (x *index) get(h uint64) *rec {
	if sl := &x.slots[x.find(h)]; sl.klen != 0 {
		return &sl.rec
	}
	return nil
}

// put maps h to r and returns the record that held h, if any.
func (x *index) put(h uint64, r rec) (old rec, had bool) {
	i := x.find(h)
	old, had = x.slots[i].rec, x.slots[i].klen != 0
	if !had {
		if x.n++; x.n*4 > len(x.slots)*3 {
			x.resize(2 * len(x.slots))
			i = x.find(h)
		}
	}
	x.slots[i] = slot{h, r}
	return old, had
}

// del unmaps h and returns its record, if it had one.
func (x *index) del(h uint64) (old rec, had bool) {
	gap := x.find(h)
	if old, had = x.slots[gap].rec, x.slots[gap].klen != 0; !had {
		return old, false
	}
	mask := uint64(len(x.slots) - 1)
	for j := (gap + 1) & mask; x.slots[j].klen != 0; j = (j + 1) & mask {
		// The slot at j may fill the gap only if the gap lies on its probe
		// run: it sits at least as far from home as from the gap.
		if (j-x.slots[j].hash)&mask >= (j-gap)&mask {
			x.slots[gap], gap = x.slots[j], j
		}
	}
	x.slots[gap] = slot{}
	if x.n--; x.n*8 < len(x.slots) && len(x.slots) > 8 {
		x.resize(len(x.slots) / 2)
	}
	return old, true
}

func (x *index) resize(n int) {
	old := x.slots
	x.slots = make([]slot, n)
	for _, sl := range old {
		if sl.klen != 0 {
			x.slots[x.find(sl.hash)] = sl
		}
	}
}
