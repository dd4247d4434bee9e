package main

import (
	"time"
)

// vclient is one virtual client: a substream, the keys it owns, what it
// knows about each of them, and its counts. It is synchronous (one op in
// flight), which is what makes its keyState exact.
type vclient struct {
	w   *workload
	s   *stream
	idx int
	ops []op
	pos int // ops issued so far; pos/len(ops) is the lap

	state []keyState // of the recurring keys, by local index

	// fresh makes every SET allocate its value: a cache in this process
	// keeps the slice it is given, the network client copies it into a frame.
	fresh   bool
	scratch []byte

	done      uint64 // ops completed (a fill belongs to its GET)
	gets      uint64
	misses    uint64
	sets      uint64
	userBytes uint64
	fail      failures
}

// newVClients makes the workload's clients. fresh says the store under
// them keeps the value slices it is handed.
func newVClients(w *workload, s *stream, fresh bool) []*vclient {
	out := make([]*vclient, w.clients)
	for c := range out {
		out[c] = &vclient{
			w: w, s: s, idx: c, ops: s.clients[c],
			state:   make([]keyState, s.bounded),
			fresh:   fresh,
			scratch: make([]byte, maxValueLen),
		}
	}
	return out
}

// lats holds exact latency samples in preallocated slices; a sample that
// does not fit is counted, never silently lost.
type lats struct {
	get, set []int64
	dropped  uint64
}

func newLats(capacity int) *lats {
	return &lats{get: make([]int64, 0, capacity), set: make([]int64, 0, capacity)}
}

func (l *lats) add(dst *[]int64, d int64) {
	if len(*dst) < cap(*dst) {
		*dst = append(*dst, d)
	} else {
		l.dropped++
	}
}

func nowNano() int64 { return time.Now().UnixNano() }

// next takes the client's next op and resolves its key; unique ids have no
// state (st is nil).
func (c *vclient) next() (o op, key string, hash uint64, st *keyState) {
	o = c.ops[c.pos%len(c.ops)]
	lap := uint64(c.pos / len(c.ops))
	c.pos++
	key, hash, recurring := c.s.key(c.idx, o.local(), lap)
	if recurring {
		st = &c.state[o.local()]
	}
	return o, key, hash, st
}

// value renders the key's next version.
func (c *vclient) value(hash uint64, st *keyState) (version uint32, v []byte) {
	version = 1
	if st != nil {
		version = st.version + 1
	}
	n := c.w.valueLen(hash)
	buf := c.scratch
	if c.fresh {
		buf = make([]byte, n)
	}
	return version, putValue(buf, hash, version, n)
}

// ackSet records the outcome of storing version (n bytes, ttl seconds).
func (c *vclient) ackSet(st *keyState, version uint32, n int, ttl uint32, stored bool, err error) {
	c.sets++
	c.userBytes += uint64(n)
	switch {
	case err != nil:
		c.fail.errors++
	case !stored:
		c.fail.notStored++
	}
	if st == nil {
		return
	}
	if err != nil || !stored {
		// Unknown outcome: the old value may or may not have survived, and
		// either is legal only until the next acknowledged write. Treat the
		// key as never stored by forcing a version no payload carries.
		*st = keyState{version: st.version + 1, deleted: true}
		return
	}
	*st = keyState{version: version}
	if ttl > 0 {
		st.expireAt = nowNano() + int64(ttl)*int64(time.Second)
	}
}

// ackGet judges a GET's reply (sent is when it was issued) and reports
// whether it was a clean miss.
func (c *vclient) ackGet(st *keyState, hash uint64, v []byte, hit bool, err error, sent int64) (miss bool) {
	c.gets++
	switch {
	case err != nil:
		c.fail.errors++
	case hit:
		c.fail.checkHit(st, hash, v, sent)
	default:
		c.misses++
		return true
	}
	return false
}

// ackDelete records a DELETE's outcome. Only recurring keys are deleted.
func (c *vclient) ackDelete(st *keyState, err error) {
	if err != nil {
		c.fail.errors++
		*st = keyState{version: st.version + 1, deleted: true}
		return
	}
	st.deleted = true
}

func (c *vclient) set(s store, key string, hash uint64, st *keyState, ttl uint32) {
	version, v := c.value(hash, st)
	stored, err := s.Set(key, v, time.Duration(ttl)*time.Second)
	c.ackSet(st, version, len(v), ttl, stored, err)
}

// step issues the client's next op. due is the op's scheduled send time in
// an open loop (latency is counted from it) and 0 in a closed loop, where
// l, if non-nil, takes a 1-in-64 sample of call durations.
func (c *vclient) step(s store, due int64, l *lats) {
	o, key, hash, st := c.next()
	timed := l != nil && (due != 0 || c.pos&63 == 0)
	var t0 int64
	if timed || (st != nil && st.expireAt != 0) {
		t0 = nowNano()
	}
	from := t0
	if due != 0 {
		from = due
	}
	switch o.kind() {
	case opGet, opGetFill:
		v, hit, err := s.Get(key)
		if timed {
			l.add(&l.get, nowNano()-from)
		}
		if c.ackGet(st, hash, v, hit, err, t0) && o.kind() == opGetFill {
			if timed {
				from = nowNano()
			}
			c.set(s, key, hash, st, 0)
			if timed {
				l.add(&l.set, nowNano()-from)
			}
		}
	case opSet, opSetTTL:
		c.set(s, key, hash, st, o.ttl())
		if timed {
			l.add(&l.set, nowNano()-from)
		}
	case opDelete:
		_, err := s.Delete(key)
		c.ackDelete(st, err)
	}
	c.done++
}

// populate stores the client's hottest keys once, coldest first, so the
// hottest are the most recently written when warming starts.
func (c *vclient) populate(s store) {
	for l := c.w.populate - 1; l >= 0; l-- {
		c.set(s, c.s.keys[c.idx][l], c.s.hashes[c.idx][l], &c.state[l], 0)
	}
}

// counts is a snapshot of what a set of clients has done.
type counts struct {
	done, gets, misses, sets, userBytes uint64
	fail                                failures
}

func snapshot(cs []*vclient) counts {
	var t counts
	for _, c := range cs {
		t.add(counts{c.done, c.gets, c.misses, c.sets, c.userBytes, c.fail})
	}
	return t
}

func (a *counts) add(b counts) {
	a.done += b.done
	a.gets += b.gets
	a.misses += b.misses
	a.sets += b.sets
	a.userBytes += b.userBytes
	a.fail.add(b.fail)
}

func (a counts) sub(b counts) counts {
	a.done -= b.done
	a.gets -= b.gets
	a.misses -= b.misses
	a.sets -= b.sets
	a.userBytes -= b.userBytes
	a.fail.errors -= b.fail.errors
	a.fail.integrity -= b.fail.integrity
	a.fail.lies -= b.fail.lies
	a.fail.notStored -= b.fail.notStored
	return a
}
