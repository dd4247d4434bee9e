package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/cluster"
	"s3fifo/internal/concurrent"
	"s3fifo/internal/filetier"
	"s3fifo/internal/flash"
	"s3fifo/internal/hashring"
	"s3fifo/internal/proto"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
)

// The rungs of the layer ladder. Each replays the same seeded requests
// through one more of the repository's modules than the rung below, from
// one goroutine, calling only public functions, with a span around every
// call. A rung's cost per request is its spans added up over the requests
// replayed; its self time is that minus the rung below.

// Adapters from the store interface to the layers that are not one already.

// kvStore drives the engine on a logical clock that advances a fixed tick
// with every call, so which entries have expired when - and with it every
// count the engine keeps - depends on the requests alone. The tick is the
// pace of a server doing 200k requests a second; the replay itself is
// faster, so no value outlives its TTL in real time either.
type kvStore struct {
	kv  *concurrent.KV
	now *int64
}

const kvTick = int64(5 * time.Microsecond)

func newKVStore(maxBytes uint64) kvStore {
	now := new(int64)
	*now = nowNano()
	kv := concurrent.NewKV(concurrent.KVConfig{MaxBytes: maxBytes, Now: func() int64 { return *now }})
	return kvStore{kv, now}
}

func expiry(now int64, ttl time.Duration) int64 {
	if ttl <= 0 {
		return 0
	}
	return now + int64(ttl)
}

// tick advances the logical clock; a kvStore without one (several
// goroutines share it) is on the real clock.
func (s kvStore) tick() int64 {
	if s.now == nil {
		return nowNano()
	}
	*s.now += kvTick
	return *s.now
}

func (s kvStore) Get(key string) ([]byte, bool, error) {
	s.tick()
	v, ok := s.kv.Get(key)
	return v, ok, nil
}
func (s kvStore) Set(key string, v []byte, ttl time.Duration) (bool, error) {
	return s.kv.Set(key, v, expiry(s.tick(), ttl)), nil
}
func (s kvStore) Delete(key string) (bool, error) {
	s.tick()
	return s.kv.Delete(key), nil
}

type flashStore struct{ st *flash.Store }

func (s flashStore) Get(key string) ([]byte, bool, error) {
	v, _, ok := s.st.Get(key)
	return v, ok, nil
}
func (s flashStore) Set(key string, v []byte, ttl time.Duration) (bool, error) {
	err := s.st.Put(key, v, expiry(nowNano(), ttl))
	return err == nil, err
}
func (s flashStore) Delete(key string) (bool, error) { return s.st.Delete(key) }

type fileStore struct{ st *filetier.Store }

func (s fileStore) Get(key string) ([]byte, bool, error) {
	v, _, ok, err := s.st.Get(key)
	return v, ok, err
}
func (s fileStore) Set(key string, v []byte, ttl time.Duration) (bool, error) {
	err := s.st.Put(key, v, expiry(nowNano(), ttl))
	return err == nil, err
}
func (s fileStore) Delete(key string) (bool, error) { return s.st.Delete(key) }

// codaKeys is how many keys the coda touches.
const codaKeys = 2000

// replayer steps a workload's fresh clients round-robin through one store
// from one goroutine, a span around every call.
type replayer struct {
	vcs    []*vclient
	stores []*spanStore // one a client
	t      *tracer
	layer  layer
}

// newReplayer populates st as the timed run's set-up does, outside any
// span. fresh says st keeps the value slices it is handed.
func newReplayer(w *workload, s *stream, st store, has func(string) bool, t *tracer, l layer, fresh bool) *replayer {
	r := &replayer{vcs: newVClients(w, s, fresh), t: t, layer: l}
	for _, c := range r.vcs {
		c.populate(st)
		r.stores = append(r.stores, &spanStore{inner: st, has: has, t: t, layer: l, vc: c})
	}
	return r
}

// run replays the stream's first n requests and returns the clients'
// counts, the rung's cost per request (its spans added up, over n), and
// the generator's and checker's own cost per request: the part of the
// replay that was outside every span, less the clock reads.
func (r *replayer) run(n int) (done counts, perOp, loadgen float64) {
	before := snapshot(r.vcs)
	start := time.Now()
	for i := 0; i < n; i++ {
		k := i % len(r.vcs)
		r.vcs[k].step(r.stores[k], 0, nil)
	}
	wall := time.Since(start)
	spans, clock := r.t.total(r.layer)
	return snapshot(r.vcs).sub(before), spans / float64(n), (float64(wall) - spans - clock) / float64(n)
}

// coda plays a fixed round of every kind of call on client 0's hottest
// keys, so that a workload whose stream has no DELETE or no TTL still
// measures one. Read a rung's counters before it.
func (r *replayer) coda() {
	c, st, s := r.vcs[0], r.stores[0], r.vcs[0].s
	for k := 0; k < min(codaKeys, s.bounded); k++ {
		key, hash, state := s.keys[0][k], s.hashes[0][k], &c.state[k]
		c.set(st, key, hash, state, 9) // set_ttl
		v, hit, err := st.Get(key)     // get_hit
		c.ackGet(state, hash, v, hit, err, nowNano())
		c.set(st, key, hash, state, 0) // set_overwrite
		_, err = st.Delete(key)        // delete
		c.ackDelete(state, err)
		v, hit, err = st.Get(key) // get_miss
		c.ackGet(state, hash, v, hit, err, nowNano())
		c.set(st, key, hash, state, 0) // set_insert
	}
}

// failed is every failure the clients have seen: populating, replaying or
// in the coda.
func (r *replayer) failed() failures { return snapshot(r.vcs).fail }

// mallocs is how many heap objects fn allocates, in this whole process.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// heapLive is the bytes of live heap after a collection.
func heapLive() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// hotKeys returns up to n of the stream's hottest recurring keys with
// their hashes, taken evenly from every client (low local index = hot).
func hotKeys(s *stream, n int) (keys []string, hashes []uint64) {
	per := min(n/len(s.keys), s.bounded)
	for l := 0; l < per; l++ {
		for c := range s.keys {
			keys, hashes = append(keys, s.keys[c][l]), append(hashes, s.hashes[c][l])
		}
	}
	return keys, hashes
}

// protoRung times the frame codec on the stream's requests: what a GET, SET
// or DELETE costs to encode and parse as a request, and its reply as a
// response (a GET's reply carries the value, as on a hit). A call takes
// about as long as reading the clock does, so a span covers a burst of
// `window` calls, the burst a pipelined connection carries, and a call is
// taken as a sixteenth of it.
func protoRung(w *workload, s *stream, t *tracer, n int, m map[string]float64) {
	vcs := newVClients(w, s, false)
	type frame struct {
		op    proto.Op
		ttl   uint32
		key   string
		value []byte // of a SET
		reply []byte // of a GET
	}
	var burst [window]frame
	reqs := make([]byte, 0, window*2*maxValueLen)
	resps := make([]byte, 0, window*2*maxValueLen)
	var wire, allocs uint64
	var bad int
	// Allocations are counted around the codec calls alone, on the first
	// allocBursts bursts: reading the allocator's counters stops the world.
	const allocBursts = 512
	var mem0, mem1 runtime.MemStats
	for i := 0; i+window <= n; i += window {
		for j := range burst {
			c := vcs[(i+j)%len(vcs)]
			o, key, hash, st := c.next()
			f := frame{op: proto.OpGet, key: key}
			switch o.kind() {
			case opGet, opGetFill:
				_, f.reply = c.value(hash, st)
			case opSet, opSetTTL:
				f.op, f.ttl = proto.OpSet, o.ttl()
				_, f.value = c.value(hash, st)
			case opDelete:
				f.op = proto.OpDelete
			}
			burst[j] = f
		}
		req := uint32(i)
		counting := i < allocBursts*window
		if counting {
			runtime.ReadMemStats(&mem0)
		}
		t0 := traceNow()
		reqs = reqs[:0]
		for j, f := range burst {
			reqs = proto.AppendRequest(reqs, f.op, f.ttl, uint32(j), f.key, f.value)
		}
		t1 := traceNow()
		for off := 0; off < len(reqs); {
			h, err := proto.ParseRequestHeader(reqs[off:])
			if err != nil {
				bad++
				break
			}
			off += proto.HeaderLen + h.KeyLen + h.ValueLen
		}
		t2 := traceNow()
		resps = resps[:0]
		for j, f := range burst {
			resps = proto.AppendResponse(resps, proto.StatusOK, uint32(j), f.reply)
		}
		t3 := traceNow()
		for off := 0; off < len(resps); {
			h, err := proto.ParseResponseHeader(resps[off:])
			if err != nil {
				bad++
				break
			}
			off += proto.HeaderLen + h.ValueLen
		}
		t4 := traceNow()
		if counting {
			runtime.ReadMemStats(&mem1)
			allocs += mem1.Mallocs - mem0.Mallocs
		}
		wire += uint64(len(reqs) + len(resps))
		t.rec(layerProto, callEncodeReq, req, t0, t1)
		t.rec(layerProto, callParseReq, req, t1, t2)
		t.rec(layerProto, callEncodeResp, req, t2, t3)
		t.rec(layerProto, callParseResp, req, t3, t4)
	}
	calls := float64(n / window * window)
	m["proto.allocs_per_op"] = float64(allocs) / min(calls, allocBursts*window)
	m["proto.wire_bytes_per_op"] = float64(wire) / calls
	for name, c := range map[string]call{"encode_req_ns": callEncodeReq, "parse_req_ns": callParseReq,
		"encode_resp_ns": callEncodeResp, "parse_resp_ns": callParseResp} {
		if v, ok := t.mean(layerProto, c); ok && bad == 0 {
			m["proto."+name] = v / window
		}
	}
}

// storeMeans reports the mean span of each kind of call of a store rung.
func storeMeans(t *tracer, l layer, prefix string, names map[string]call, m map[string]float64) {
	for name, c := range names {
		if v, ok := t.mean(l, c); ok {
			m[prefix+name] = v
		}
	}
}

// engineRung replays the stream on the concurrent S3-FIFO itself.
func engineRung(w *workload, s *stream, t *tracer, n int, m map[string]float64) (counts, float64, float64) {
	base := heapLive()
	st := newKVStore(w.maxBytes)
	kv := st.kv
	r := newReplayer(w, s, st, kv.Contains, t, layerEngine, true)
	evS, evM, ghost := kv.EvictionsSmall(), kv.EvictionsMain(), kv.GhostReinserts()
	done, perOp, loadgen := r.run(n)
	kop := float64(n) / 1e3
	m["engine.small_evict_per_kop"] = float64(kv.EvictionsSmall()-evS) / kop
	m["engine.main_evict_per_kop"] = float64(kv.EvictionsMain()-evM) / kop
	m["engine.ghost_reinsert_per_kop"] = float64(kv.GhostReinserts()-ghost) / kop
	m["engine.miss_ratio"] = float64(done.misses) / float64(done.gets)
	m["engine.heap_bytes_per_entry"] = float64(heapLive()-base) / float64(kv.Len())
	r.coda()
	done.fail = r.failed()
	storeMeans(t, layerEngine, "engine.", map[string]call{"get_hit_ns": callGetHit, "get_miss_ns": callGetMiss,
		"set_insert_ns": callSetInsert, "set_overwrite_ns": callSetOverwrite, "delete_ns": callDelete}, m)

	// What a SET allocates: fresh keys, values made beforehand.
	keys, _ := hotKeys(s, 20_000)
	for i, k := range keys {
		keys[i] = "a" + k[1:]
	}
	value := make([]byte, w.minValue)
	m["engine.allocs_per_set"] = float64(mallocs(func() {
		for _, k := range keys {
			kv.Set(k, value, 0)
		}
	})) / float64(len(keys))
	runtime.KeepAlive(kv)
	return done, perOp, loadgen
}

// mtScaling is the engine's throughput with every client on its own
// goroutine (two of them: one per CPU of the reference host) over its
// throughput with one goroutine, on n requests each.
func mtScaling(w *workload, s *stream, n int) float64 {
	kops := func(goroutines int) float64 {
		kv := concurrent.NewKV(concurrent.KVConfig{MaxBytes: w.maxBytes})
		vcs := newVClients(w, s, true)
		for _, c := range vcs {
			c.populate(kvStore{kv: kv})
		}
		groups := make([][]*vclient, goroutines)
		for i, c := range vcs {
			groups[i%goroutines] = append(groups[i%goroutines], c)
		}
		start := time.Now()
		parallelN(goroutines, func(g int) {
			mine := groups[g]
			for i := 0; i < n/goroutines; i++ {
				mine[i%len(mine)].step(kvStore{kv: kv}, 0, nil)
			}
		})
		return float64(n) / time.Since(start).Seconds() / 1e3
	}
	one := kops(1)
	return kops(embeddedClients) / one
}

// newCache opens the facade as the workload runs it - its engine, and its
// flash tier if it has one - over a fresh temp directory; done closes it
// and removes the directory.
func (l layout) newCache(w *workload, reg *telemetry.Registry) (c *cache.Cache, done func(), err error) {
	dir, err := l.tempDir("cache-")
	if err != nil {
		return nil, nil, err
	}
	cfg := cache.Config{MaxBytes: w.maxBytes, Engine: w.engine, Metrics: reg}
	if w.flashBytes > 0 {
		cfg.FlashDir, cfg.FlashBytes = dir, w.flashBytes
	}
	if c, err = cache.New(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return c, func() { c.Close(); os.RemoveAll(dir) }, nil
}

// cacheRung replays the stream on the facade configured as the workload
// runs it, then once more with a metrics registry attached.
func (l layout) cacheRung(w *workload, s *stream, t *tracer, n int, m map[string]float64) (counts, float64, error) {
	base := heapLive()
	c, closeCache, err := l.newCache(w, nil)
	if err != nil {
		return counts{}, 0, err
	}
	r := newReplayer(w, s, cacheStore{c}, c.Contains, t, layerCache, true)
	done, perOp, _ := r.run(n)
	m["cache.heap_bytes_per_entry"] = float64(heapLive()-base) / float64(c.Len())
	r.coda()
	done.fail = r.failed()
	storeMeans(t, layerCache, "cache.", map[string]call{"get_hit_ns": callGetHit, "get_miss_ns": callGetMiss,
		"set_ns": callSetInsert, "set_ttl_ns": callSetTTL, "delete_ns": callDelete}, m)
	keys, _ := hotKeys(s, 20_000)
	for _, k := range keys {
		c.Set(k, make([]byte, w.minValue))
	}
	m["cache.allocs_per_get"] = float64(mallocs(func() {
		for _, k := range keys {
			c.Get(k)
		}
	})) / float64(len(keys))
	closeCache()

	if c, closeCache, err = l.newCache(w, telemetry.NewRegistry()); err != nil {
		return done, perOp, err
	}
	_, withReg, _ := newReplayer(w, s, cacheStore{c}, c.Contains, newTracer(0, 0), layerCache, true).run(n)
	closeCache()
	m["cache.metrics_overhead_pct"] = 100 * (withReg - perOp) / perOp
	return done, perOp, nil
}

// hitCost is what a GET hit costs at embeddedClients goroutines on a
// facade with the given engine and policy: the paper's claim is that the
// lock-free hit path keeps its price when goroutines share the cache.
func hitCost(w *workload, s *stream, engine, policy string) (float64, error) {
	c, err := cache.New(cache.Config{MaxBytes: w.maxBytes, Engine: engine, Policy: policy})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	// Hot keys filling at most half the cache, so every GET hits.
	keys, _ := hotKeys(s, int(w.maxBytes/2)/(w.maxValue+16))
	for _, k := range keys {
		c.Set(k, make([]byte, w.minValue))
	}
	const gets = 400_000 // per goroutine
	var misses [embeddedClients]int
	start := time.Now()
	parallelN(embeddedClients, func(g int) {
		for i := 0; i < gets; i++ {
			// Stride through the keys hottest-first-heavy: half the GETs go
			// to the hottest sixteenth.
			k := (i*7 + g) % len(keys)
			if i&1 == 0 {
				k %= max(len(keys)/16, 1)
			}
			if _, ok := c.Get(keys[k]); !ok {
				misses[g]++
			}
		}
	})
	elapsed := time.Since(start)
	for _, n := range misses {
		if n > 0 {
			return 0, fmt.Errorf("%s/%s: %d of %d GETs of resident keys missed", engine, policy, n, gets)
		}
	}
	return float64(elapsed) / gets, nil
}

// tierRung replays the stream's first n requests straight onto a second
// tier: SET is Put, GET is Get (and Put on a miss where the workload fills).
// stats reads the tier's bytes written and bytes rewritten by reclamation.
func tierRung(w *workload, s *stream, t *tracer, l layer, n int, st store, prefix string, stats func() (written, gc uint64), m map[string]float64) counts {
	r := newReplayer(w, s, st, nil, t, l, false)
	written0, gc0 := stats()
	done, _, _ := r.run(n)
	written, gc := stats()
	m[prefix+"bytes_written_per_user_byte"] = ratio(written-written0, done.userBytes)
	m[prefix+"gc_bytes_per_user_byte"] = ratio(gc-gc0, done.userBytes)
	r.coda()
	done.fail = r.failed()
	storeMeans(t, l, prefix, map[string]call{"get_ns": callGetHit, "delete_ns": callDelete}, m)
	// A Put is a Put whether the key was there or not.
	var sum float64
	var cnt uint64
	for _, c := range []call{callSetInsert, callSetOverwrite, callSetTTL} {
		sum += float64(t.sum[l][c])
		cnt += t.n[l][c]
	}
	m[prefix+"put_ns"] = max(sum/float64(cnt)-clockCost, 0)
	return done
}

// dirBytes is the size of the regular files directly in dir.
func dirBytes(dir string) (uint64, error) {
	var total uint64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += uint64(info.Size())
		}
	}
	return total, nil
}

// liveBytes is what the recurring keys the tier still holds amount to.
func liveBytes(w *workload, s *stream, has func(string) bool) uint64 {
	var total uint64
	for c := range s.keys {
		for i, k := range s.keys[c] {
			if has(k) {
				total += uint64(len(k) + w.valueLen(s.hashes[c][i]))
			}
		}
	}
	return total
}

// tierRungs runs both local second tiers on the same requests.
func (l layout) tierRungs(w *workload, s *stream, t *tracer, n int, m map[string]float64) (counts, error) {
	budget := w.flashBytes
	if budget == 0 {
		budget = 128 << 20
	}
	var total counts

	dir, err := l.tempDir("flash-")
	if err != nil {
		return total, err
	}
	defer os.RemoveAll(dir)
	fl, err := flash.Open(flash.Options{Dir: dir, MaxBytes: budget})
	if err != nil {
		return total, err
	}
	defer fl.Close()
	done := tierRung(w, s, t, layerTierFlash, n, flashStore{fl}, "tier-flash.", func() (uint64, uint64) {
		st := fl.Stats()
		return st.BytesWritten, st.GCBytes
	}, m)
	total.add(done)
	if err := fl.Sync(); err != nil {
		return total, err
	}
	m["tier-flash.disk_bytes_per_live_byte"] = float64(fl.DiskUsed()) / float64(max(liveBytes(w, s, fl.Contains), 1))

	fdir, err := l.tempDir("file-")
	if err != nil {
		return total, err
	}
	defer os.RemoveAll(fdir)
	ft, err := filetier.Open(filetier.Options{Dir: fdir, MaxBytes: budget})
	if err != nil {
		return total, err
	}
	defer ft.Close()
	done = tierRung(w, s, t, layerTierFile, n, fileStore{ft}, "tier-file.", func() (uint64, uint64) {
		st := ft.Stats()
		return st.BytesWritten, st.GCBytes
	}, m)
	total.add(done)
	if err := ft.Sync(); err != nil {
		return total, err
	}
	onDisk, err := dirBytes(fdir)
	if err != nil {
		return total, err
	}
	m["tier-file.disk_bytes_per_live_byte"] = float64(onDisk) / float64(max(liveBytes(w, s, ft.Contains), 1))
	return total, nil
}

// populated makes the workload's clients and has them populate the cache
// directly, as the timed run's set-up does over the wire; afterwards they
// are clients of a store that copies what it is handed.
func populated(w *workload, s *stream, c *cache.Cache) []*vclient {
	vcs := newVClients(w, s, true)
	for _, vc := range vcs {
		vc.populate(cacheStore{c})
		vc.fresh = false
	}
	return vcs
}

// frameDriver is the far end of one in-memory connection to the server: it
// writes a burst of pre-encoded request frames and reads their replies.
type frameDriver struct {
	conn   *memConn
	r      *bufio.Reader
	req    []byte // the burst's frames
	arena  []byte // the replies' values, copied out of the read buffer
	vals   [window][]byte
	status [window]proto.Status
}

func newFrameDriver(conn *memConn) *frameDriver {
	return &frameDriver{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), arena: make([]byte, 0, window*maxValueLen)}
}

// roundTrip sends the burst in d.req and reads n replies; request ids are
// positions in the burst.
func (d *frameDriver) roundTrip(n int) error {
	if _, err := d.conn.Write(d.req); err != nil {
		return err
	}
	d.arena = d.arena[:0]
	for i := 0; i < n; i++ {
		hdr, err := d.r.Peek(proto.HeaderLen)
		if err != nil {
			return err
		}
		h, err := proto.ParseResponseHeader(hdr)
		if err != nil {
			return err
		}
		if int(h.ID) >= n {
			return fmt.Errorf("reply to request %d of a burst of %d", h.ID, n)
		}
		d.r.Discard(proto.HeaderLen)
		at := len(d.arena)
		if at+h.ValueLen > cap(d.arena) {
			return fmt.Errorf("a burst's replies carry over %d bytes", cap(d.arena))
		}
		d.arena = d.arena[:at+h.ValueLen]
		if _, err := io.ReadFull(d.r, d.arena[at:]); err != nil {
			return err
		}
		d.vals[h.ID], d.status[h.ID] = d.arena[at:], h.Status
	}
	return nil
}

// statusErr is the error a reply's status stands for, if any.
func statusErr(st proto.Status, v []byte) error {
	switch st {
	case proto.StatusOK, proto.StatusMiss, proto.StatusNotStored:
		return nil
	}
	return fmt.Errorf("server: status %d: %s", st, v)
}

// pending is one request of a burst, waiting for its reply.
type pending struct {
	c       *vclient
	o       op
	key     string
	hash    uint64
	st      *keyState
	version uint32 // of a SET
	n       int    // its length
}

// serverRung drives the real server loop over an in-memory connection with
// pre-encoded frames in bursts of `window`, as the pipelined client sends
// them, and no client. Fills of a burst's misses go as a second burst.
func (l layout) serverRung(w *workload, s *stream, t *tracer, n int, m map[string]float64) (counts, float64, error) {
	c, closeCache, err := l.newCache(w, nil)
	if err != nil {
		return counts{}, 0, err
	}
	defer closeCache()
	ml := newMemListener()
	srv := server.New(c)
	served := make(chan struct{})
	go func() { srv.Serve(ml); close(served) }()
	defer func() { srv.Close(); <-served }()
	near, far, err := ml.dial()
	if err != nil {
		return counts{}, 0, err
	}
	d := newFrameDriver(near)

	vcs := populated(w, s, c)
	burst := make([]pending, 0, window)
	fills := make([]pending, 0, window)
	span := func(req uint32, k int) error {
		t0 := traceNow()
		err := d.roundTrip(k)
		t.rec(layerServer, callBatch, req, t0, traceNow())
		return err
	}
	for issued := 0; issued < n; {
		burst, d.req = burst[:0], d.req[:0]
		for len(burst) < window && issued < n {
			vc := vcs[issued%len(vcs)]
			issued++
			p := pending{c: vc}
			p.o, p.key, p.hash, p.st = vc.next()
			id := uint32(len(burst))
			switch p.o.kind() {
			case opGet, opGetFill:
				d.req = proto.AppendRequest(d.req, proto.OpGet, 0, id, p.key, nil)
			case opSet, opSetTTL:
				var v []byte
				p.version, v = vc.value(p.hash, p.st)
				p.n = len(v)
				d.req = proto.AppendRequest(d.req, proto.OpSet, p.o.ttl(), id, p.key, v)
			case opDelete:
				d.req = proto.AppendRequest(d.req, proto.OpDelete, 0, id, p.key, nil)
			}
			burst = append(burst, p)
		}
		sent := nowNano()
		req := uint32(issued - len(burst))
		if err := span(req, len(burst)); err != nil {
			return counts{}, 0, err
		}
		fills, d.req = fills[:0], d.req[:0]
		for i, p := range burst {
			err := statusErr(d.status[i], d.vals[i])
			switch p.o.kind() {
			case opGet, opGetFill:
				if p.c.ackGet(p.st, p.hash, d.vals[i], d.status[i] == proto.StatusOK, err, sent) && p.o.kind() == opGetFill {
					var v []byte
					p.version, v = p.c.value(p.hash, p.st)
					p.n = len(v)
					d.req = proto.AppendRequest(d.req, proto.OpSet, 0, uint32(len(fills)), p.key, v)
					fills = append(fills, p)
				}
			case opSet, opSetTTL:
				p.c.ackSet(p.st, p.version, p.n, p.o.ttl(), d.status[i] == proto.StatusOK, err)
			case opDelete:
				p.c.ackDelete(p.st, err)
			}
			p.c.done++
		}
		if len(fills) > 0 {
			if err := span(req, len(fills)); err != nil {
				return counts{}, 0, err
			}
			for i, p := range fills {
				p.c.ackSet(p.st, p.version, p.n, 0, d.status[i] == proto.StatusOK, statusErr(d.status[i], d.vals[i]))
			}
		}
	}
	done := snapshot(vcs)
	spans, _ := t.total(layerServer)
	perOp := spans / float64(n)
	kop := float64(n) / 1e3
	m["server.conn_reads_per_kop"] = float64(far.reads.Load()) / kop
	m["server.conn_writes_per_kop"] = float64(far.writes.Load()) / kop

	// What one kind of request costs to dispatch: bursts of one kind over
	// keys made resident first.
	keys, hashes := hotKeys(s, 1024)
	value := make([]byte, maxValueLen)
	const sweeps = 24
	timeBursts := func(frame func(id uint32, k int) []byte) (float64, error) {
		var total int64
		var ops int
		for sweep := 0; sweep < sweeps; sweep++ {
			for at := 0; at+window <= len(keys); at += window {
				d.req = d.req[:0]
				for i := 0; i < window; i++ {
					d.req = append(d.req, frame(uint32(i), at+i)...)
				}
				t0 := traceNow()
				if err := d.roundTrip(window); err != nil {
					return 0, err
				}
				total += traceNow() - t0
				ops += window
			}
		}
		return float64(total) / float64(ops), nil
	}
	var frameBuf []byte
	if m["server.dispatch_set_ns"], err = timeBursts(func(id uint32, k int) []byte {
		v := putValue(value, hashes[k], 1, w.valueLen(hashes[k]))
		frameBuf = proto.AppendRequest(frameBuf[:0], proto.OpSet, 0, id, keys[k], v)
		return frameBuf
	}); err != nil {
		return done, perOp, err
	}
	getFrame := func(id uint32, k int) []byte {
		frameBuf = proto.AppendRequest(frameBuf[:0], proto.OpGet, 0, id, keys[k], nil)
		return frameBuf
	}
	if m["server.dispatch_get_ns"], err = timeBursts(getFrame); err != nil {
		return done, perOp, err
	}
	gets := sweeps * (len(keys) / window) * window
	m["server.allocs_per_get"] = float64(mallocs(func() { _, err = timeBursts(getFrame) })) / float64(gets)
	if err != nil {
		return done, perOp, err
	}

	// The same GETs in the text protocol, on a connection of their own.
	tnear, _, err := ml.dial()
	if err != nil {
		return done, perOp, err
	}
	tr := bufio.NewReaderSize(tnear, 64<<10)
	var total int64
	var ops int
	for sweep := 0; sweep < sweeps; sweep++ {
		for at := 0; at+window <= len(keys); at += window {
			d.req = d.req[:0]
			for i := 0; i < window; i++ {
				d.req = append(append(append(d.req, "get "...), keys[at+i]...), "\r\n"...)
			}
			t0 := traceNow()
			if _, err := tnear.Write(d.req); err != nil {
				return done, perOp, err
			}
			for i := 0; i < window; i++ {
				if err := readTextGet(tr); err != nil {
					return done, perOp, err
				}
			}
			total += traceNow() - t0
			ops += window
		}
	}
	m["server.text_get_ns"] = float64(total) / float64(ops)
	return done, perOp, nil
}

// readTextGet consumes one text-protocol GET reply, which must be a hit.
func readTextGet(r *bufio.Reader) error {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return err
	}
	f := bytes.Fields(line)
	if len(f) < 3 || string(f[0]) != "VALUE" {
		return fmt.Errorf("text get: want a VALUE line, got %q", line)
	}
	n, err := strconv.Atoi(string(f[len(f)-1]))
	if err != nil {
		return fmt.Errorf("text get: %q: %v", line, err)
	}
	if _, err := r.Discard(n + 2); err != nil {
		return err
	}
	if line, err = r.ReadSlice('\n'); err != nil || !bytes.HasPrefix(line, []byte("END")) {
		return fmt.Errorf("text get: want END, got %q (%v)", line, err)
	}
	return nil
}

// remote is what the network client and the cluster router have in common.
type remote interface {
	Get(key string) ([]byte, bool, error)
	SetWithTTL(key string, v []byte, ttl time.Duration) (bool, error)
	Delete(key string) (bool, error)
}

// node is a server in this process listening on loopback, over a cache
// its caller owns.
type node struct {
	addr   string
	srv    *server.Server
	served chan struct{}
}

func startNode(c *cache.Cache) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{addr: ln.Addr().String(), srv: server.New(c), served: make(chan struct{})}
	go func() { n.srv.Serve(ln); close(n.served) }()
	return n, nil
}

func (n *node) stop() {
	n.srv.Close()
	<-n.served
}

// median of the (unsorted) durations.
func medianNs(d []int64) float64 {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[len(d)/2])
}

// clientRung drives a server in this process over loopback TCP through the
// public client, as the timed run drives the child: `conns` pipelined
// connections, `window` callers each. It returns the counts, the process's
// CPU time per request (client, kernel and server together: the top of the
// ladder), and leaves the node running for the caller to stop.
func (l layout) clientRung(w *workload, s *stream, t *tracer, n int, m map[string]float64) (counts, float64, error) {
	c, closeCache, err := l.newCache(w, nil)
	if err != nil {
		return counts{}, 0, err
	}
	defer closeCache()
	nd, err := startNode(c)
	if err != nil {
		return counts{}, 0, err
	}
	defer nd.stop()
	conns, err := dial(nd.addr)
	if err != nil {
		return counts{}, 0, err
	}
	defer closeAll(conns)

	vcs := populated(w, s, c)
	each := n / len(vcs)
	cpu0, start := selfCPU(), time.Now()
	parallel(vcs, func(i int, vc *vclient) {
		st := clientStore{conns[i/window]}
		for k := 0; k < each; k++ {
			vc.step(st, 0, nil)
		}
	})
	wall, cpu := time.Since(start), selfCPU()-cpu0
	done := snapshot(vcs)
	ops := float64(each * len(vcs))
	m["client.pipelined_ns_per_op"] = float64(wall) / ops
	perOp := cpu * 1e9 / ops

	// One caller, one request in flight: the round trip itself.
	keys, _ := hotKeys(s, 1024)
	value := make([]byte, w.minValue)
	for _, k := range keys {
		if _, err := conns[0].Set(k, value); err != nil {
			return done, perOp, err
		}
	}
	const trips = 8000
	rtt := func(cl *client.Client, rec bool) (float64, uint64, error) {
		d := make([]int64, 0, trips)
		var err error
		allocs := mallocs(func() {
			for i := 0; i < trips; i++ {
				t0 := traceNow()
				_, hit, gerr := cl.Get(keys[i%len(keys)])
				t1 := traceNow()
				if gerr != nil || !hit {
					err = fmt.Errorf("round trip %d: hit %v, %v", i, hit, gerr)
					return
				}
				d = append(d, t1-t0)
				if rec {
					t.rec(layerClient, callGetHit, uint32(i), t0, t1)
				}
			}
		})
		if err != nil {
			return 0, 0, err
		}
		return medianNs(d) / 1e3, allocs, nil
	}
	bin, err := client.DialOptions(nd.addr, client.Options{Binary: true})
	if err != nil {
		return done, perOp, err
	}
	defer bin.Close()
	var allocs uint64
	if m["client.sync_rtt_us"], allocs, err = rtt(bin, true); err != nil {
		return done, perOp, err
	}
	m["client.allocs_per_get"] = float64(allocs) / trips
	text, err := client.Dial(nd.addr)
	if err != nil {
		return done, perOp, err
	}
	defer text.Close()
	if m["client.text_rtt_us"], _, err = rtt(text, false); err != nil {
		return done, perOp, err
	}
	return done, perOp, nil
}

// dial opens the workload's connections: binary, pipelined, window each.
func dial(addr string) ([]*client.Client, error) {
	out := make([]*client.Client, conns)
	for i := range out {
		c, err := client.DialOptions(addr, client.Options{Pipeline: window})
		if err != nil {
			closeAll(out[:i])
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// clusterRung measures the router: a ring lookup, what routing adds to a
// round trip, and the closed-loop throughput of one node, of three, and of
// three with hot keys on two replicas - every node in this process, so on
// a two-CPU host three nodes share the CPUs one node had.
func clusterRung(w *workload, s *stream, d time.Duration, m map[string]float64) (counts, error) {
	var total counts
	keys, _ := hotKeys(s, 1<<16)

	ring := hashring.New([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, hashring.Options{})
	const lookups = 400_000
	start := time.Now()
	var sink int
	for i := 0; i < lookups; i++ {
		sink += len(ring.Lookup(keys[i%len(keys)]))
	}
	m["cluster.ring_lookup_ns"] = float64(time.Since(start)) / lookups
	if sink == 0 {
		return total, errors.New("ring lookups returned no node")
	}

	run := func(nodes, replication int, fn func(cl *cluster.Client, addr string) error) error {
		var nds []*node
		var caches []*cache.Cache
		var addrs []string
		defer func() {
			for _, nd := range nds {
				nd.stop()
			}
			for _, c := range caches {
				c.Close()
			}
		}()
		for i := 0; i < nodes; i++ {
			c, err := cache.New(cache.Config{MaxBytes: w.maxBytes, Engine: w.engine})
			if err != nil {
				return err
			}
			caches = append(caches, c)
			nd, err := startNode(c)
			if err != nil {
				return err
			}
			nds, addrs = append(nds, nd), append(addrs, nd.addr)
		}
		cl, err := cluster.New(cluster.Options{Nodes: addrs, Replication: replication,
			Client: client.Options{Pipeline: window}})
		if err != nil {
			return err
		}
		defer cl.Close()
		return fn(cl, addrs[0])
	}
	throughput := func(name string, replicated bool) func(*cluster.Client, string) error {
		return func(cl *cluster.Client, _ string) error {
			vcs := newVClients(w, s, false)
			stores := make([]store, len(vcs))
			for i := range stores {
				stores[i] = clientStore{cl}
			}
			elapsed := closedLoop(vcs, stores, d, nil)
			done := snapshot(vcs)
			if replicated {
				// Replicas are eventually consistent by design (DESIGN.md
				// section 12): a read that a replica answers with an older
				// version is reported, not failed.
				m["cluster.r2_stale_per_kop"] = float64(done.fail.lies) / float64(done.done) * 1e3
				done.fail.lies = 0
			}
			total.add(done)
			m[name] = float64(done.done) / elapsed.Seconds() / 1e3
			return nil
		}
	}
	if err := run(1, 1, throughput("cluster.kops_1node", false)); err != nil {
		return total, err
	}
	if err := run(3, 1, throughput("cluster.kops_3node", false)); err != nil {
		return total, err
	}
	if err := run(3, 2, throughput("cluster.kops_3node_r2", true)); err != nil {
		return total, err
	}

	// What the router adds to one round trip: the same GET through a
	// one-node cluster and straight through a pipelined client, turn about,
	// one caller.
	return total, run(1, 1, func(cl *cluster.Client, addr string) error {
		direct, err := client.DialOptions(addr, client.Options{Pipeline: window})
		if err != nil {
			return err
		}
		defer direct.Close()
		value := make([]byte, w.minValue)
		for _, k := range keys[:1024] {
			if _, err := direct.Set(k, value); err != nil {
				return err
			}
		}
		const trips = 4000
		routed, straight := make([]int64, 0, trips), make([]int64, 0, trips)
		for i := 0; i < trips; i++ {
			k := keys[i%1024]
			t0 := traceNow()
			_, hit1, err1 := cl.Get(k)
			t1 := traceNow()
			_, hit2, err2 := direct.Get(k)
			t2 := traceNow()
			if err1 != nil || err2 != nil || !hit1 || !hit2 {
				return fmt.Errorf("routed round trip %d: hits %v %v, errors %v %v", i, hit1, hit2, err1, err2)
			}
			routed, straight = append(routed, t1-t0), append(straight, t2-t1)
		}
		m["cluster.route_self_ns"] = medianNs(routed) - medianNs(straight)
		return nil
	})
}
