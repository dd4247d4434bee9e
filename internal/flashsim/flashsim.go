// Package flashsim simulates the DRAM + flash tiered cache of §5.4
// (Fig. 9): the flash holds the bulk of the cache under FIFO eviction (as
// production flash caches do, for write locality), and an admission
// policy decides which DRAM-evicted objects are written to flash at all.
// The two metrics are the overall miss ratio and the bytes written to
// flash (normalized to the trace's unique bytes) — flash lifetime is
// consumed by writes.
//
// Admission policies:
//
//   - "fifo": no admission control; every missed object is written to
//     flash directly.
//   - "prob": an LRU DRAM buffer; DRAM-evicted objects are admitted to
//     flash with probability 0.2.
//   - "flashield": an LRU DRAM buffer plus a learned admission model.
//     The original uses an SVM over DRAM read counts; we substitute an
//     online logistic regression over the same features (reads while in
//     DRAM), trained from ghost feedback — see DESIGN.md §4. Its defining
//     behavior is preserved: with a small DRAM buffer objects gather no
//     reads before eviction, the features are uninformative, and the
//     model cannot separate good from bad admissions.
//   - "s3fifo": the paper's small-FIFO admission — S lives in DRAM, only
//     objects requested again while in S (or re-requested while in the
//     ghost G) are written to flash.
package flashsim

import (
	"fmt"
	"math"
	"slices"

	"s3fifo/internal/ghost"
	"s3fifo/internal/list"
	"s3fifo/internal/policy"
	"s3fifo/internal/sketch"
	"s3fifo/internal/trace"
)

// Result reports one flash-cache simulation.
type Result struct {
	Policy      string
	DRAMFrac    float64
	Requests    uint64
	Misses      uint64
	FlashWrite  uint64 // bytes written to flash
	UniqueBytes uint64
}

// MissRatio returns the request miss ratio.
func (r Result) MissRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Requests)
}

// NormalizedWrites returns flash write bytes divided by the trace's
// unique bytes (Fig. 9's Y axis).
func (r Result) NormalizedWrites() float64 {
	if r.UniqueBytes == 0 {
		return 0
	}
	return float64(r.FlashWrite) / float64(r.UniqueBytes)
}

// String renders the result as a table row.
func (r Result) String() string {
	return fmt.Sprintf("%-10s dram=%5.3f  miss %6.4f  writes %6.3fx",
		r.Policy, r.DRAMFrac, r.MissRatio(), r.NormalizedWrites())
}

// Config parameterizes a run.
type Config struct {
	// TotalBytes is the combined cache size (DRAM + flash).
	TotalBytes uint64
	// DRAMFrac is the DRAM share of TotalBytes (e.g. 0.001, 0.01, 0.10).
	DRAMFrac float64
	// Policy is one of "fifo", "prob", "flashield", "s3fifo".
	Policy string
	// Seed drives the probabilistic admission.
	Seed int64
}

// Run simulates tr under cfg.
func Run(tr trace.Trace, cfg Config) (Result, error) {
	res := Result{Policy: cfg.Policy, DRAMFrac: cfg.DRAMFrac, UniqueBytes: tr.FootprintBytes()}
	dramBytes := uint64(float64(cfg.TotalBytes) * cfg.DRAMFrac)
	flashBytes := cfg.TotalBytes - dramBytes
	if cfg.Policy == "fifo" {
		flashBytes = cfg.TotalBytes // no DRAM tier at all
	}

	flash := policy.NewFIFO(flashBytes)
	writeToFlash := func(key uint64, size uint32) {
		res.FlashWrite += uint64(size)
		flash.Request(key, size) // a miss-insert; FIFO evicts as needed
	}
	// Report flash evictions back to the admitter: an object written to
	// flash but never read there was a wasted write (training signal for
	// learned admission).
	defer flash.SetObserver(nil)

	var admit admitter
	switch cfg.Policy {
	case "fifo":
		admit = nil
	case "prob":
		admit = newProbAdmitter(dramBytes, 0.2, cfg.Seed)
	case "flashield":
		admit = newFlashieldAdmitter(dramBytes, flashBytes)
	case "s3fifo":
		admit = newSmallFIFOAdmitter(dramBytes, flashBytes)
	default:
		return res, fmt.Errorf("flashsim: unknown policy %q", cfg.Policy)
	}
	if admit != nil {
		flash.SetObserver(func(ev policy.Eviction) {
			admit.flashEvicted(ev.Key, ev.Freq > 0)
		})
	}

	for _, r := range tr {
		if r.Op != trace.OpGet {
			continue
		}
		res.Requests++
		if admit != nil && admit.access(r.ID) {
			continue // DRAM hit
		}
		if flash.Contains(r.ID) {
			flash.Request(r.ID, r.Size) // flash hit (bumps nothing in FIFO)
			if admit != nil {
				admit.flashHit(r.ID)
			}
			continue
		}
		// Full miss: fetch from origin.
		res.Misses++
		if admit == nil {
			writeToFlash(r.ID, r.Size)
			continue
		}
		admit.insert(r.ID, r.Size, writeToFlash)
	}
	return res, nil
}

// admitter is a DRAM tier plus admission logic. access returns true on a
// DRAM hit; insert handles a full miss, eventually calling writeToFlash
// for objects it decides to admit (possibly later, at DRAM eviction).
type admitter interface {
	access(key uint64) bool
	flashHit(key uint64)
	flashEvicted(key uint64, wasRead bool)
	insert(key uint64, size uint32, writeToFlash func(uint64, uint32))
}

// probAdmitter: LRU DRAM; DRAM evictions admitted with fixed probability.
type probAdmitter struct {
	dram  *policy.LRU
	p     float64
	state uint64
	write func(uint64, uint32)
}

func newProbAdmitter(dramBytes uint64, p float64, seed int64) *probAdmitter {
	a := &probAdmitter{dram: policy.NewLRU(dramBytes), p: p, state: uint64(seed) | 1}
	a.dram.SetObserver(func(ev policy.Eviction) {
		a.state = sketch.Hash(a.state, 0xF1A5)
		if float64(a.state>>11)/float64(1<<53) < a.p {
			a.write(ev.Key, ev.Size)
		}
	})
	return a
}

func (a *probAdmitter) access(key uint64) bool {
	if a.dram.Contains(key) {
		return a.dram.Request(key, 0) // size ignored on hit
	}
	return false
}

func (a *probAdmitter) flashHit(uint64) {}

func (a *probAdmitter) flashEvicted(uint64, bool) {}

func (a *probAdmitter) insert(key uint64, size uint32, write func(uint64, uint32)) {
	a.write = write
	if uint64(size) > a.dram.Capacity() {
		// Cannot pass through DRAM: the admission coin flip happens now.
		a.state = sketch.Hash(a.state, 0xF1A5)
		if float64(a.state>>11)/float64(1<<53) < a.p {
			write(key, size)
		}
		return
	}
	a.dram.Request(key, size)
}

// flashieldAdmitter: LRU DRAM + online logistic regression over the
// object's DRAM read count, trained from ghost feedback.
type flashieldAdmitter struct {
	dram  *policy.LRU
	reads map[uint64]float64
	// declined remembers rejected objects; a re-request while remembered
	// is a false negative and trains the model upward.
	declined     *ghost.Queue
	declinedFeat map[uint64]float64
	// admitted remembers flash-written objects awaiting a read; eviction
	// from this window without a flash hit trains the model downward.
	admitted     *ghost.Queue
	admittedFeat map[uint64]float64
	w0, w1       float64
	lr           float64
	write        func(uint64, uint32)
}

func newFlashieldAdmitter(dramBytes, flashBytes uint64) *flashieldAdmitter {
	// Feedback windows track roughly one flash generation of objects.
	window := (&ghost.Sizer{FlashBytes: flashBytes}).Entries()
	a := &flashieldAdmitter{
		dram:         policy.NewLRU(dramBytes),
		reads:        make(map[uint64]float64),
		declined:     ghost.New(window),
		declinedFeat: make(map[uint64]float64),
		admitted:     ghost.New(window),
		admittedFeat: make(map[uint64]float64),
		w0:           -0.5, // prior: do not admit
		w1:           0.5,
		lr:           0.05,
	}
	a.dram.SetObserver(func(ev policy.Eviction) { a.onDRAMEvict(ev) })
	return a
}

func (a *flashieldAdmitter) predict(reads float64) float64 {
	return 1 / (1 + math.Exp(-(a.w0 + a.w1*reads)))
}

func (a *flashieldAdmitter) train(reads, label float64) {
	p := a.predict(reads)
	a.w0 += a.lr * (label - p)
	a.w1 += a.lr * (label - p) * reads
}

func (a *flashieldAdmitter) onDRAMEvict(ev policy.Eviction) {
	reads := a.reads[ev.Key]
	delete(a.reads, ev.Key)
	if a.predict(reads) >= 0.5 {
		a.write(ev.Key, ev.Size)
		a.admitted.Insert(ev.Key)
		a.admittedFeat[ev.Key] = reads
	} else {
		a.declined.Insert(ev.Key)
		a.declinedFeat[ev.Key] = reads
	}
	a.gc()
}

func (a *flashieldAdmitter) access(key uint64) bool {
	if a.dram.Contains(key) {
		a.reads[key]++
		return a.dram.Request(key, 0)
	}
	return false
}

func (a *flashieldAdmitter) flashHit(key uint64) {
	if _, ok := a.admittedFeat[key]; ok {
		// The admission paid off: positive example.
		a.train(a.admittedFeat[key], 1)
		a.admitted.Remove(key)
		delete(a.admittedFeat, key)
	}
}

// flashEvicted closes the loop on admissions: an object leaving flash
// without ever being read there was a wasted write.
func (a *flashieldAdmitter) flashEvicted(key uint64, wasRead bool) {
	if f, ok := a.admittedFeat[key]; ok {
		if !wasRead {
			a.train(f, 0)
		}
		a.admitted.Remove(key)
		delete(a.admittedFeat, key)
	}
}

func (a *flashieldAdmitter) insert(key uint64, size uint32, write func(uint64, uint32)) {
	a.write = write
	if a.declined.Contains(key) {
		// We declined it and it came back: false negative.
		a.train(a.declinedFeat[key], 1)
		a.declined.Remove(key)
		delete(a.declinedFeat, key)
	}
	if uint64(size) > a.dram.Capacity() {
		// Cannot observe it in DRAM: decide now with zero-read features.
		a.onDRAMEvict(policy.Eviction{Key: key, Size: size})
		return
	}
	a.dram.Request(key, size)
}

// gc bounds the feature maps; expired ghost entries train as confirmed
// negatives: admitted but never read (a wasted write), or declined and
// never re-requested (a correct call).
func (a *flashieldAdmitter) gc() {
	a.trainExpired(a.admittedFeat, a.admitted)
	a.trainExpired(a.declinedFeat, a.declined)
}

// trainExpired trains a negative example for, and forgets, every key of
// feat that window no longer holds, once feat outgrows four windows. The
// keys train in sorted order: the SGD is order-dependent, and map order
// would make every run's model, and so its writes, differ.
func (a *flashieldAdmitter) trainExpired(feat map[uint64]float64, window *ghost.Queue) {
	if len(feat) <= 4*window.Capacity() {
		return
	}
	var expired []uint64
	for k := range feat {
		if !window.Contains(k) {
			expired = append(expired, k)
		}
	}
	slices.Sort(expired)
	for _, k := range expired {
		a.train(feat[k], 0)
		delete(feat, k)
	}
}

// smallFIFOAdmitter: the paper's design. S (DRAM) is a plain FIFO with
// 2-bit counters; objects requested again while in S are admitted to
// flash at S-eviction; objects re-requested while in the ghost G are
// admitted directly.
type smallFIFOAdmitter struct {
	queue *list.List
	index map[uint64]*list.Node
	cap   uint64
	used  uint64
	g     *ghost.Queue
	write func(uint64, uint32)
	sizer ghost.Sizer
}

func newSmallFIFOAdmitter(dramBytes, flashBytes uint64) *smallFIFOAdmitter {
	if dramBytes < 1 {
		dramBytes = 1
	}
	// G holds as many ghost entries as the flash (the "main queue") holds
	// objects, per §4.1; sizes vary, so the sizer starts from a 32 KiB
	// mean and refines it as objects are observed.
	sizer := ghost.Sizer{FlashBytes: flashBytes}
	return &smallFIFOAdmitter{
		queue: list.New(),
		index: make(map[uint64]*list.Node),
		cap:   dramBytes,
		g:     ghost.New(sizer.Entries()),
		sizer: sizer,
	}
}

// observeSize refines the ghost's logical capacity using the running mean
// object size, so G keeps tracking one flash generation of objects.
func (a *smallFIFOAdmitter) observeSize(size uint32) {
	if entries, resized := a.sizer.Observe(size); resized {
		a.g.Resize(entries)
	}
}

func (a *smallFIFOAdmitter) access(key uint64) bool {
	if n, ok := a.index[key]; ok {
		if n.Freq < 3 {
			n.Freq++
		}
		return true
	}
	return false
}

func (a *smallFIFOAdmitter) flashHit(uint64) {}

func (a *smallFIFOAdmitter) flashEvicted(uint64, bool) {}

func (a *smallFIFOAdmitter) insert(key uint64, size uint32, write func(uint64, uint32)) {
	a.write = write
	a.observeSize(size)
	if a.g.Contains(key) {
		// Re-requested after demotion: goes straight to flash (§5.4).
		a.g.Remove(key)
		write(key, size)
		return
	}
	if uint64(size) > a.cap {
		// Larger than all of DRAM: write through to flash.
		write(key, size)
		return
	}
	for a.used+uint64(size) > a.cap {
		a.evict()
	}
	n := &list.Node{Key: key, Size: size}
	a.queue.PushFront(n)
	a.index[key] = n
	a.used += uint64(size)
}

func (a *smallFIFOAdmitter) evict() {
	n := a.queue.PopBack()
	if n == nil {
		return
	}
	delete(a.index, n.Key)
	a.used -= uint64(n.Size)
	if n.Freq >= 1 {
		// Requested at least twice while in DRAM: admit.
		a.write(n.Key, n.Size)
	} else {
		a.g.Insert(n.Key)
	}
}
