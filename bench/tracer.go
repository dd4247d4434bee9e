package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Layers are the repository's modules. The rungs replay the same requests,
// so request r's engine call is what its cache call would have made, and a
// span's parent is the span of the same request one rung up.
type layer uint8

const (
	layerProto layer = iota
	layerEngine
	layerCache
	layerTierFlash
	layerTierFile
	layerServer
	layerClient
	nLayers
)

var layerNames = [nLayers]string{"proto", "engine", "cache", "tier-flash", "tier-file", "server", "client"}

// parentOf is the rung a layer's spans are children of.
var parentOf = [nLayers]string{"server", "cache", "server", "cache", "cache", "client", ""}

// call names what a span timed.
type call uint8

const (
	callGetHit call = iota
	callGetMiss
	callSetInsert
	callSetOverwrite
	callSetTTL
	callDelete
	callEncodeReq
	callParseReq
	callEncodeResp
	callParseResp
	callBatch // one pipelined burst through the in-memory connection
	nCalls
)

var callNames = [nCalls]string{"get_hit", "get_miss", "set_insert", "set_overwrite", "set_ttl", "delete",
	"encode_req", "parse_req", "encode_resp", "parse_resp", "batch"}

type span struct {
	layer      layer
	call       call
	req        uint32
	start, end int64 // ns since traceBase
}

var traceBase = time.Now()

func traceNow() int64 { return int64(time.Since(traceBase)) }

// clockCost is what one clock read costs in ns. A span's two reads put
// about one read's worth of time inside it; the tracer takes that back out.
var clockCost float64

func calibrateClock() {
	const n = 200_000
	start := traceNow()
	var last int64
	for i := 0; i < n; i++ {
		traceNow()
		last = traceNow()
	}
	clockCost = float64(last-start) / (2 * n)
}

// tracer records spans into a preallocated buffer and keeps per-(layer,
// call) totals. One goroutine uses it at a time.
type tracer struct {
	keep  uint32 // spans of requests below this id go to the trace file
	spans []span
	n     [nLayers][nCalls]uint64
	sum   [nLayers][nCalls]int64
}

// newTracer keeps the spans of requests with an id below keep, up to
// capacity of them; every span is aggregated.
func newTracer(keep, capacity int) *tracer {
	return &tracer{keep: uint32(keep), spans: make([]span, 0, capacity)}
}

func (t *tracer) rec(l layer, c call, req uint32, start, end int64) {
	t.n[l][c]++
	t.sum[l][c] += end - start
	if req < t.keep && len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{l, c, req, start, end})
	}
}

// absorb adds another tracer's totals and spans to t's.
func (t *tracer) absorb(o *tracer) {
	for l := range t.n {
		for c := range t.n[l] {
			t.n[l][c] += o.n[l][c]
			t.sum[l][c] += o.sum[l][c]
		}
	}
	t.spans = append(t.spans, o.spans...)
}

// mean is the mean duration in ns of the (layer, call) spans, net of the
// clock's own cost; ok is false when there were none.
func (t *tracer) mean(l layer, c call) (float64, bool) {
	if t.n[l][c] == 0 {
		return 0, false
	}
	return max(float64(t.sum[l][c])/float64(t.n[l][c])-clockCost, 0), true
}

// total is the layer's span time in ns so far, net of clock cost, and
// clock is what reading the clock for those spans cost, in and around them.
func (t *tracer) total(l layer) (total, clock float64) {
	var sum int64
	var n uint64
	for c := range t.sum[l] {
		sum += t.sum[l][c]
		n += t.n[l][c]
	}
	return float64(sum) - float64(n)*clockCost, 2 * float64(n) * clockCost
}

// write dumps the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		parent := ""
		if p := parentOf[s.layer]; p != "" {
			parent = fmt.Sprintf("%s:%d", p, s.req)
		}
		fmt.Fprintf(w, `{"layer":%q,"op":%q,"req":%d,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			layerNames[s.layer], callNames[s.call], s.req, parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStore records one span around every call into the store under it.
type spanStore struct {
	inner store
	// has, if non-nil, says whether a key is resident, which tells an
	// overwriting SET from an inserting one; it runs outside the span.
	has   func(key string) bool
	t     *tracer
	layer layer
	// vc is the one client this store serves. It numbers the requests: the
	// client's ops since base, interleaved with the other clients'.
	vc   *vclient
	base int
}

func (s *spanStore) id() uint32 {
	return uint32((s.vc.pos-s.base)*s.vc.w.clients + s.vc.idx)
}

func (s *spanStore) Get(key string) ([]byte, bool, error) {
	t0 := traceNow()
	v, hit, err := s.inner.Get(key)
	t1 := traceNow()
	c := callGetMiss
	if hit {
		c = callGetHit
	}
	s.t.rec(s.layer, c, s.id(), t0, t1)
	return v, hit, err
}

func (s *spanStore) Set(key string, v []byte, ttl time.Duration) (bool, error) {
	c := callSetInsert
	switch {
	case ttl > 0:
		c = callSetTTL
	case s.has != nil && s.has(key):
		c = callSetOverwrite
	}
	t0 := traceNow()
	stored, err := s.inner.Set(key, v, ttl)
	t1 := traceNow()
	s.t.rec(s.layer, c, s.id(), t0, t1)
	return stored, err
}

func (s *spanStore) Delete(key string) (bool, error) {
	t0 := traceNow()
	ok, err := s.inner.Delete(key)
	t1 := traceNow()
	s.t.rec(s.layer, callDelete, s.id(), t0, t1)
	return ok, err
}
