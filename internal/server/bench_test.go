// Hot-path benchmarks and the allocation gates that keep them honest:
// the binary GET-hit dispatch path must not allocate, per request, at
// all. The gates run as plain tests (and via `make bench-allocs`) so a
// regression fails CI rather than silently shifting a number.
package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"s3fifo/cache"
	"s3fifo/internal/proto"
)

// newBinConn and newTextConn are connection state with no connection
// behind it: counters nobody sums, no deadlines.
func newBinConn() *binConn   { return &binConn{stats: &connStats{}} }
func newTextConn() *textConn { return &textConn{stats: &connStats{}} }

// benchServer builds a server with one hot key.
func benchServer(b testing.TB) *Server {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if !c.Set("bench-key", bytes.Repeat([]byte("v"), 100)) {
		b.Fatal("seed set failed")
	}
	return New(c)
}

// BenchmarkServerGetHit measures one binary GET hit through the real
// dispatch path: header parse, borrowed key, cache lookup, response
// frame. The network is replaced by a resettable reader and io.Discard.
func BenchmarkServerGetHit(b *testing.B) {
	srv := benchServer(b)
	bc := newBinConn()
	frame := proto.AppendRequest(nil, proto.OpGet, 0, 1, "bench-key", nil)
	br := bytes.NewReader(frame)
	r := bufio.NewReaderSize(br, 16<<10)
	w := bufio.NewWriterSize(io.Discard, 16<<10)
	if fatal := srv.dispatchBinary(r, w, bc); fatal {
		b.Fatal("warmup dispatch failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(frame)
		r.Reset(br)
		if fatal := srv.dispatchBinary(r, w, bc); fatal {
			b.Fatal("dispatch reported fatal on a valid frame")
		}
		w.Flush()
	}
}

// BenchmarkServerGetHitText is the same lookup through the text
// protocol, for comparison: strings.Fields, fmt response formatting.
func BenchmarkServerGetHitText(b *testing.B) {
	srv := benchServer(b)
	tc := newTextConn()
	payload := []byte("get bench-key\r\n")
	br := bytes.NewReader(payload)
	r := bufio.NewReaderSize(br, 16<<10)
	w := bufio.NewWriterSize(io.Discard, 16<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(payload)
		r.Reset(br)
		line, err := readLine(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.dispatch(tc, r, w, line); err != nil {
			b.Fatal(err)
		}
		w.Flush()
	}
}

// BenchmarkServerGetMiss: the miss path must also stay allocation-free.
func BenchmarkServerGetMiss(b *testing.B) {
	srv := benchServer(b)
	bc := newBinConn()
	frame := proto.AppendRequest(nil, proto.OpGet, 0, 1, "absent-key", nil)
	br := bytes.NewReader(frame)
	r := bufio.NewReaderSize(br, 16<<10)
	w := bufio.NewWriterSize(io.Discard, 16<<10)
	srv.dispatchBinary(r, w, bc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Reset(frame)
		r.Reset(br)
		srv.dispatchBinary(r, w, bc)
		w.Flush()
	}
}

// TestAllocGateServerGetHit is the CI gate for the tentpole claim:
// zero allocations per binary GET hit on the server.
func TestAllocGateServerGetHit(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if allocs := testing.Benchmark(BenchmarkServerGetHit).AllocsPerOp(); allocs != 0 {
		t.Fatalf("binary GET-hit path allocates %d times per op, want 0", allocs)
	}
}

func TestAllocGateServerGetMiss(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if allocs := testing.Benchmark(BenchmarkServerGetMiss).AllocsPerOp(); allocs != 0 {
		t.Fatalf("binary GET-miss path allocates %d times per op, want 0", allocs)
	}
}

// setFrames are binary SETs of n distinct keys, 100-byte values.
func setFrames(n int) [][]byte {
	frames := make([][]byte, n)
	value := bytes.Repeat([]byte("v"), 100)
	for i := range frames {
		frames[i] = proto.AppendRequest(nil, proto.OpSet, 0, uint32(i), fmt.Sprintf("set-key-%06d", i), value)
	}
	return frames
}

// TestAllocGateServerSet pins what a SET allocates. Of a new key: the
// value the cache keeps, the one copy of the key out of the read buffer,
// and the engine's entry. (Queue and index growth are amortised away:
// AllocsPerRun reports whole allocations per run.) Of a resident key, the
// same frames again: the value and the key, because the engine overwrites
// the entry in place.
func TestAllocGateServerSet(t *testing.T) {
	if proto.RaceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c, err := cache.New(cache.Config{MaxBytes: 64 << 20, Engine: "concurrent"})
	if err != nil {
		t.Fatal(err)
	}
	srv, bc := New(c), newBinConn()
	frames := setFrames(20_000)
	br := bytes.NewReader(nil)
	r := bufio.NewReaderSize(br, 16<<10)
	w := bufio.NewWriterSize(io.Discard, 16<<10)
	for _, pass := range []struct {
		keys string
		want float64
		what string
	}{{"new", 3, "value, key, entry"}, {"resident", 2, "value, key"}} {
		i := 0
		allocs := testing.AllocsPerRun(len(frames)-1, func() {
			br.Reset(frames[i])
			r.Reset(br)
			srv.dispatchBinary(r, w, bc)
			w.Flush()
			i++
		})
		if allocs != pass.want {
			t.Errorf("binary SET allocates %v times per %s key, want %v: %s", allocs, pass.keys, pass.want, pass.what)
		}
	}
}
