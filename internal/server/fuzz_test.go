package server

import (
	"bufio"
	"bytes"
	"io"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/internal/proto"
)

// FuzzDispatch feeds arbitrary byte streams through the command loop the
// way handle does — the parser must never panic, never over-allocate on a
// lying length prefix, and fail truncated payloads by dropping the
// connection, not wedging.
func FuzzDispatch(f *testing.F) {
	seeds := []string{
		"get k\r\n",
		"set k 5\r\nhello\r\n",
		"set k 5 60\r\nhello\r\n",
		"set k 999999999999999999999\r\n",
		"set k -1\r\n",
		"set k 10\r\nshort",
		"set k 3 99999999999999999999\r\nabc\r\n",
		"delete k\r\nstats\r\nquit\r\n",
		"get\r\nget a b\r\n\r\n",
		"get \x00\xff\x7f\r\n",
		"bogus\r\nset\r\nset k\r\n",
		"set k 2\r\nhi\nset k 2\r\nhi\r\n", // bare-\n terminator
		"set k 0\r\n\r\nget k\r\n",
		// Memcached-dialect seeds: 5-token set, noreply, multi-get, gets,
		// version, and malformed variants of each.
		"set k 0 0 5\r\nhello\r\nget k\r\n",
		"set k 0 0 5 noreply\r\nhello\r\nget k j\r\n",
		"set k x 0 5\r\nhello\r\n",
		"set k 0 -1 5\r\nhello\r\n",
		"gets k j\r\nversion\r\ndelete k noreply\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := New(c)
		tc := newTextConn()
		r := bufio.NewReaderSize(bytes.NewReader(data), 16<<10)
		w := bufio.NewWriterSize(io.Discard, 16<<10)
		for {
			line, err := readLine(r)
			if err != nil {
				return
			}
			quit, err := srv.dispatch(tc, r, w, line)
			if err != nil || quit {
				return
			}
			w.Flush()
		}
	})
}

// FuzzDispatchBinary drives the binary frame loop with arbitrary byte
// streams: the server must never panic, never allocate from a lying
// length field, and treat any framing damage as fatal for the
// connection rather than resynchronizing on attacker-chosen bytes. The
// read buffer is poisoned behind every frame (see borrow_test.go), so
// whatever sequence the fuzzer finds, no table may end up holding a key
// that aliased it.
func FuzzDispatchBinary(f *testing.F) {
	seeds := [][]byte{
		proto.AppendRequest(nil, proto.OpGet, 0, 1, "k", nil),
		proto.AppendRequest(nil, proto.OpSet, 0, 2, "k", []byte("hello")),
		proto.AppendRequest(nil, proto.OpSet, 60, 3, "k", []byte("hello")),
		proto.AppendRequest(nil, proto.OpDelete, 0, 4, "k", nil),
		proto.AppendRequest(nil, proto.OpStats, 0, 5, "", nil),
		proto.AppendRequest(nil, proto.OpPing, 0, 6, "", nil),
		// Pipelined burst.
		proto.AppendRequest(
			proto.AppendRequest(
				proto.AppendRequest(nil, proto.OpSet, 0, 7, "k", []byte("v")),
				proto.OpGet, 0, 8, "k", nil),
			proto.OpDelete, 0, 9, "k", nil),
		// Truncated header, truncated payload, bad magic, bad opcode,
		// oversize lengths.
		proto.AppendRequest(nil, proto.OpGet, 0, 1, "k", nil)[:proto.HeaderLen-3],
		proto.AppendRequest(nil, proto.OpSet, 0, 1, "k", []byte("hello"))[:proto.HeaderLen+2],
		{0x79, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'k'},
		{0x80, 42, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'k'},
		{0x80, 1, 0xff, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1},
		// Lease protocol: GETX (TTL field = grace), SETX (token-prefixed
		// value; TTL bit 31 = negative fill), and malformed variants — a
		// huge grace window, a token-only SETX, a negative fill smuggling a
		// payload, a short token, GETX carrying value bytes.
		proto.AppendRequest(nil, proto.OpGetx, 30, 10, "k", nil),
		proto.AppendRequest(nil, proto.OpGetx, 0xffffffff, 11, "k", nil),
		proto.AppendRequest(nil, proto.OpSetx, 60, 12, "k", []byte("tokens!!payload")),
		proto.AppendRequest(nil, proto.OpSetx, proto.SetxNegativeFlag|5, 13, "k", []byte("tokens!!")),
		proto.AppendRequest(nil, proto.OpSetx, proto.SetxNegativeFlag, 14, "k", []byte("tokens!!payload")),
		proto.AppendRequest(nil, proto.OpSetx, 0, 15, "k", []byte("short")),
		proto.AppendRequest(nil, proto.OpGetx, 1, 16, "k", []byte("nope")),
		// GETX then the SETX that would redeem it, pipelined.
		proto.AppendRequest(
			proto.AppendRequest(nil, proto.OpGetx, 5, 17, "k", nil),
			proto.OpSetx, 5, 18, "k", []byte("\x00\x00\x00\x00\x00\x00\x00\x01fill")),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Anti-stampede on, with a sub-ms park so coalesced misses (which
		// run through the same frame loop) resolve within the fuzz budget.
		srv := New(c, WithAntiStampede(AntiStampede{
			Coalesce: true, CoalesceWait: time.Millisecond, Grace: time.Second,
		}))
		bc := newBinConn()
		// The poison byte means nothing to the protocol; keeping it out of
		// the input makes every occurrence afterwards the harness's.
		var src feedReader
		src.pending.Write(bytes.ReplaceAll(data, []byte{poisonByte}, []byte{poisonByte - 1}))
		r := bufio.NewReaderSize(&src, 16<<10)
		w := bufio.NewWriterSize(io.Discard, 16<<10)
		for fatal := false; !fatal; {
			poisonAfter(r, &src, func() { fatal = srv.dispatchBinary(r, w, bc) })
			w.Flush()
		}
		assertNoPoison(t, srv)
	})
}

// FuzzDispatchGetx drives the text-dialect lease commands (getx/setx)
// through the command loop with the anti-stampede machinery live: the
// parser must never panic on malformed grace windows, oversized or
// non-hex tokens, lying lengths, or token/lease mismatches, and a
// parked lookup must always resolve (the 1ms wait bounds the fuzz
// iteration; correctness of the wait path itself is coalesce_test.go's
// job).
func FuzzDispatchGetx(f *testing.F) {
	seeds := []string{
		"getx k\r\n",
		"getx k 30\r\n",
		"getx k 0\r\n",
		"getx k 99999999999999999999\r\n",
		"getx k -1\r\n",
		"getx\r\ngetx a b c\r\n",
		"getx \x00\xff\x7f 1\r\n",
		"setx k 0011223344556677 5\r\nhello\r\n",
		"setx k 0011223344556677 5 60\r\nhello\r\n",
		"setx k 0011223344556677 neg\r\n",
		"setx k 0011223344556677 neg 60\r\n",
		"setx k deadbeefdeadbeefdeadbeef 5\r\nhello\r\n", // oversized token
		"setx k zz 5\r\nhello\r\n",                       // non-hex token
		"setx k 0011223344556677 -1\r\n",
		"setx k 0011223344556677 3 4294967295\r\nabc\r\n", // ttl above 31 bits
		"setx k 0011223344556677 10\r\nshort",             // truncated payload
		"setx\r\nsetx k\r\nsetx k 0011223344556677\r\n",
		// Grant a real lease, then redeem with the wrong token; then a
		// delete racing a getx.
		"getx k 5\r\nsetx k 0011223344556677 5\r\nhello\r\n",
		"set k 2\r\nhi\r\ngetx k\r\ndelete k\r\ngetx k 1\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := New(c, WithAntiStampede(AntiStampede{
			Coalesce: true, CoalesceWait: time.Millisecond, Grace: time.Second,
		}))
		tc := newTextConn()
		r := bufio.NewReaderSize(bytes.NewReader(data), 16<<10)
		w := bufio.NewWriterSize(io.Discard, 16<<10)
		for {
			line, err := readLine(r)
			if err != nil {
				return
			}
			quit, err := srv.dispatch(tc, r, w, line)
			if err != nil || quit {
				return
			}
			w.Flush()
		}
	})
}
