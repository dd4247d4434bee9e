// The borrowed-key contract, checked from the socket side: lookups hand
// the cache keys that alias the connection's read buffer, and the buffer
// is reused as soon as a frame has been dispatched. The harness here does
// the reuse itself, at once and with a recognisable byte, so a key that
// something kept without cloning shows up as poison in that something.
package server

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/internal/proto"
)

const poisonByte = 0xA5

// feedReader is a connection's inbound side under test control: Read
// returns what has been fed and not yet read, and counts its calls so the
// harness can tell whether a step refilled the read buffer.
type feedReader struct {
	pending bytes.Buffer
	reads   int
}

func (f *feedReader) Read(p []byte) (int, error) {
	f.reads++
	return f.pending.Read(p)
}

// poisonAfter runs step — the dispatch of one whole request that is
// already in r's buffer — and then overwrites, in the buffer, every byte
// the step consumed. The view of the buffer is taken beforehand; a step
// that made the reader fetch more has moved the bytes, and is left alone.
func poisonAfter(r *bufio.Reader, src *feedReader, step func()) {
	r.Peek(1) // pull in what has been fed
	view, _ := r.Peek(r.Buffered())
	reads := src.reads
	step()
	if consumed := len(view) - r.Buffered(); src.reads == reads && consumed > 0 {
		for i := range view[:consumed] {
			view[i] = poisonByte
		}
	}
}

// poisonedConn drives one connection's dispatch loop frame by frame,
// poisoning after each, and hands back what the server answered.
type poisonedConn struct {
	t   *testing.T
	srv *Server
	src feedReader
	r   *bufio.Reader
	out bytes.Buffer
	w   *bufio.Writer
	bc  *binConn
	tc  *textConn
}

func newPoisonedConn(t *testing.T, srv *Server) *poisonedConn {
	p := &poisonedConn{t: t, srv: srv, bc: newBinConn(), tc: newTextConn()}
	p.r = bufio.NewReaderSize(&p.src, 16<<10)
	p.w = bufio.NewWriterSize(&p.out, 16<<10)
	return p
}

// binary dispatches one binary request and returns the response's status
// and value.
func (p *poisonedConn) binary(op proto.Op, ttl uint32, key string, value []byte) (proto.Status, []byte) {
	p.t.Helper()
	p.src.pending.Write(proto.AppendRequest(nil, op, ttl, 7, key, value))
	poisonAfter(p.r, &p.src, func() {
		if p.srv.dispatchBinary(p.r, p.w, p.bc) {
			p.t.Fatalf("%v %q: dispatch reported the connection dead", op, key)
		}
	})
	p.w.Flush()
	h, err := proto.ParseResponseHeader(p.out.Bytes())
	if err != nil {
		p.t.Fatalf("%v %q: response: %v", op, key, err)
	}
	v := append([]byte(nil), p.out.Bytes()[proto.HeaderLen:proto.HeaderLen+h.ValueLen]...)
	p.out.Reset()
	return h.Status, v
}

// text dispatches one text command (payload line included, if any) and
// returns the server's reply.
func (p *poisonedConn) text(cmd string) string {
	p.t.Helper()
	p.src.pending.WriteString(cmd)
	poisonAfter(p.r, &p.src, func() {
		line, err := readLine(p.r)
		if err != nil {
			p.t.Fatalf("%q: %v", cmd, err)
		}
		if _, err := p.srv.dispatch(p.tc, p.r, p.w, line); err != nil {
			p.t.Fatalf("%q: %v", cmd, err)
		}
	})
	p.w.Flush()
	reply := p.out.String()
	p.out.Reset()
	return reply
}

// assertNoPoison fails for every key, in any table that outlives a
// request, that carries the poison byte.
func assertNoPoison(t *testing.T, srv *Server) {
	t.Helper()
	bad := func(where, key string) {
		if strings.IndexByte(key, poisonByte) >= 0 {
			t.Errorf("%s holds a key that aliased the read buffer: %q", where, key)
		}
	}
	for _, ks := range srv.cache.Sample(1 << 16) {
		bad("engine", ks.Key)
	}
	if co := srv.co; co != nil {
		co.mu.Lock()
		for key := range co.slots {
			bad("fill table", key)
		}
		co.mu.Unlock()
	}
}

// TestPoisonedReadBuffer walks both protocols through every request that
// turns a looked-up key into a stored one — GET miss → flash hit →
// promote, GET miss → implicit fill leader, GETX → lease, negative SETX,
// DELETE — over a real flash tier, poisoning the read buffer after every
// frame. Afterwards each table must hold the keys as the client sent them,
// and the cache must still answer for them. The engine alone is checked
// for both engines by package cache's TestLookupsDoNotRetainTheirKey. Run
// under -race (make race does): checkptr vets the unsafe.String views.
func TestPoisonedReadBuffer(t *testing.T) {
	for _, wire := range []string{"binary", "text"} {
		t.Run(served+"/"+wire, func(t *testing.T) {
			c, err := cache.New(cache.Config{MaxBytes: 16 << 10, Shards: 1,
				FlashDir: t.TempDir(), FlashBytes: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			srv := New(c, WithAntiStampede(AntiStampede{Coalesce: true, CoalesceWait: time.Millisecond, Grace: time.Second}))
			p := newPoisonedConn(t, srv)

			// One vocabulary over both wires.
			set := func(key string, v []byte) {
				t.Helper()
				if wire == "text" {
					if got := p.text(fmt.Sprintf("set %s %d\r\n%s\r\n", key, len(v), v)); got != "STORED\r\n" {
						t.Fatalf("set %s: %q", key, got)
					}
				} else if st, _ := p.binary(proto.OpSet, 0, key, v); st != proto.StatusOK {
					t.Fatalf("set %s: %v", key, st)
				}
			}
			get := func(key string) ([]byte, bool) {
				t.Helper()
				if wire == "text" {
					reply := p.text("get " + key + "\r\n")
					head, rest, _ := strings.Cut(reply, "\r\n")
					if head == "END" {
						return nil, false
					}
					if !strings.HasPrefix(head, "VALUE "+key+" ") {
						t.Fatalf("get %s: %q", key, reply)
					}
					return []byte(strings.TrimSuffix(rest, "\r\nEND\r\n")), true
				}
				st, v := p.binary(proto.OpGet, 0, key, nil)
				return v, st == proto.StatusOK
			}
			del := func(key string) bool {
				t.Helper()
				if wire == "text" {
					return p.text("delete "+key+"\r\n") == "DELETED\r\n"
				}
				st, _ := p.binary(proto.OpDelete, 0, key, nil)
				return st == proto.StatusOK
			}
			// getx returns the lease token it was granted, or ok=false.
			getx := func(key string) (token uint64, ok bool) {
				t.Helper()
				if wire == "text" {
					var tok uint64
					if _, err := fmt.Sscanf(p.text("getx "+key+"\r\n"), "LEASE %x\r\nEND", &tok); err != nil {
						return 0, false
					}
					return tok, true
				}
				st, v := p.binary(proto.OpGetx, 0, key, nil)
				if st != proto.StatusLease {
					return 0, false
				}
				tok, _ := proto.ParseLeaseToken(v)
				return tok, true
			}
			setxNegative := func(key string, tok uint64) {
				t.Helper()
				if wire == "text" {
					if got := p.text(fmt.Sprintf("setx %s %016x neg 60\r\n", key, tok)); got != "STORED\r\n" {
						t.Fatalf("setx %s neg: %q", key, got)
					}
					return
				}
				var tb [proto.LeaseTokenLen]byte
				proto.PutLeaseToken(tb[:], tok)
				if st, _ := p.binary(proto.OpSetx, proto.SetxNegativeFlag|60, key, tb[:]); st != proto.StatusOK {
					t.Fatalf("setx %s neg: %v", key, st)
				}
			}

			value := func(key string) []byte { return bytes.Repeat([]byte(key[len(key)-1:]), 300) }
			const keys = 200 // ~60 KB through a 16 KB cache: most of them end on flash
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%03d", i)
				set(key, value(key))
			}

			// GET miss -> flash hit -> promote.
			promotions := c.Stats().Promotions
			for _, key := range []string{"key-000", "key-001", "key-002"} {
				if v, ok := get(key); !ok || !bytes.Equal(v, value(key)) {
					t.Fatalf("get %s from flash: %d bytes, %v", key, len(v), ok)
				}
			}
			if c.Stats().Promotions == promotions {
				t.Fatal("no GET was served from flash and promoted")
			}
			// GET miss -> this connection leads the fill: a table slot.
			if _, ok := get("fill-1"); ok {
				t.Fatal("fill-1 present")
			}
			// GETX miss -> lease: another slot.
			if _, ok := getx("lease-1"); !ok {
				t.Fatal("getx lease-1: no lease")
			}
			// GETX -> lease -> negative SETX: the negative table.
			tok, ok := getx("neg-1")
			if !ok {
				t.Fatal("getx neg-1: no lease")
			}
			setxNegative("neg-1", tok)
			// DELETE, of a DRAM-resident key and of one only on flash.
			last := fmt.Sprintf("key-%03d", keys-1)
			if !del(last) || !del("key-003") {
				t.Fatal("delete of a held key answered not found")
			}

			assertNoPoison(t, srv)
			srv.co.mu.Lock()
			for _, key := range []string{"fill-1", "lease-1"} {
				if srv.co.slots[key] == nil {
					t.Errorf("fill table has no slot under %q", key)
				}
			}
			srv.co.mu.Unlock()
			// The negative table is the cache's; it answers for itself.
			if st := c.Stats(); st.NegativeEntries != 1 {
				t.Errorf("%d negative entries, want 1", st.NegativeEntries)
			}
			if _, state := c.GetEx("neg-1", 0); state != cache.LookupNegative {
				t.Errorf("neg-1 looked up as %v, want the negative entry", state)
			}
			// Every key still answers with its own value, from whichever tier
			// holds it (the flash index is keyed by strings too), and the
			// deleted ones do not.
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%03d", i)
				v, ok := get(key)
				if deleted := key == last || key == "key-003"; deleted {
					if ok {
						t.Errorf("%s readable after its delete", key)
					}
				} else if !ok || !bytes.Equal(v, value(key)) {
					t.Errorf("%s: %d bytes, %v", key, len(v), ok)
				}
			}
		})
	}
}
