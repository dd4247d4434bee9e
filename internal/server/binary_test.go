// End-to-end coverage for the binary protocol, the pipelined client, the
// memcached text dialect, and the batching/bounds satellites.
package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/proto"
)

// startServerOpts is startServer with server options.
func startServerOpts(t *testing.T, cfg cache.Config, opts ...Option) (string, *Server) {
	t.Helper()
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 1 << 20
	}
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(c, opts...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

func dialBinary(t *testing.T, addr string, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBinaryGetSetDeleteOverTheWire runs the full session in binary mode,
// same shape as the text-protocol test.
func TestBinaryGetSetDeleteOverTheWire(t *testing.T) {
	t.Run("engine="+served, func(t *testing.T) {
		addr, _ := startServerOpts(t, cache.Config{})
		c := dialBinary(t, addr, client.Options{Binary: true})

		if _, ok, err := c.Get("missing"); err != nil || ok {
			t.Fatalf("Get(missing) = %v, %v", ok, err)
		}
		if ok, err := c.Set("k", []byte("hello world")); err != nil || !ok {
			t.Fatalf("Set = %v, %v", ok, err)
		}
		v, ok, err := c.Get("k")
		if err != nil || !ok || string(v) != "hello world" {
			t.Fatalf("Get = %q, %v, %v", v, ok, err)
		}
		if existed, err := c.Delete("k"); err != nil || !existed {
			t.Fatalf("Delete = %v, %v", existed, err)
		}
		if existed, err := c.Delete("k"); err != nil || existed {
			t.Fatalf("second Delete = %v, %v", existed, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping: %v", err)
		}
	})
}

func TestBinaryTTLExpires(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{})
	c := dialBinary(t, addr, client.Options{Binary: true})
	if ok, err := c.SetWithTTL("k", []byte("v"), time.Second); err != nil || !ok {
		t.Fatalf("SetWithTTL = %v, %v", ok, err)
	}
	if _, ok, _ := c.Get("k"); !ok {
		t.Fatal("fresh TTL'd key missing")
	}
	// TTL is rounded up to whole seconds on the wire; wait it out.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := c.Get("k"); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("key survived its TTL")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestBinaryStats(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{})
	c := dialBinary(t, addr, client.Options{Binary: true})
	c.Set("k", []byte("v"))
	c.Get("k")
	stats, err := c.StatsRaw()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cmd_get", "cmd_set", "cmd_get_binary", "binary_connections", "hits"} {
		if _, ok := stats[want]; !ok {
			t.Errorf("StatsRaw missing %q (got %d keys)", want, len(stats))
		}
	}
	if stats["cmd_get_binary"] == "0" {
		t.Error("binary GET not counted in cmd_get_binary")
	}
}

// TestMixedProtocolsOneServer interleaves text and binary connections
// against the same server and cache: protocol detection is per-conn.
func TestMixedProtocolsOneServer(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{})
	text := dial(t, addr)
	bin := dialBinary(t, addr, client.Options{Binary: true})

	if ok, err := text.Set("shared", []byte("from-text")); err != nil || !ok {
		t.Fatalf("text Set = %v, %v", ok, err)
	}
	if v, ok, err := bin.Get("shared"); err != nil || !ok || string(v) != "from-text" {
		t.Fatalf("binary Get(text-set key) = %q, %v, %v", v, ok, err)
	}
	if ok, err := bin.Set("shared", []byte("from-binary")); err != nil || !ok {
		t.Fatalf("binary Set = %v, %v", ok, err)
	}
	if v, ok, err := text.Get("shared"); err != nil || !ok || string(v) != "from-binary" {
		t.Fatalf("text Get(binary-set key) = %q, %v, %v", v, ok, err)
	}
}

// TestPipelinedClient drives concurrent operations through one pipelined
// connection; correctness must hold with many requests in flight.
func TestPipelinedClient(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{MaxBytes: 8 << 20})
	c := dialBinary(t, addr, client.Options{Pipeline: 32})

	const n = 500
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i)
			val := []byte(fmt.Sprintf("value-%d", i))
			if ok, err := c.Set(key, val); err != nil || !ok {
				errs <- fmt.Errorf("Set(%s) = %v, %v", key, ok, err)
				return
			}
			v, ok, err := c.Get(key)
			if err != nil || !ok || string(v) != string(val) {
				errs <- fmt.Errorf("Get(%s) = %q, %v, %v", key, v, ok, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if stats, err := c.StatsRaw(); err != nil {
		t.Fatalf("pipelined StatsRaw: %v", err)
	} else if stats["cmd_get_binary"] == "0" {
		t.Error("pipelined gets not counted as binary")
	}
}

// TestPipelinedClientSurvivesServerRestart: in-flight ops on the dropped
// connection fail over via redial, consistent with the sync client.
func TestPipelinedClientSurvivesServerRestart(t *testing.T) {
	cfg := cache.Config{MaxBytes: 1 << 20}
	cc, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go srv.Serve(l)

	c := dialBinary(t, addr, client.Options{
		Pipeline:     8,
		Retries:      5,
		RetryBackoff: 10 * time.Millisecond,
	})
	if ok, err := c.Set("k", []byte("v")); err != nil || !ok {
		t.Fatalf("Set before restart = %v, %v", ok, err)
	}

	srv.Close()
	// Rebind the same port; a few tries in case the OS lags the release.
	cc2, _ := cache.New(cfg)
	srv2 := New(cc2)
	var l2 net.Listener
	for i := 0; i < 50; i++ {
		if l2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	if ok, err := c.Set("k2", []byte("v2")); err != nil || !ok {
		t.Fatalf("Set after restart = %v, %v (pipelined client did not redial)", ok, err)
	}
	if v, ok, err := c.Get("k2"); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get after restart = %q, %v, %v", v, ok, err)
	}
}

// TestBadFramesAreFatal: framing damage earns one error frame, then the
// connection closes. The stream is not resynchronized.
func TestBadFramesAreFatal(t *testing.T) {
	cases := map[string][]byte{
		"bad-opcode":    {0x80, 42, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'k'},
		"oversize-key":  {0x80, 1, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		"get-with-body": {0x80, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 1, 'k'},
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			addr, _ := startServerOpts(t, cache.Config{})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			hdr := make([]byte, proto.HeaderLen)
			if _, err := io.ReadFull(r, hdr); err != nil {
				t.Fatalf("reading error frame: %v", err)
			}
			h, err := proto.ParseResponseHeader(hdr)
			if err != nil {
				t.Fatalf("error frame unparseable: %v", err)
			}
			if h.Status != proto.StatusErr {
				t.Fatalf("status = %v, want StatusErr", h.Status)
			}
			msg := make([]byte, h.ValueLen)
			if _, err := io.ReadFull(r, msg); err != nil {
				t.Fatal(err)
			}
			// After the error frame the server must close: next read EOFs.
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := r.ReadByte(); err == nil {
				t.Fatal("connection still open after framing error")
			}
		})
	}
}

// TestTextLongLineRejected: the request line is bounded by the read
// buffer; an overlong line earns ERROR and a closed connection instead
// of unbounded buffering.
func TestTextLongLineRejected(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server hangs up after one buffer's worth, so the tail of this
	// write may be refused; the reply is what is asserted.
	conn.Write([]byte("get " + strings.Repeat("x", 1<<20)))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERROR") {
		t.Fatalf("overlong line answered %q, %v; want ERROR", line, err)
	}
}

// TestTextPipelineBatchesFlushes feeds a burst of pipelined text
// commands through handle via an in-memory conn and counts writes: the
// whole burst must come back in far fewer writes than responses.
func TestTextPipelineBatchesFlushes(t *testing.T) {
	cc, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cc)
	cli, rawSrv := net.Pipe()
	counting := &writeCountingConn{Conn: rawSrv}
	done := make(chan struct{})
	go func() {
		srv.handle(counting, &connStats{})
		close(done)
	}()

	const burst = 50
	var req strings.Builder
	req.WriteString("set k 5\r\nhello\r\n")
	for i := 0; i < burst; i++ {
		req.WriteString("get k\r\n")
	}
	req.WriteString("quit\r\n")
	go func() {
		cli.Write([]byte(req.String()))
	}()
	// Drain everything the server sends until it hangs up.
	buf := make([]byte, 1<<16)
	total := 0
	for {
		cli.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := cli.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	cli.Close()
	<-done
	out := string(buf[:total])
	if got := strings.Count(out, "VALUE "); got != burst {
		t.Fatalf("got %d VALUE responses, want %d\n%s", got, burst, out)
	}
	// net.Pipe has no buffering, so every Flush is exactly one Write call.
	// 50 gets answered individually would be ≥50 writes; batching should
	// collapse the pipelined burst into a handful.
	if w := counting.writes.Load(); w > 10 {
		t.Errorf("server used %d writes for a %d-command pipelined burst; responses are not batched", w, burst)
	}
}

type writeCountingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestMemcachedDialect speaks raw memcached text at the server.
func TestMemcachedDialect(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(s string) {
		t.Helper()
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want ...string) {
		t.Helper()
		for _, w := range want {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("expecting %q: %v", w, err)
			}
			if got := strings.TrimRight(line, "\r\n"); got != w {
				t.Fatalf("got %q, want %q", got, w)
			}
		}
	}

	// 5-token memcached set: key flags exptime bytes.
	send("set mk 7 0 5\r\nhello\r\n")
	expect("STORED")
	// noreply set answers nothing; prove it by following with version.
	send("set mk2 0 0 2 noreply\r\nhi\r\nversion\r\n")
	expect("VERSION s3cached-s3fifo")
	// Multi-key get flips the connection into the memcached dialect:
	// VALUE lines carry a flags column.
	send("get mk mk2 nope\r\n")
	expect("VALUE mk 0 5", "hello", "VALUE mk2 0 2", "hi", "END")
	// gets adds a cas column.
	send("gets mk\r\n")
	expect("VALUE mk 0 5 0", "hello", "END")
	// delete noreply answers nothing.
	send("delete mk2 noreply\r\nget mk2\r\n")
	expect("END")
	// Malformed memcached sets get CLIENT_ERROR, not a dropped conn.
	send("set bad x 0 5\r\n")
	expect("CLIENT_ERROR bad flags")
	send("set bad 0 -1 5\r\n")
	expect("CLIENT_ERROR bad exptime")
}
