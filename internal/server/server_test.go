package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
)

// startServer spins up a server on a random port and returns its address.
func startServer(t *testing.T, cfg cache.Config) (string, *Server) {
	t.Helper()
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 1 << 20
	}
	c, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// served is the engine a server over a cache.Config that names none runs
// on, and the only one s3cached serves. The server tests run on it alone;
// package cache runs the policy engine's matrices.
const served = "concurrent"

// TestGetSetDeleteOverTheWire runs the full serving session.
func TestGetSetDeleteOverTheWire(t *testing.T) {
	t.Run("engine="+served, func(t *testing.T) {
		addr, _ := startServer(t, cache.Config{})
		c := dial(t, addr)

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
	})
}

func TestBinaryValuesSurvive(t *testing.T) {
	addr, _ := startServer(t, cache.Config{})
	c := dial(t, addr)
	// Values containing \r\n and NULs must round-trip (length-prefixed).
	value := []byte("a\r\nb\x00c\nEND\r\nVALUE trap 3\r\n")
	if ok, err := c.Set("bin", value); err != nil || !ok {
		t.Fatal(ok, err)
	}
	v, ok, err := c.Get("bin")
	if err != nil || !ok || string(v) != string(value) {
		t.Fatalf("binary round trip failed: %q %v %v", v, ok, err)
	}
}

func TestEmptyValue(t *testing.T) {
	addr, _ := startServer(t, cache.Config{})
	c := dial(t, addr)
	if ok, err := c.Set("empty", nil); err != nil || !ok {
		t.Fatal(ok, err)
	}
	v, ok, err := c.Get("empty")
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value: %q %v %v", v, ok, err)
	}
}

// TestStatsOverTheWire also pins the default: a server over a plain
// cache.Config{} reports STAT engine concurrent.
func TestStatsOverTheWire(t *testing.T) {
	t.Run("engine="+served, func(t *testing.T) {
		addr, _ := startServer(t, cache.Config{})
		c := dial(t, addr)
		c.Set("a", []byte("1"))
		c.Get("a")
		c.Get("b")
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st["hits"] != 1 || st["misses"] != 1 || st["sets"] != 1 {
			t.Errorf("stats = %v", st)
		}
		if st["capacity"] == 0 {
			t.Error("capacity missing from stats")
		}
		// The non-numeric engine stat is skipped by Stats() but visible
		// through the typed and raw views.
		raw, err := c.StatsRaw()
		if err != nil {
			t.Fatal(err)
		}
		if raw["engine"] != served {
			t.Errorf("STAT engine %s, want %s", raw["engine"], served)
		}
		ts, err := c.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		if ts.Engine != served || ts.Hits != 1 || ts.Capacity == 0 {
			t.Errorf("typed stats = %+v", ts)
		}
	})
}

func TestTTLOverTheWire(t *testing.T) {
	addr, _ := startServer(t, cache.Config{})
	c := dial(t, addr)
	if ok, err := c.SetWithTTL("t", []byte("v"), time.Second); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if _, ok, _ := c.Get("t"); !ok {
		t.Fatal("fresh TTL entry missing")
	}
	// We cannot fake the server's clock over TCP; just verify the command
	// was accepted and the entry behaves until then.
}

func TestProtocolErrorsKeepConnectionUsable(t *testing.T) {
	addr, _ := startServer(t, cache.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(s string) string {
		t.Helper()
		fmt.Fprintf(conn, "%s\r\n", s)
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v", s, err)
		}
		return strings.TrimRight(line, "\r\n")
	}
	if got := send("bogus cmd"); !strings.HasPrefix(got, "ERROR") {
		t.Errorf("bogus command: %q", got)
	}
	if got := send("get"); !strings.HasPrefix(got, "ERROR") {
		t.Errorf("get w/o key: %q", got)
	}
	if got := send("set k notanumber"); !strings.HasPrefix(got, "ERROR") {
		t.Errorf("bad length: %q", got)
	}
	if got := send("set k -1"); !strings.HasPrefix(got, "ERROR") {
		t.Errorf("negative length: %q", got)
	}
	if got := send(fmt.Sprintf("set %s 1", strings.Repeat("x", 300))); !strings.HasPrefix(got, "ERROR") {
		t.Errorf("oversized key: %q", got)
	}
	// The connection must still work after all those errors.
	fmt.Fprintf(conn, "set ok 2\r\nhi\r\n")
	line, _ := r.ReadString('\n')
	if strings.TrimSpace(line) != "STORED" {
		t.Errorf("connection broken after protocol errors: %q", line)
	}
}

func TestConcurrentClients(t *testing.T) {
	t.Run("engine="+served, testConcurrentClients)
}

func testConcurrentClients(t *testing.T) {
	addr, srv := startServer(t, cache.Config{MaxBytes: 1 << 20, Shards: 8})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("key-%d-%d", g, i%50)
				if v, ok, err := c.Get(key); err != nil {
					t.Error(err)
					return
				} else if ok && len(v) != 8 {
					t.Errorf("corrupt value %q", v)
					return
				} else if !ok {
					if _, err := c.Set(key, []byte("12345678")); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if srv.cache.Used() > srv.cache.Capacity() {
		t.Error("capacity exceeded under concurrent clients")
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	c, _ := cache.New(cache.Config{MaxBytes: 1 << 16})
	srv := New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Serve returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// BenchmarkServerGetHitLoopback measures the full text round trip over
// TCP loopback; BenchmarkServerGetHit (bench_test.go) measures the
// in-process binary dispatch path.
func BenchmarkServerGetHitLoopback(b *testing.B) {
	c, _ := cache.New(cache.Config{MaxBytes: 1 << 24})
	srv := New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	cl, err := client.Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cl.Set("bench", make([]byte, 256))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := cl.Get("bench"); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
