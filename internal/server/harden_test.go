// Hardening tests: accept-loop resilience, the max-conns cap, and
// per-connection deadlines.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/internal/proto"
)

// flakyListener fails the first n Accepts with a transient error, then
// delegates to the real listener.
type flakyListener struct {
	net.Listener
	remaining atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.remaining.Add(-1) >= 0 {
		return nil, errors.New("accept: resource temporarily unavailable")
	}
	return l.Listener.Accept()
}

func TestServeRetriesTransientAcceptErrors(t *testing.T) {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(c)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.remaining.Store(3)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(fl) }()
	t.Cleanup(func() { srv.Close(); <-done })

	// The server must survive the failed Accepts and serve this client.
	conn, err := net.DialTimeout("tcp", inner.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial after transient accept errors: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "set k 2\r\nhi\r\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "STORED" {
		t.Fatalf("roundtrip after accept errors: %q, %v", line, err)
	}
	if got := srv.acceptRetries.Load(); got != 3 {
		t.Errorf("acceptRetries = %d, want 3", got)
	}
}

func TestServeReturnsOnListenerClose(t *testing.T) {
	c, _ := cache.New(cache.Config{MaxBytes: 1 << 16})
	srv := New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	// Closing the listener out from under Serve (not srv.Close) must
	// still end the loop, not spin retrying net.ErrClosed.
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept retrying a closed listener")
	}
	srv.Close()
}

// roundtrip runs one set command on conn to prove the server fully
// registered it.
func roundtrip(t *testing.T, conn net.Conn, key string) {
	t.Helper()
	fmt.Fprintf(conn, "set %s 1\r\nx\r\n", key)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "STORED" {
		t.Fatalf("roundtrip on %s: %q, %v", key, line, err)
	}
}

func TestMaxConnsCap(t *testing.T) {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(c, WithMaxConns(2))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	addr := l.Addr().String()

	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	roundtrip(t, c1, "a")
	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	roundtrip(t, c2, "b")

	// Third connection: told off and closed.
	c3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(c3)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERROR too many connections") {
		t.Fatalf("over-cap connection got %q, %v", line, err)
	}
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("over-cap connection left open")
	}
	if got := srv.connsRejected.Load(); got != 1 {
		t.Errorf("connsRejected = %d, want 1", got)
	}

	// Freeing a slot readmits new clients.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.connsCurrent() >= 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c4, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	roundtrip(t, c4, "d")
}

func TestIdleConnTimeout(t *testing.T) {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(c, WithConnTimeout(50*time.Millisecond))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundtrip(t, conn, "live") // an active command resets the idle clock
	// Then go silent: the server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
		t.Fatal("idle connection not closed by server")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.connsCurrent() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.connsCurrent(); n != 0 {
		t.Errorf("connsCurrent = %d after idle timeout", n)
	}
}

// TestMalformedInputNoGoroutineLeak hammers the server with garbage and
// checks every per-connection goroutine winds down.
func TestMalformedInputNoGoroutineLeak(t *testing.T) {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 16})
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
	baseline := runtime.NumGoroutine()

	payloads := []string{
		"set k 999999999\r\nshort",        // length far beyond the payload
		"set k 5\r\nab",                   // truncated payload
		"get \x00\xff\r\n",                // binary junk in the key
		"\r\n\r\n\r\n",                    // empty commands
		"set k 3 9999999999999999999\r\n", // ttl overflow
		strings.Repeat("x", 64<<10),       // one huge unterminated line
	}
	for _, p := range payloads {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte(p))
		conn.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.connsCurrent() == 0 && runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d, conns %d",
		baseline, runtime.NumGoroutine(), srv.connsCurrent())
}

// deadlineCountingConn counts deadline updates: each is a timer
// modification under the runtime's netpoll lock, worth avoiding per frame.
type deadlineCountingConn struct {
	net.Conn
	deadlines *atomic.Int64
}

func (c deadlineCountingConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c deadlineCountingConn) SetWriteDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

type deadlineCountingListener struct {
	net.Listener
	deadlines *atomic.Int64
}

func (l deadlineCountingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return deadlineCountingConn{conn, l.deadlines}, nil
}

// TestDeadlinesArmedOnlyBeforeBlockingReads: with a connection timeout
// set, a pipelined burst of 16 requests costs two deadline updates — the
// write deadline before its one flush and the read deadline before the
// wait for the next burst — not one per frame, on both protocols; and the
// timeout still does its job, hanging up a connection that goes quiet.
func TestDeadlinesArmedOnlyBeforeBlockingReads(t *testing.T) {
	const (
		burst   = 16
		bursts  = 10
		timeout = 300 * time.Millisecond
	)
	wires := map[string]struct {
		request  []byte
		replyLen int
	}{
		"binary": {proto.AppendRequest(nil, proto.OpGet, 0, 1, "absent", nil), proto.HeaderLen},
		"text":   {[]byte("get absent\r\n"), len("END\r\n")},
	}
	for name, wire := range wires {
		t.Run(name, func(t *testing.T) {
			c, err := cache.New(cache.Config{MaxBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			srv := New(c, WithConnTimeout(timeout))
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var deadlines atomic.Int64
			go srv.Serve(deadlineCountingListener{inner, &deadlines})
			t.Cleanup(func() { srv.Close() })

			conn, err := net.Dial("tcp", inner.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			replies := make([]byte, burst*wire.replyLen)
			roundtripBurst := func() {
				t.Helper()
				// One write, one segment: the server reads the burst whole.
				if _, err := conn.Write(bytes.Repeat(wire.request, burst)); err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(conn, replies); err != nil {
					t.Fatal(err)
				}
			}
			roundtripBurst() // protocol sniff and first arm are not steady state
			before := deadlines.Load()
			for i := 0; i < bursts; i++ {
				roundtripBurst()
			}
			// The arm before the wait for burst n+1 can land on either side of
			// our read of the count: one update of slack.
			if got := deadlines.Load() - before; got > 2*bursts+1 {
				t.Errorf("%d deadline updates for %d bursts of %d requests, want at most 2 a burst", got, bursts, burst)
			}

			// Quiet now: the server must still hang up.
			start := time.Now()
			if _, err := conn.Read(replies); err == nil {
				t.Fatal("idle connection got data, not a hang-up")
			}
			if idle := time.Since(start); idle < timeout/2 || idle > 5*time.Second {
				t.Errorf("idle connection closed after %v, timeout is %v", idle, timeout)
			}
		})
	}
}
