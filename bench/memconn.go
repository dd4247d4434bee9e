package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// An in-memory, buffered net.Listener for the server rung: the real
// server.Serve loop runs over it with no kernel in the path, and the
// server's end counts its Read and Write calls, which is how flush
// batching (conn_reads_per_kop, conn_writes_per_kop) is seen.

// byteQueue is one direction of a connection: an unbounded buffer a
// writer appends to and a reader drains.
type byteQueue struct {
	mu     sync.Mutex
	ready  *sync.Cond
	buf    []byte
	closed bool
}

func newByteQueue() *byteQueue {
	q := &byteQueue{}
	q.ready = sync.NewCond(&q.mu)
	return q
}

func (q *byteQueue) write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, io.ErrClosedPipe
	}
	q.buf = append(q.buf, p...)
	q.ready.Signal()
	return len(p), nil
}

func (q *byteQueue) read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 {
		if q.closed {
			return 0, io.EOF
		}
		q.ready.Wait()
	}
	n := copy(p, q.buf)
	q.buf = q.buf[:copy(q.buf, q.buf[n:])]
	return n, nil
}

func (q *byteQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.ready.Broadcast()
	q.mu.Unlock()
}

// memConn is one end of an in-memory connection.
type memConn struct {
	in, out       *byteQueue
	reads, writes atomic.Uint64
}

// memPipe returns the two ends of a connection.
func memPipe() (a, b *memConn) {
	ab, ba := newByteQueue(), newByteQueue()
	return &memConn{in: ba, out: ab}, &memConn{in: ab, out: ba}
}

func (c *memConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.in.read(p)
}

func (c *memConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.out.write(p)
}

func (c *memConn) Close() error {
	c.in.close()
	c.out.close()
	return nil
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// memListener hands out the server ends of dialed connections.
type memListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// dial connects to the listener and returns both ends: the caller drives
// the client end and reads the server end's counters.
func (l *memListener) dial() (clientEnd, serverEnd *memConn, err error) {
	clientEnd, serverEnd = memPipe()
	select {
	case l.conns <- serverEnd:
		return clientEnd, serverEnd, nil
	case <-l.done:
		return nil, nil, net.ErrClosed
	}
}
