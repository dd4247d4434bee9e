package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"s3fifo/internal/proto"
)

// pipe is the pipelined-mode engine behind a Client: one connection,
// many requests in flight, matched to responses by request id. Writers
// append frames under the mutex and nudge a dedicated flusher goroutine,
// which yields once before flushing so every sender that is runnable at
// that moment gets to append first — a burst of N concurrent requests
// costs ~1 write syscall, not N. (Flushing inline from the last writer
// doesn't achieve this: responses wake the waiting senders one by one,
// so each would find itself alone in the write path and flush a single
// frame.) A dedicated reader goroutine (one per connection generation)
// delivers responses to waiting callers.
//
// Failure model: any I/O error on the connection fails every operation
// in flight on it (their bytes may be half-written or half-read; the
// request id matching cannot resynchronize a broken byte stream). Each
// failed caller then retries through its own attempt loop, redialing the
// shared connection at most once per generation.
type pipe struct {
	c        *Client
	window   chan struct{} // in-flight slots (capacity Options.Pipeline)
	flushReq chan struct{} // capacity 1: "the buffer has unflushed frames"

	mu      sync.Mutex
	conn    net.Conn
	w       *bufio.Writer
	gen     uint64            // bumped on every teardown; readLoop exits on mismatch
	idSeq   uint32            // last assigned request id; reseeded per generation (see redialLocked)
	pending map[uint32]*pcall // in-flight requests of the current generation
	closed  bool
}

// pcall is one in-flight request's rendezvous. Completion is signaled by
// a send on done (capacity 1) rather than a close so the struct and its
// channel are reusable: the pending-map ownership rules guarantee exactly
// one signaler per use, and the caller consumes the signal before the
// pcall goes back in the pool.
type pcall struct {
	done   chan struct{}
	status proto.Status
	value  []byte
	err    error
}

var pcallPool = sync.Pool{
	New: func() any { return &pcall{done: make(chan struct{}, 1)} },
}

func newPipe(c *Client) *pipe {
	p := &pipe{
		c:        c,
		window:   make(chan struct{}, c.opts.Pipeline),
		flushReq: make(chan struct{}, 1),
		pending:  make(map[uint32]*pcall),
	}
	go p.flushLoop()
	return p
}

// flushLoop ships batched frames. On each nudge it yields the processor
// once so every sender already runnable gets to append its frame, then
// flushes whatever accumulated. Senders signal after appending, so a
// frame can never be stranded: the signal that follows the last append
// guarantees a flush after it.
func (p *pipe) flushLoop() {
	for range p.flushReq {
		// Yield until the buffer stops growing: every yield gives workers
		// just woken by arriving responses a turn to append their next
		// frame, so batch sizes approach the in-flight window instead of
		// one frame per wakeup.
		prev := 0
		for {
			runtime.Gosched()
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				return
			}
			n := 0
			if p.w != nil {
				n = p.w.Buffered()
			}
			if n != prev {
				prev = n
				p.mu.Unlock()
				continue
			}
			if n > 0 {
				if err := p.w.Flush(); err != nil {
					p.failLocked(p.gen, err)
				}
			}
			p.mu.Unlock()
			break
		}
	}
}

// dial establishes the first connection (DialOptions path).
func (p *pipe) dial() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.redialLocked()
}

// redialLocked (re)connects and starts the generation's reader.
func (p *pipe) redialLocked() error {
	conn, err := dialTCP(p.c.addr, p.c.opts.DialTimeout)
	if err != nil {
		return err
	}
	p.conn = conn
	p.w = bufio.NewWriterSize(conn, 64<<10)
	p.gen++
	// Reseed the request-id sequence from the generation, spread across
	// the id space by the golden-ratio constant. Ids are only ever
	// matched against the current generation's pending map, but salting
	// the base makes the guarantee unconditional: a frame carrying an id
	// from an earlier connection generation (a delayed duplicate, a
	// middlebox replay, a server bug straddling the reconnect) cannot
	// collide with a live id until ~2^32 requests elapse within one
	// generation — at which point the stream fails loudly on the unknown
	// id rather than mis-delivering a response.
	p.idSeq = uint32(p.gen * 0x9E3779B1)
	p.pending = make(map[uint32]*pcall)
	go p.readLoop(p.gen, conn, bufio.NewReaderSize(conn, 64<<10))
	return nil
}

// failLocked tears down generation gen: the connection is closed and
// every in-flight call fails with err. A no-op if a newer generation
// already took over (that teardown already failed these calls).
func (p *pipe) failLocked(gen uint64, err error) {
	if p.gen != gen {
		return
	}
	p.gen++
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	for id, call := range p.pending {
		delete(p.pending, id)
		call.err = err
		call.done <- struct{}{}
	}
}

// fail is failLocked for callers not holding the mutex.
func (p *pipe) fail(gen uint64, err error) {
	p.mu.Lock()
	p.failLocked(gen, err)
	p.mu.Unlock()
}

// readLoop receives response frames for one connection generation and
// hands them to their waiting callers.
func (p *pipe) readLoop(gen uint64, conn net.Conn, r *bufio.Reader) {
	var hdr [proto.HeaderLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			p.fail(gen, err)
			return
		}
		h, err := proto.ParseResponseHeader(hdr[:])
		if err != nil {
			p.fail(gen, err)
			return
		}
		var value []byte
		if h.ValueLen > 0 {
			value = make([]byte, h.ValueLen)
			if _, err := io.ReadFull(r, value); err != nil {
				p.fail(gen, err)
				return
			}
		}
		p.mu.Lock()
		if p.gen != gen {
			p.mu.Unlock()
			return // torn down under us; the teardown failed all calls
		}
		call := p.pending[h.ID]
		delete(p.pending, h.ID)
		p.mu.Unlock()
		if call == nil {
			// The server answered an id we never sent (or answered twice):
			// the stream cannot be trusted.
			p.fail(gen, errors.New("client: response for unknown request id"))
			return
		}
		call.status = h.Status
		if h.Status == proto.StatusErr {
			call.err = &ServerError{Reason: string(value)}
		} else {
			call.value = value
		}
		call.done <- struct{}{}
	}
}

// attempt sends one request on the current connection (redialing a dead
// one) and waits for its response.
func (p *pipe) attempt(op proto.Op, key string, value []byte, ttl uint32) (proto.Status, []byte, error) {
	call := pcallPool.Get().(*pcall)
	call.status, call.value, call.err = 0, nil, nil
	// Encode outside the lock with a placeholder id; the real id is
	// assigned under the mutex — after any redial, so it always belongs
	// to the generation the frame is written on — and patched into the
	// frame's id field in place.
	buf := proto.GetBuf()
	*buf = proto.AppendRequest(*buf, op, ttl, 0, key, value)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		proto.PutBuf(buf)
		pcallPool.Put(call)
		return 0, nil, net.ErrClosed
	}
	if p.conn == nil {
		if err := p.redialLocked(); err != nil {
			p.mu.Unlock()
			proto.PutBuf(buf)
			pcallPool.Put(call)
			return 0, nil, err
		}
	}
	gen := p.gen
	p.idSeq++
	id := p.idSeq
	binary.BigEndian.PutUint32((*buf)[12:16], id)
	p.pending[id] = call
	_, werr := p.w.Write(*buf)
	if werr != nil {
		p.failLocked(gen, werr) // fails this call too, via pending
		p.mu.Unlock()
		proto.PutBuf(buf)
		<-call.done // consume the failure signal before pooling
		pcallPool.Put(call)
		return 0, nil, werr
	}
	p.mu.Unlock()
	proto.PutBuf(buf)
	// Nudge the flusher (it coalesces: one pending nudge is enough for
	// any number of appended frames).
	select {
	case p.flushReq <- struct{}{}:
	default:
	}

	if t := p.c.opts.OpTimeout; t > 0 {
		timer := time.NewTimer(t)
		select {
		case <-call.done:
			timer.Stop()
		case <-timer.C:
			// No way to cancel one request on a shared pipe without losing
			// frame accounting; a stuck server takes the connection down,
			// like the sync client's deadline does.
			p.fail(gen, fmt.Errorf("client: pipelined operation timed out after %v", t))
			<-call.done
		}
	} else {
		<-call.done
	}
	st, v, err := call.status, call.value, call.err
	pcallPool.Put(call)
	return st, v, err
}

// roundTrip is the pipelined operation loop: window admission, then
// attempt-with-retry following the same policy as Client.do.
func (p *pipe) roundTrip(op proto.Op, key string, value []byte, ttl uint32) (proto.Status, []byte, error) {
	p.window <- struct{}{}
	defer func() { <-p.window }()
	for attempt := 0; ; attempt++ {
		st, v, err := p.attempt(op, key, value, ttl)
		if err == nil {
			return st, v, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			return 0, nil, err // delivered and rejected: retrying cannot help
		}
		if errors.Is(err, net.ErrClosed) {
			return 0, nil, err
		}
		if attempt >= p.c.opts.Retries {
			return 0, nil, err
		}
		time.Sleep(p.c.backoff(attempt))
	}
}

// Get is the pipelined GET.
func (p *pipe) Get(key string) ([]byte, bool, error) {
	if err := checkKey(key); err != nil {
		return nil, false, err
	}
	st, v, err := p.roundTrip(proto.OpGet, key, nil, 0)
	if err != nil {
		return nil, false, err
	}
	if st != proto.StatusOK {
		return nil, false, nil
	}
	return v, true, nil
}

// Set is the pipelined SET.
func (p *pipe) Set(key string, value []byte, ttl time.Duration) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	if len(value) > proto.MaxValueLen {
		return false, &ServerError{Reason: "value too large"}
	}
	st, _, err := p.roundTrip(proto.OpSet, key, value, ttlSeconds(ttl))
	if err != nil {
		return false, err
	}
	return st == proto.StatusOK, nil
}

// Delete is the pipelined DELETE.
func (p *pipe) Delete(key string) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	st, _, err := p.roundTrip(proto.OpDelete, key, nil, 0)
	if err != nil {
		return false, err
	}
	return st == proto.StatusOK, nil
}

// close terminates the pipelined client: the connection drops and every
// in-flight operation fails with net.ErrClosed.
func (p *pipe) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var err error
	if p.conn != nil {
		err = p.conn.Close()
	}
	p.failLocked(p.gen, net.ErrClosed)
	// Wake the flusher so it observes closed and exits; a nudge already
	// in flight serves the same purpose.
	select {
	case p.flushReq <- struct{}{}:
	default:
	}
	return err
}
