package server

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"sync"
	"time"
	"unsafe"

	"s3fifo/internal/proto"
)

// binConn is per-connection binary-protocol state: the command counters,
// the idle timer, and a scratch array for outgoing response headers so
// encoding never touches the heap.
//
// wmu serializes the buffered writer between the connection goroutine
// and the parked-lookup responder goroutines (coalesced GETs and GETX
// followers answer out of order, from their own goroutine, once the
// in-flight fill resolves — the frame loop must not block on them, and
// they cannot wait for the frame loop, which may itself be blocked
// reading). Uncontended lock/unlock costs nothing the allocation gates
// can see.
type binConn struct {
	stats   *connStats
	idle    idleTimer
	scratch [proto.HeaderLen]byte
	wmu     sync.Mutex
}

// handleBinary runs the binary-protocol frame loop. Responses are
// batched into the write buffer and flushed only when no further
// complete request is already readable — one writev-style syscall per
// pipelined burst, which is where the protocol's throughput comes from.
func (s *Server) handleBinary(r *bufio.Reader, w *bufio.Writer, bc *binConn) {
	for {
		// About to block for the next header? Ship the batched responses
		// first, or a windowed client would wait on us while we wait on it.
		if r.Buffered() < proto.HeaderLen {
			bc.wmu.Lock()
			var err error
			if w.Buffered() > 0 {
				bc.idle.armWrite()
				err = w.Flush()
			}
			bc.wmu.Unlock()
			if err != nil {
				return
			}
			bc.idle.arm(r, proto.HeaderLen)
		}
		if fatal := s.dispatchBinary(r, w, bc); fatal {
			// Best effort: deliver the error frame / final batch.
			bc.wmu.Lock()
			w.Flush()
			bc.wmu.Unlock()
			return
		}
	}
}

// dispatchBinary reads and executes one binary frame. A true result
// means the connection is done: clean EOF, an I/O error, or a framing
// error after which the byte stream cannot be trusted (the lengths that
// would let us skip past the bad frame are the bytes in question).
// Every accepted request is answered with exactly one response frame
// carrying the request's id.
func (s *Server) dispatchBinary(r *bufio.Reader, w *bufio.Writer, bc *binConn) (fatal bool) {
	hdr, err := r.Peek(proto.HeaderLen)
	if err != nil {
		return true // EOF, deadline, or reset: nothing to answer
	}
	h, err := proto.ParseRequestHeader(hdr)
	if err != nil {
		s.binRespondErr(w, bc, 0, err.Error())
		return true
	}
	r.Discard(proto.HeaderLen)
	bc.idle.arm(r, h.KeyLen+h.ValueLen)
	switch h.Op {
	case proto.OpGet:
		key, err := binKey(r, h.KeyLen)
		if err != nil {
			return true
		}
		bc.stats.cmds[verbGet].Add(1)
		if v, ok := s.cache.Get(key); ok {
			s.binRespond(w, bc, proto.StatusOK, h.ID, v)
		} else if slot := s.coalesceGetMiss(key); slot != nil {
			// Another fill for this key is in flight: answer from it, out
			// of order, without stalling the frame loop (the resolving Set
			// may be queued behind this very frame).
			go s.binParkRespond(w, bc, h.ID, slot)
		} else {
			s.binRespond(w, bc, proto.StatusMiss, h.ID, nil)
		}

	case proto.OpSet:
		key, err := binKey(r, h.KeyLen)
		if err != nil {
			return true
		}
		// The cache keeps what a SET hands it: the key is copied out of the
		// read buffer (before the value read overwrites it), the value is
		// allocated, not pooled.
		key = strings.Clone(key)
		value := make([]byte, h.ValueLen)
		if _, err := io.ReadFull(r, value); err != nil {
			return true
		}
		bc.stats.cmds[verbSet].Add(1)
		var stored bool
		if h.TTL > 0 {
			stored = s.cache.SetWithTTL(key, value, time.Duration(h.TTL)*time.Second)
		} else {
			stored = s.cache.Set(key, value)
		}
		s.noteSet(key, value, stored)
		if stored {
			s.binRespond(w, bc, proto.StatusOK, h.ID, nil)
		} else {
			s.binRespond(w, bc, proto.StatusNotStored, h.ID, nil)
		}

	case proto.OpDelete:
		key, err := binKey(r, h.KeyLen)
		if err != nil {
			return true
		}
		bc.stats.cmds[verbDelete].Add(1)
		existed := s.cache.Delete(key)
		s.noteDelete(key)
		if existed {
			s.binRespond(w, bc, proto.StatusOK, h.ID, nil)
		} else {
			s.binRespond(w, bc, proto.StatusMiss, h.ID, nil)
		}

	case proto.OpGetx:
		// The TTL field carries the client's grace-window request.
		key, err := binKey(r, h.KeyLen)
		if err != nil {
			return true
		}
		bc.stats.cmds[verbGetx].Add(1)
		v, tok, slot, out := s.getxBegin(key, h.TTL)
		switch out {
		case getxHit:
			s.binRespond(w, bc, proto.StatusOK, h.ID, v)
		case getxStale:
			s.binRespond(w, bc, proto.StatusStale, h.ID, v)
		case getxLease:
			var tb [proto.LeaseTokenLen]byte
			proto.PutLeaseToken(tb[:], tok)
			s.binRespond(w, bc, proto.StatusLease, h.ID, tb[:])
		case getxMiss:
			s.binRespond(w, bc, proto.StatusMiss, h.ID, nil)
		case getxPark:
			go s.binParkRespond(w, bc, h.ID, slot)
		}

	case proto.OpSetx:
		// Value bytes are the lease token followed by the payload; header
		// validation guarantees ValueLen >= LeaseTokenLen, and that a
		// negative fill (TTL bit 31) carries no payload.
		key, err := binKey(r, h.KeyLen)
		if err != nil {
			return true
		}
		key = strings.Clone(key) // kept, as for SET: by the cache or the negative table
		value := make([]byte, h.ValueLen)
		if _, err := io.ReadFull(r, value); err != nil {
			return true
		}
		bc.stats.cmds[verbSetx].Add(1)
		tok, _ := proto.ParseLeaseToken(value)
		negative := h.TTL&proto.SetxNegativeFlag != 0
		st := s.setx(key, tok, value[proto.LeaseTokenLen:], h.TTL&^proto.SetxNegativeFlag, negative)
		s.binRespond(w, bc, st, h.ID, nil)

	case proto.OpStats:
		var buf bytes.Buffer
		s.writeStats(&buf)
		s.binRespond(w, bc, proto.StatusOK, h.ID, buf.Bytes())

	case proto.OpPing:
		s.binRespond(w, bc, proto.StatusOK, h.ID, nil)

	case proto.OpKeys:
		// The TTL field carries the max-samples count (0 = default).
		max := int(h.TTL)
		if max <= 0 {
			max = defaultKeysMax
		}
		bc.stats.cmds[verbKeys].Add(1)
		var buf bytes.Buffer
		s.writeKeys(&buf, max)
		s.binRespond(w, bc, proto.StatusOK, h.ID, buf.Bytes())
	}
	return false
}

// binKey consumes an n-byte key and returns it as a string that borrows
// the reader's buffer (n <= MaxKeyLen << buffer size, so Peek never fails
// on length): no copy, no allocation, and valid only until the next read
// from r. Lookups take keys in that form (see cache.Engine's borrowed-key
// contract); SET and SETX, whose key the cache keeps and whose value read
// reuses the buffer, clone it first.
func binKey(r *bufio.Reader, n int) (string, error) {
	b, err := r.Peek(n)
	if err != nil {
		return "", err
	}
	r.Discard(n)
	return unsafe.String(unsafe.SliceData(b), n), nil
}

// binRespond appends one response frame to the write buffer. Write
// errors stick to the bufio.Writer and surface at the next flush.
func (s *Server) binRespond(w *bufio.Writer, bc *binConn, st proto.Status, id uint32, value []byte) {
	bc.wmu.Lock()
	proto.PutResponseHeader(bc.scratch[:], st, id, len(value))
	w.Write(bc.scratch[:])
	if len(value) > 0 {
		w.Write(value)
	}
	bc.wmu.Unlock()
}

// binParkRespond waits out an in-flight fill and answers the parked
// request from its own goroutine. It must flush itself: the connection
// goroutine may be blocked reading and will not flush on its behalf.
// The request id is what lets the client accept this frame out of
// order.
func (s *Server) binParkRespond(w *bufio.Writer, bc *binConn, id uint32, slot *fillSlot) {
	v, out := s.getxFinish(slot)
	st := proto.StatusMiss
	if out == getxHit {
		st = proto.StatusOK
	} else {
		v = nil
	}
	bc.wmu.Lock()
	proto.PutResponseHeader(bc.scratch[:], st, id, len(v))
	w.Write(bc.scratch[:])
	if len(v) > 0 {
		w.Write(v)
	}
	w.Flush()
	bc.wmu.Unlock()
}

// binRespondErr answers a framing error before the connection drops.
func (s *Server) binRespondErr(w *bufio.Writer, bc *binConn, id uint32, msg string) {
	s.binRespond(w, bc, proto.StatusErr, id, []byte(msg))
}
