// Package proto implements the length-prefixed binary wire protocol for
// the s3cached server. It exists because the text protocol's per-op cost
// (line parsing, fmt formatting, one flush syscall per command) caps the
// TCP stack two orders of magnitude below what the lock-free engine
// sustains in-process — the regime where protocol overhead, not
// eviction, decides throughput.
//
// Every frame is a fixed 16-byte header followed by the key and value
// bytes, so a reader always knows exactly how many bytes to expect and a
// writer can assemble many responses into one buffered flush:
//
//	offset  size  request             response
//	0       1     magic 0x80          magic 0x81
//	1       1     opcode              status
//	2       2     key length   (BE)   0
//	4       4     TTL seconds  (BE)   0
//	8       4     value length (BE)   value length (BE)
//	12      4     request id   (BE)   request id (echoed)
//
// The request id lets a client pipeline many requests on one connection
// and match responses as they arrive; the server answers every request
// with exactly one response frame, in any order it likes (today: request
// order). A GET hit carries the value; an error response carries the
// message as its value bytes. The first byte of a connection selects the
// protocol: 0x80 is not printable ASCII, so a server can sniff one byte
// and fall back to the text protocol for legacy clients.
//
// Encode and decode are allocation-free: headers parse in place from a
// borrowed slice (bufio.Peek) and frames append into caller-owned or
// pooled buffers (GetBuf/PutBuf).
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Frame geometry and limits. Key and value limits match the text
// protocol (internal/server): memcached's 250-byte keys, 8 MiB values.
const (
	MagicReq  = 0x80 // first byte of every request frame
	MagicResp = 0x81 // first byte of every response frame
	HeaderLen = 16

	MaxKeyLen   = 250
	MaxValueLen = 8 << 20
)

// Op is a request opcode.
type Op byte

const (
	OpGet    Op = 1 // key; response OK+value or Miss
	OpSet    Op = 2 // key, value, optional TTL; response OK or NotStored
	OpDelete Op = 3 // key; response OK or Miss
	OpStats  Op = 4 // no key; response OK with "STAT <name> <value>" lines as the value
	OpPing   Op = 5 // no key; response OK (liveness / latency probe)
	OpKeys   Op = 6 // no key; TTL field = max samples; response OK with "KEY <freq> <key>" lines
	OpGetx   Op = 7 // key; TTL field = grace seconds; response OK+value, Stale+value, Lease+token, or Miss
	OpSetx   Op = 8 // key, value = lease token ++ payload, TTL field low 31 bits = seconds, bit 31 = negative fill
)

// Lease-protocol framing. A GETX response with StatusLease carries an
// opaque LeaseTokenLen-byte token as its value; the holder redeems it
// with SETX, whose value bytes are the token followed by the payload.
// A SETX with SetxNegativeFlag set in the TTL field carries no payload
// after the token and records a negative (confirmed-missing) entry.
const (
	LeaseTokenLen     = 8
	SetxNegativeFlag  = uint32(1) << 31
	SetxTTLSecondsMax = SetxNegativeFlag - 1
)

// String returns the opcode's wire-protocol name.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	case OpStats:
		return "stats"
	case OpPing:
		return "ping"
	case OpKeys:
		return "keys"
	case OpGetx:
		return "getx"
	case OpSetx:
		return "setx"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Status is a response code.
type Status byte

const (
	StatusOK           Status = 0 // hit / stored / deleted / pong
	StatusMiss         Status = 1 // GET miss, DELETE of an absent key
	StatusNotStored    Status = 2 // SET declined (entry larger than the cache)
	StatusErr          Status = 3 // protocol error; message in the value bytes
	StatusStale        Status = 4 // GETX: expired value served within the grace window
	StatusLease        Status = 5 // GETX: miss; value bytes are a lease token — caller should fill
	StatusLeaseInvalid Status = 6 // SETX: token expired, superseded, or invalidated by a delete

	maxStatus = StatusLeaseInvalid
)

// Decode errors. A frame that fails header validation cannot be framed
// past — the lengths are untrustworthy — so servers report and close.
var (
	ErrShortHeader  = errors.New("proto: short frame header")
	ErrBadMagic     = errors.New("proto: bad frame magic")
	ErrBadOp        = errors.New("proto: bad opcode")
	ErrBadStatus    = errors.New("proto: bad status")
	ErrKeyTooLong   = errors.New("proto: key length exceeds limit")
	ErrValueTooLong = errors.New("proto: value length exceeds limit")
	ErrBadFrame     = errors.New("proto: malformed frame")
)

// RequestHeader is the decoded fixed header of a request frame.
type RequestHeader struct {
	Op       Op
	KeyLen   int
	TTL      uint32 // seconds; meaningful only for OpSet
	ValueLen int
	ID       uint32
}

// ResponseHeader is the decoded fixed header of a response frame.
type ResponseHeader struct {
	Status   Status
	ValueLen int
	ID       uint32
}

// ParseRequestHeader validates and decodes a request header from the
// first HeaderLen bytes of b, without copying. The slice may be a
// bufio.Peek view; the result does not alias it.
func ParseRequestHeader(b []byte) (RequestHeader, error) {
	if len(b) < HeaderLen {
		return RequestHeader{}, ErrShortHeader
	}
	if b[0] != MagicReq {
		return RequestHeader{}, ErrBadMagic
	}
	h := RequestHeader{
		Op:       Op(b[1]),
		KeyLen:   int(binary.BigEndian.Uint16(b[2:4])),
		TTL:      binary.BigEndian.Uint32(b[4:8]),
		ValueLen: int(binary.BigEndian.Uint32(b[8:12])),
		ID:       binary.BigEndian.Uint32(b[12:16]),
	}
	if h.KeyLen > MaxKeyLen {
		return RequestHeader{}, ErrKeyTooLong
	}
	// The value-length ceiling is per-op: SETX frames carry the lease
	// token in front of the payload, so their limit is token-width wider.
	maxValue := MaxValueLen
	if h.Op == OpSetx {
		maxValue = MaxValueLen + LeaseTokenLen
	}
	if h.ValueLen > maxValue {
		return RequestHeader{}, ErrValueTooLong
	}
	switch h.Op {
	case OpGet, OpDelete:
		if h.KeyLen == 0 || h.ValueLen != 0 {
			return RequestHeader{}, ErrBadFrame
		}
	case OpGetx:
		// The TTL field carries the requested grace window in seconds.
		if h.KeyLen == 0 || h.ValueLen != 0 {
			return RequestHeader{}, ErrBadFrame
		}
	case OpSet:
		if h.KeyLen == 0 {
			return RequestHeader{}, ErrBadFrame
		}
	case OpSetx:
		// The value must hold at least the lease token; a negative fill
		// confirms absence, so it must carry no payload after the token.
		if h.KeyLen == 0 || h.ValueLen < LeaseTokenLen {
			return RequestHeader{}, ErrBadFrame
		}
		if h.TTL&SetxNegativeFlag != 0 && h.ValueLen != LeaseTokenLen {
			return RequestHeader{}, ErrBadFrame
		}
	case OpStats, OpPing, OpKeys:
		// OpKeys reuses the TTL field as the max-samples count; like the
		// other keyless ops it carries no key or value bytes.
		if h.KeyLen != 0 || h.ValueLen != 0 {
			return RequestHeader{}, ErrBadFrame
		}
	default:
		return RequestHeader{}, ErrBadOp
	}
	return h, nil
}

// ParseResponseHeader validates and decodes a response header from the
// first HeaderLen bytes of b, without copying.
func ParseResponseHeader(b []byte) (ResponseHeader, error) {
	if len(b) < HeaderLen {
		return ResponseHeader{}, ErrShortHeader
	}
	if b[0] != MagicResp {
		return ResponseHeader{}, ErrBadMagic
	}
	if Status(b[1]) > maxStatus {
		return ResponseHeader{}, ErrBadStatus
	}
	h := ResponseHeader{
		Status:   Status(b[1]),
		ValueLen: int(binary.BigEndian.Uint32(b[8:12])),
		ID:       binary.BigEndian.Uint32(b[12:16]),
	}
	if h.ValueLen > MaxValueLen {
		return ResponseHeader{}, ErrValueTooLong
	}
	return h, nil
}

// AppendRequest appends a full request frame (header + key + value) to
// dst and returns the extended slice. It does not validate lengths; the
// caller enforces MaxKeyLen/MaxValueLen before encoding.
func AppendRequest(dst []byte, op Op, ttl, id uint32, key string, value []byte) []byte {
	var hdr [HeaderLen]byte
	hdr[0] = MagicReq
	hdr[1] = byte(op)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(key)))
	binary.BigEndian.PutUint32(hdr[4:8], ttl)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(value)))
	binary.BigEndian.PutUint32(hdr[12:16], id)
	dst = append(dst, hdr[:]...)
	dst = append(dst, key...)
	return append(dst, value...)
}

// PutResponseHeader encodes a response header into dst, which must be at
// least HeaderLen bytes. The value bytes follow the header on the wire;
// writing them is the caller's job (so a server can write a cached value
// straight from the cache with no intermediate copy).
func PutResponseHeader(dst []byte, status Status, id uint32, valueLen int) {
	dst[0] = MagicResp
	dst[1] = byte(status)
	binary.BigEndian.PutUint16(dst[2:4], 0)
	binary.BigEndian.PutUint32(dst[4:8], 0)
	binary.BigEndian.PutUint32(dst[8:12], uint32(valueLen))
	binary.BigEndian.PutUint32(dst[12:16], id)
}

// AppendResponse appends a full response frame to dst and returns the
// extended slice.
func AppendResponse(dst []byte, status Status, id uint32, value []byte) []byte {
	var hdr [HeaderLen]byte
	PutResponseHeader(hdr[:], status, id, len(value))
	dst = append(dst, hdr[:]...)
	return append(dst, value...)
}

// PutLeaseToken encodes a lease token into dst, which must be at least
// LeaseTokenLen bytes.
func PutLeaseToken(dst []byte, token uint64) {
	binary.BigEndian.PutUint64(dst[:LeaseTokenLen], token)
}

// ParseLeaseToken decodes a lease token from the front of b. It reports
// false when b is too short to hold one.
func ParseLeaseToken(b []byte) (uint64, bool) {
	if len(b) < LeaseTokenLen {
		return 0, false
	}
	return binary.BigEndian.Uint64(b[:LeaseTokenLen]), true
}

// bufPool recycles frame-encode buffers. Clients encode each request
// into a pooled buffer and release it after the write; the pool keeps
// the steady-state encode path allocation-free without a buffer per
// in-flight request.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// GetBuf returns an empty pooled buffer. Release it with PutBuf.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf returns a buffer to the pool. Buffers grown past 64 KiB (a
// large SET payload) are dropped so one big value does not pin its
// footprint forever.
func PutBuf(b *[]byte) {
	if cap(*b) > 64<<10 {
		return
	}
	bufPool.Put(b)
}
