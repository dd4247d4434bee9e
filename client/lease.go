// The client half of the lease protocol (GETX/SETX, DESIGN.md §14):
// stampede-safe lookups. The intended call pattern is
//
//	r, err := c.GetX(key, grace)
//	switch {
//	case r.Found:        // fresh (or stale-within-grace) value: use it
//	case r.Lease != 0:   // this caller won the fill lease
//	    v, ok := fetchFromBackend(key)
//	    if ok  { c.SetX(key, r.Lease, v, ttl) }
//	    if !ok { c.SetXNegative(key, r.Lease, negTTL) }
//	default:             // plain miss: some other client is filling,
//	}                    // or the key is tombstoned — do NOT hit the backend
//
// so that of N clients missing one key at the same instant, exactly one
// reaches the backend.
package client

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"s3fifo/internal/proto"
)

// ErrLeaseInvalid is returned by SetX and SetXNegative when the server
// rejected the lease token: it expired, was superseded by a newer
// holder, or a delete raced the fill. The fill was not applied (or was
// undone); the caller should simply drop its value — some other client
// owns the key now.
var ErrLeaseInvalid = errors.New("client: lease expired or superseded")

// GetXResult is the outcome of a GetX lookup. Exactly one of three
// shapes comes back: a value (Found, possibly Stale), a lease (Lease
// non-zero — this caller must refill via SetX/SetXNegative), or a bare
// miss (all fields zero — another client is filling, or the key is
// negatively cached; do not hit the backend).
type GetXResult struct {
	Value []byte
	Found bool   // Value is usable (fresh, coalesced, or stale-within-grace)
	Stale bool   // Value is past its TTL, served inside the grace window
	Lease uint64 // non-zero: the fill lease token to redeem with SetX
}

// GetX is the anti-stampede lookup. grace is the longest-expired value
// the caller will accept (stale-while-revalidate); it can narrow the
// server's configured window, never widen it, and 0 accepts the
// server's default of no stale serving.
func (c *Client) GetX(key string, grace time.Duration) (GetXResult, error) {
	if err := checkKey(key); err != nil {
		return GetXResult{}, err
	}
	if c.pipe != nil {
		st, v, err := c.pipe.roundTrip(proto.OpGetx, key, nil, ttlSeconds(grace))
		if err != nil {
			return GetXResult{}, err
		}
		return getxResult(st, v)
	}
	var res GetXResult
	err := c.do(func() error {
		res = GetXResult{}
		if grace > 0 {
			fmt.Fprintf(c.w, "getx %s %d\r\n", key, ttlSeconds(grace))
		} else {
			fmt.Fprintf(c.w, "getx %s\r\n", key)
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		switch {
		case line == "END":
			return nil
		case strings.HasPrefix(line, "ERROR"):
			return errFor(line)
		case strings.HasPrefix(line, "LEASE "):
			tok, err := strconv.ParseUint(strings.TrimPrefix(line, "LEASE "), 16, 64)
			if err != nil {
				return fmt.Errorf("client: malformed LEASE line %q", line)
			}
			res.Lease = tok
			return c.expectEnd()
		case strings.HasPrefix(line, "VALUE "), strings.HasPrefix(line, "STALE "):
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return fmt.Errorf("client: malformed %s line %q", fields[0], line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return fmt.Errorf("client: bad length in %q", line)
			}
			res.Value = make([]byte, n)
			if _, err := io.ReadFull(c.r, res.Value); err != nil {
				return err
			}
			if _, err := c.readLine(); err != nil { // value terminator
				return err
			}
			res.Found = true
			res.Stale = fields[0] == "STALE"
			return c.expectEnd()
		default:
			return fmt.Errorf("client: unexpected response %q", line)
		}
	})
	if err != nil {
		return GetXResult{}, err
	}
	return res, nil
}

// getxResult maps a binary GETX response to a GetXResult.
func getxResult(st proto.Status, v []byte) (GetXResult, error) {
	switch st {
	case proto.StatusOK:
		return GetXResult{Value: v, Found: true}, nil
	case proto.StatusStale:
		return GetXResult{Value: v, Found: true, Stale: true}, nil
	case proto.StatusLease:
		tok, ok := proto.ParseLeaseToken(v)
		if !ok {
			return GetXResult{}, fmt.Errorf("client: short lease token (%d bytes)", len(v))
		}
		return GetXResult{Lease: tok}, nil
	case proto.StatusMiss:
		return GetXResult{}, nil
	default:
		return GetXResult{}, fmt.Errorf("client: unexpected getx status %v", st)
	}
}

// expectEnd consumes the terminating END line of a text getx response.
func (c *Client) expectEnd() error {
	end, err := c.readLine()
	if err != nil {
		return err
	}
	if end != "END" {
		return fmt.Errorf("client: expected END, got %q", end)
	}
	return nil
}

// SetX redeems a fill lease obtained from GetX, storing value under key
// with the given TTL (0 = no expiry). It reports whether the server
// stored the entry; ErrLeaseInvalid means the lease was expired,
// superseded, or killed by a delete, and the fill was discarded.
func (c *Client) SetX(key string, lease uint64, value []byte, ttl time.Duration) (bool, error) {
	if err := checkKey(key); err != nil {
		return false, err
	}
	if len(value) > proto.MaxValueLen {
		return false, &ServerError{Reason: "value too large"}
	}
	return c.setx(key, lease, value, setxTTL(ttl), false)
}

// SetXNegative redeems a fill lease with "the backend has no such key":
// the server records a negative-cache tombstone for ttl (0 = the
// server's configured default) and answers subsequent lookups with an
// immediate miss. Returns ErrLeaseInvalid under the same conditions as
// SetX.
func (c *Client) SetXNegative(key string, lease uint64, ttl time.Duration) error {
	if err := checkKey(key); err != nil {
		return err
	}
	_, err := c.setx(key, lease, nil, setxTTL(ttl), true)
	return err
}

// setxTTL rounds a TTL for the SETX wire field, which reserves bit 31
// for the negative flag.
func setxTTL(ttl time.Duration) uint32 {
	secs := ttlSeconds(ttl)
	if secs > proto.SetxTTLSecondsMax {
		secs = proto.SetxTTLSecondsMax
	}
	return secs
}

func (c *Client) setx(key string, lease uint64, value []byte, ttlSec uint32, negative bool) (bool, error) {
	if c.pipe != nil {
		// Binary framing: value bytes are token ‖ payload; a negative fill
		// sets TTL bit 31 and carries the bare token.
		framed := make([]byte, proto.LeaseTokenLen+len(value))
		proto.PutLeaseToken(framed, lease)
		copy(framed[proto.LeaseTokenLen:], value)
		wireTTL := ttlSec
		if negative {
			wireTTL |= proto.SetxNegativeFlag
		}
		st, _, err := c.pipe.roundTrip(proto.OpSetx, key, framed, wireTTL)
		if err != nil {
			return false, err
		}
		return setxOutcome(st)
	}
	var stored bool
	var leased bool
	err := c.do(func() error {
		if negative {
			if ttlSec > 0 {
				fmt.Fprintf(c.w, "setx %s %016x neg %d\r\n", key, lease, ttlSec)
			} else {
				fmt.Fprintf(c.w, "setx %s %016x neg\r\n", key, lease)
			}
		} else {
			if ttlSec > 0 {
				fmt.Fprintf(c.w, "setx %s %016x %d %d\r\n", key, lease, len(value), ttlSec)
			} else {
				fmt.Fprintf(c.w, "setx %s %016x %d\r\n", key, lease, len(value))
			}
			c.w.Write(value)
			c.w.WriteString("\r\n")
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		switch {
		case line == "STORED":
			stored, leased = true, true
			return nil
		case line == "NOT_STORED":
			stored, leased = false, true
			return nil
		case line == "NOT_LEASED":
			stored, leased = false, false
			return nil
		case strings.HasPrefix(line, "ERROR"):
			return errFor(line)
		default:
			return fmt.Errorf("client: unexpected response %q", line)
		}
	})
	if err != nil {
		return false, err
	}
	if !leased {
		return false, ErrLeaseInvalid
	}
	return stored, nil
}

// setxOutcome maps a binary SETX status to the (stored, error) pair.
func setxOutcome(st proto.Status) (bool, error) {
	switch st {
	case proto.StatusOK:
		return true, nil
	case proto.StatusNotStored:
		return false, nil
	case proto.StatusLeaseInvalid:
		return false, ErrLeaseInvalid
	default:
		return false, fmt.Errorf("client: unexpected setx status %v", st)
	}
}
