// Package client is the Go client for the s3cached cache server
// (cmd/s3cached, internal/server). By default it speaks the server's
// compact text protocol over a single TCP connection; the client is safe
// for concurrent use (requests are serialized on the connection, like a
// classic memcached text-protocol client).
//
// One faster wire mode shares the same API: the length-prefixed binary
// protocol (internal/proto), pipelined. Options.Pipeline puts up to that
// many requests in flight on one connection, matched to responses by
// request id, with writes from concurrent goroutines coalesced into
// shared flushes; Options.Binary alone is the same path with a window of
// one (same request/response discipline as text, no text parsing on
// either end). A pipelined client turns N goroutines hammering one
// connection into one batched syscall stream in each direction — drive
// it concurrently; a single synchronous caller gains only the binary
// framing.
//
// The client is hardened for flaky networks: dial and per-operation
// timeouts, plus bounded retry with jittered exponential backoff
// (Options.Retries). An I/O failure mid-operation drops the connection
// and redials before the next attempt — in pipelined mode every
// operation in flight on the failed connection is failed (and retried by
// its own caller, up to Options.Retries). Server-reported protocol
// errors (*ServerError) are never retried: the server got the request
// and rejected it, so retrying cannot change the answer.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"s3fifo/internal/proto"
)

// Defaults for Options zero values.
const (
	defaultDialTimeout  = 5 * time.Second
	defaultRetryBackoff = 10 * time.Millisecond
	maxRetryBackoff     = time.Second
)

// Options tunes the client's network behavior. The zero value gives a
// 5s dial timeout, no per-operation deadline, and no retries — the
// behavior of Dial.
type Options struct {
	// DialTimeout bounds connection establishment (and re-dials during
	// retry). 0 means 5s; negative means no timeout.
	DialTimeout time.Duration
	// OpTimeout, when positive, is a deadline applied to each operation
	// attempt (write + response read).
	OpTimeout time.Duration
	// Retries is how many additional attempts an operation gets after an
	// I/O failure. Each retry redials the server. Protocol errors
	// (*ServerError) are never retried.
	Retries int
	// RetryBackoff is the base delay before the first retry; it doubles
	// per attempt (capped at 1s) with up to 50% random jitter so a fleet
	// of clients doesn't retry in lockstep. 0 means 10ms.
	RetryBackoff time.Duration
	// Binary selects the length-prefixed binary protocol (internal/proto)
	// instead of the text protocol. The server auto-detects it on the
	// first byte. Without Pipeline it is pipelining with a window of 1.
	Binary bool
	// Pipeline, when positive, enables pipelined mode over the binary
	// protocol (implying Binary): up to Pipeline requests in flight on
	// the connection, matched by request id. Operations from concurrent
	// goroutines share the connection instead of serializing on it.
	Pipeline int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = defaultDialTimeout
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = defaultRetryBackoff
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Pipeline < 0 {
		o.Pipeline = 0
	}
	if o.Pipeline > 0 {
		o.Binary = true
	} else if o.Binary {
		o.Pipeline = 1
	}
	return o
}

// ServerError is a protocol-level rejection reported by the server (an
// "ERROR <reason>" line). The request was delivered and refused, so the
// client never retries these.
type ServerError struct {
	Reason string
}

func (e *ServerError) Error() string { return "client: server error: " + e.Reason }

// Client is a connection to an s3cached server. Create one with Dial or
// DialOptions.
type Client struct {
	addr string
	opts Options

	pipe *pipe // non-nil on the binary protocol; owns the connection instead

	// The text-protocol connection.
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	closed bool
}

// Dial connects to an s3cached server at addr ("host:port") with default
// Options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to an s3cached server at addr with explicit
// network options.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	if c.opts.Pipeline > 0 {
		c.pipe = newPipe(c)
		if err := c.pipe.dial(); err != nil {
			return nil, err
		}
		return c, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redialLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// dialTCP dials addr and rejects TCP self-connection: dialing a freed
// ephemeral port (a cache node that just went down) can make the kernel
// pick that same port as the connection's source, and the
// simultaneous-open handshake then "succeeds" against ourselves — an
// established connection with no server behind it, which would hang
// until a keepalive kills it instead of failing fast.
func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	if timeout < 0 {
		timeout = 0 // net.DialTimeout: 0 means no timeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if local, remote := conn.LocalAddr(), conn.RemoteAddr(); local.String() == remote.String() {
		conn.Close()
		return nil, &net.OpError{Op: "dial", Net: "tcp", Addr: remote,
			Err: errors.New("refusing self-connection")}
	}
	return conn, nil
}

// redialLocked (re)establishes the connection. Callers hold c.mu.
func (c *Client) redialLocked() error {
	conn, err := dialTCP(c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.r = bufio.NewReaderSize(conn, 16<<10)
	c.w = bufio.NewWriterSize(conn, 16<<10)
	return nil
}

// teardownLocked drops a connection whose protocol state is unknown.
func (c *Client) teardownLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// backoff returns the jittered delay before retry attempt (0-based).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.RetryBackoff << attempt
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	// Up to +50% jitter: desynchronizes a fleet retrying the same outage.
	return d + time.Duration(rand.Int64N(int64(d)/2+1))
}

// do runs one operation attempt-loop. op writes a request and parses the
// response on a healthy connection. I/O errors tear the connection down
// and retry (redialing) up to opts.Retries times; *ServerError returns
// immediately.
func (c *Client) do(op func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for attempt := 0; ; attempt++ {
		if c.closed {
			return net.ErrClosed
		}
		err = nil
		if c.conn == nil {
			err = c.redialLocked()
		}
		if err == nil {
			if c.opts.OpTimeout > 0 {
				c.conn.SetDeadline(time.Now().Add(c.opts.OpTimeout))
			}
			err = op()
		}
		if err == nil {
			return nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			return err // delivered and rejected: retrying cannot help
		}
		// I/O failure: the response stream may be mid-frame, so the
		// connection cannot be reused.
		c.teardownLocked()
		if attempt >= c.opts.Retries {
			return err
		}
		delay := c.backoff(attempt)
		c.mu.Unlock()
		time.Sleep(delay)
		c.mu.Lock()
	}
}

// Close terminates the connection. Further operations return
// net.ErrClosed.
func (c *Client) Close() error {
	if c.pipe != nil {
		return c.pipe.close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	fmt.Fprintf(c.w, "quit\r\n")
	c.w.Flush()
	err := c.conn.Close()
	c.conn = nil
	return err
}

func (c *Client) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// errFor converts an ERROR response line into a *ServerError.
func errFor(line string) error {
	return &ServerError{Reason: strings.TrimPrefix(line, "ERROR ")}
}

// checkKey rejects keys the binary framing cannot carry before anything
// hits the wire. The error is a *ServerError (the server would refuse
// the request), so the retry loop does not waste attempts on it.
func checkKey(key string) error {
	if len(key) > proto.MaxKeyLen {
		return &ServerError{Reason: "key too long"}
	}
	if len(key) == 0 {
		return &ServerError{Reason: "empty key"}
	}
	return nil
}

// Get fetches key. The second result is false on a cache miss.
func (c *Client) Get(key string) ([]byte, bool, error) {
	if c.pipe != nil {
		return c.pipe.Get(key)
	}
	var value []byte
	var ok bool
	err := c.do(func() error {
		value, ok = nil, false
		if _, err := fmt.Fprintf(c.w, "get %s\r\n", key); err != nil {
			return err
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
		case strings.HasPrefix(line, "VALUE "):
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return fmt.Errorf("client: malformed VALUE line %q", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return fmt.Errorf("client: bad length in %q", line)
			}
			value = make([]byte, n)
			if _, err := io.ReadFull(c.r, value); err != nil {
				return err
			}
			// Consume the value terminator and the END line.
			if _, err := c.readLine(); err != nil {
				return err
			}
			end, err := c.readLine()
			if err != nil {
				return err
			}
			if end != "END" {
				return fmt.Errorf("client: expected END, got %q", end)
			}
			ok = true
			return nil
		default:
			return fmt.Errorf("client: unexpected response %q", line)
		}
	})
	if err != nil {
		return nil, false, err
	}
	return value, ok, nil
}

// Set stores value under key. It returns false when the server declined
// to store the entry (e.g. larger than the cache).
//
// Retry caveat: a retried Set may apply twice when the first response
// was lost after the server stored the entry. Set is idempotent per
// (key, value), so the only observable effect is eviction-order noise.
func (c *Client) Set(key string, value []byte) (bool, error) {
	return c.set(key, value, 0)
}

// SetWithTTL stores value with a time-to-live (rounded up to seconds).
func (c *Client) SetWithTTL(key string, value []byte, ttl time.Duration) (bool, error) {
	return c.set(key, value, ttl)
}

// ttlSeconds rounds a TTL up to whole seconds for the wire.
func ttlSeconds(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	secs := (ttl + time.Second - 1) / time.Second
	if secs > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(secs)
}

func (c *Client) set(key string, value []byte, ttl time.Duration) (bool, error) {
	if c.pipe != nil {
		return c.pipe.Set(key, value, ttl)
	}
	var stored bool
	err := c.do(func() error {
		if ttl > 0 {
			secs := int((ttl + time.Second - 1) / time.Second)
			fmt.Fprintf(c.w, "set %s %d %d\r\n", key, len(value), secs)
		} else {
			fmt.Fprintf(c.w, "set %s %d\r\n", key, len(value))
		}
		c.w.Write(value)
		c.w.WriteString("\r\n")
		if err := c.w.Flush(); err != nil {
			return err
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		switch {
		case line == "STORED":
			stored = true
			return nil
		case line == "NOT_STORED":
			stored = false
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
	return stored, nil
}

// Delete removes key. The result reports whether the key existed.
func (c *Client) Delete(key string) (bool, error) {
	if c.pipe != nil {
		return c.pipe.Delete(key)
	}
	var existed bool
	err := c.do(func() error {
		fmt.Fprintf(c.w, "delete %s\r\n", key)
		if err := c.w.Flush(); err != nil {
			return err
		}
		line, err := c.readLine()
		if err != nil {
			return err
		}
		switch {
		case line == "DELETED":
			existed = true
			return nil
		case line == "NOT_FOUND":
			existed = false
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
	return existed, nil
}

// ServerStats is the typed view of the server's counters. Flash fields
// are zero when the server runs without a flash tier.
type ServerStats struct {
	Engine             string `stat:"engine"`               // serving engine: "concurrent" from s3cached, "policy" only from an embedding server
	NodeID             string `stat:"node_id"`              // cluster node identity (s3cached -node-id); "" when unset
	TierKind           string `stat:"tier_kind"`            // active second tier ("flash", "remote"); "" when DRAM-only
	SnapshotAgeSeconds int64  `stat:"snapshot_age_seconds"` // age of the snapshot last saved or restored; -1 when none
	Hits               uint64 `stat:"hits"`                 // DRAMHits + FlashHits
	Misses             uint64 `stat:"misses"`
	Sets               uint64 `stat:"sets"`
	Evictions          uint64 `stat:"evictions"`
	Expired            uint64 `stat:"expired"`
	DRAMHits           uint64 `stat:"dram_hits"`
	FlashHits          uint64 `stat:"flash_hits"`
	FlashBytesWritten  uint64 `stat:"flash_bytes_written"`
	FlashGCBytes       uint64 `stat:"flash_gc_bytes"`
	FlashSegments      uint64 `stat:"flash_segments"`
	FlashEntries       uint64 `stat:"flash_entries"`
	Demotions          uint64 `stat:"demotions"`
	DemotionsDeclined  uint64 `stat:"demotions_declined"`
	Promotions         uint64 `stat:"promotions"`
	Entries            uint64 `stat:"entries"`
	Bytes              uint64 `stat:"bytes"`
	Capacity           uint64 `stat:"capacity"`

	// Flash health (DESIGN.md §10): breaker state and degraded-mode
	// accounting.
	FlashErrors          uint64 `stat:"flash_errors"`
	FlashDegraded        bool   `stat:"flash_degraded"`
	FlashBreakerTrips    uint64 `stat:"flash_breaker_trips"`
	FlashBreakerRestores uint64 `stat:"flash_breaker_restores"`
	DemotionsDegraded    uint64 `stat:"demotions_degraded"`

	// Server process stats (uptime and connection/command counters).
	UptimeSeconds       uint64 `stat:"uptime_seconds"`
	CurrConnections     uint64 `stat:"curr_connections"`
	TotalConnections    uint64 `stat:"total_connections"`
	RejectedConnections uint64 `stat:"rejected_connections"`
	AcceptRetries       uint64 `stat:"accept_retries"`
	CmdGet              uint64 `stat:"cmd_get"`
	CmdSet              uint64 `stat:"cmd_set"`
	CmdDelete           uint64 `stat:"cmd_delete"`
	CmdGetx             uint64 `stat:"cmd_getx"`
	CmdSetx             uint64 `stat:"cmd_setx"`

	// Anti-stampede counters (DESIGN.md §14). Lease/coalesce fields are
	// zero when the server runs without WithAntiStampede.
	StaleServed        uint64 `stat:"stale_served"`  // expired values served within the grace window
	NegativeHits       uint64 `stat:"negative_hits"` // lookups answered from a negative tombstone
	NegativeSets       uint64 `stat:"negative_sets"` // negative fills recorded
	LeaseGrants        uint64 `stat:"lease_grants"`
	LeaseRegrants      uint64 `stat:"lease_regrants"`
	LeaseRedeems       uint64 `stat:"lease_redeems"`
	LeaseRejects       uint64 `stat:"lease_rejects"`
	LeaseInvalidations uint64 `stat:"lease_invalidations"`
	CoalescedWaits     uint64 `stat:"coalesced_waits"`
	CoalesceOverflows  uint64 `stat:"coalesce_overflows"`
	CoalesceInflight   uint64 `stat:"coalesce_inflight"`
}

// ServerStats fetches the server's counters into a typed struct, each
// field from the STAT row its stat tag names. Stat names the client does
// not know are ignored, so old clients keep working against newer
// servers and vice versa.
func (c *Client) ServerStats() (ServerStats, error) {
	raw, err := c.StatsRaw()
	if err != nil {
		return ServerStats{}, err
	}
	st := ServerStats{SnapshotAgeSeconds: -1}
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		text, ok := raw[v.Type().Field(i).Tag.Get("stat")]
		if !ok {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(text)
		case reflect.Bool:
			f.SetBool(text == "1")
		case reflect.Int64:
			if n, err := strconv.ParseInt(text, 10, 64); err == nil {
				f.SetInt(n)
			}
		case reflect.Uint64:
			if n, err := strconv.ParseUint(text, 10, 64); err == nil {
				f.SetUint(n)
			}
		}
	}
	return st, nil
}

// Stats fetches the server's numeric counters as a name -> value map.
// Stats whose values are not unsigned integers (e.g. "engine") are
// skipped, so old clients keep working as servers grow new stat lines;
// use StatsRaw or ServerStats for those.
func (c *Client) Stats() (map[string]uint64, error) {
	raw, err := c.StatsRaw()
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for name, v := range raw {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			out[name] = n
		}
	}
	return out, nil
}

// parseStatPayload parses "STAT <name> <value>" lines (the stats
// payload) into a map. The value is the rest of the line, so it may hold
// spaces (a node ID such as "rack 1").
func parseStatPayload(payload []byte) (map[string]string, error) {
	out := map[string]string{}
	for _, line := range strings.Split(string(payload), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 || fields[0] != "STAT" || fields[1] == "" {
			return nil, fmt.Errorf("client: malformed stat line %q", line)
		}
		out[fields[1]] = fields[2]
	}
	return out, nil
}

// Ping round-trips a no-op through the server — a liveness and latency
// probe. It requires the binary protocol (Options.Binary or Pipeline).
func (c *Client) Ping() error {
	if c.pipe == nil {
		return errors.New("client: Ping requires the binary protocol")
	}
	_, _, err := c.pipe.roundTrip(proto.OpPing, "", nil, 0)
	return err
}

// KeySample is one entry of a server's hot-key export (the keys
// command): a resident key and its access frequency at sampling time (0
// when the serving engine does not track per-key frequency).
type KeySample struct {
	Key  string
	Freq int
}

// parseKeysPayload parses "KEY <freq> <key>" lines (the keys command's
// payload) into samples, preserving server order (hottest first).
func parseKeysPayload(payload []byte) ([]KeySample, error) {
	var out []KeySample
	for _, line := range strings.Split(string(payload), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 || fields[0] != "KEY" {
			return nil, fmt.Errorf("client: malformed key line %q", line)
		}
		freq, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("client: bad freq in %q", line)
		}
		out = append(out, KeySample{Key: fields[2], Freq: freq})
	}
	return out, nil
}

// Keys fetches up to max resident keys from the server, hottest first
// when the serving engine tracks per-key frequency — the feed cluster
// warm-up replays into a joining node. max <= 0 asks for the server's
// default sample size.
func (c *Client) Keys(max int) ([]KeySample, error) {
	cmd, ttl := "keys", uint32(0) // the binary frame carries max in the TTL field
	if max > 0 {
		cmd, ttl = fmt.Sprintf("keys %d", max), uint32(max)
	}
	payload, err := c.listing(proto.OpKeys, cmd, ttl)
	if err != nil {
		return nil, err
	}
	return parseKeysPayload(payload)
}

// StatsRaw fetches every STAT line verbatim as a name -> value map.
func (c *Client) StatsRaw() (map[string]string, error) {
	payload, err := c.listing(proto.OpStats, "stats", 0)
	if err != nil {
		return nil, err
	}
	return parseStatPayload(payload)
}

// listing sends a command that answers with a list of lines (stats or
// keys) and returns those lines as one payload: the binary response's
// value, or the text response's lines up to END. Both protocols thus
// share one parser per command.
func (c *Client) listing(op proto.Op, cmd string, ttl uint32) ([]byte, error) {
	if c.pipe != nil {
		_, payload, err := c.pipe.roundTrip(op, "", nil, ttl)
		return payload, err
	}
	var payload []byte
	err := c.do(func() error {
		fmt.Fprintf(c.w, "%s\r\n", cmd)
		if err := c.w.Flush(); err != nil {
			return err
		}
		payload = payload[:0]
		for {
			line, err := c.readLine()
			if err != nil {
				return err
			}
			if line == "END" {
				return nil
			}
			if strings.HasPrefix(line, "ERROR") {
				return errFor(line)
			}
			payload = append(append(payload, line...), '\n')
		}
	})
	return payload, err
}
