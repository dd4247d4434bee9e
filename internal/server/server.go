// Package server implements a memcached-style TCP cache server on top of
// the public cache library — the kind of deployment (Memcached, Pelikan,
// Cachelib services) the paper targets. Each connection speaks one of
// two wire protocols, selected by its first byte:
//
// The compact text protocol (any printable first byte):
//
//	get <key>                    -> VALUE <key> <len>\r\n<bytes>\r\nEND  |  END
//	set <key> <len> [ttl_sec]    -> (then <len> bytes + \r\n)  STORED | NOT_STORED
//	delete <key>                 -> DELETED | NOT_FOUND
//	stats                        -> STAT <name> <value> ... END
//	quit                         -> closes the connection
//
// With WithAntiStampede, the lease protocol rides alongside (see
// lease.go and DESIGN.md §14):
//
//	getx <key> [grace_sec]             -> VALUE|STALE <key> <len> ... | LEASE <token> | END
//	setx <key> <token> <len|neg> [ttl] -> STORED | NOT_STORED | NOT_LEASED
//
// A memcached-text dialect rides the same dispatch table so external
// load generators (memtier, mc-crusher) can drive the server unmodified:
// "set <key> <flags> <exptime> <bytes> [noreply]", multi-key
// "get k1 k2 ...", "gets", "version", and "delete ... noreply" are
// recognized, and once any memcached-distinctive command is seen the
// connection's VALUE lines switch to the memcached form
// ("VALUE <key> <flags> <len>"). Flags are accepted and echoed as 0.
//
// The length-prefixed binary protocol (first byte 0x80; see
// internal/proto) carries the same commands as fixed 16-byte-header
// frames with request ids, enabling client-side pipelining; its server
// path runs allocation-free on GET hits. Both protocols batch responses:
// the server flushes once per readable burst of requests, not once per
// command, so pipelined clients amortize syscalls in both directions.
//
// Keys are printable tokens up to 250 bytes (memcached's limit); values
// up to 8 MiB. Text-protocol errors respond with "ERROR <reason>" and
// keep the connection usable; binary framing errors answer an error
// frame and close, since the stream can no longer be trusted.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"s3fifo/cache"
	"s3fifo/internal/proto"
	"s3fifo/internal/telemetry"
)

// Limits of the wire protocol.
const (
	MaxKeyLen   = 250
	MaxValueLen = 8 << 20
)

// Accept-retry backoff bounds: a transient Accept error (EMFILE,
// ECONNABORTED, ...) backs off from acceptBackoffMin, doubling to
// acceptBackoffMax, instead of killing the accept loop.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// Server serves the cache protocol over TCP.
type Server struct {
	cache *cache.Cache
	start time.Time

	// Hardening knobs, fixed at construction (see Options).
	maxConns    int
	connTimeout time.Duration
	nodeID      string // cluster identity label; "" = unset (see WithNodeID)

	// Anti-stampede machinery (see WithAntiStampede); co is nil when the
	// option is absent, which disables coalescing and lease grants.
	co     *coalescer
	grace  time.Duration // stale-while-revalidate ceiling for GETX
	negTTL time.Duration // default tombstone TTL for negative SETX fills

	// Connection-level counters. Dispatched commands are counted per
	// connection (connStats), not here.
	connsTotal    atomic.Uint64
	connsRejected atomic.Uint64 // turned away at the max-conns cap
	connsBinary   atomic.Uint64 // connections that auto-detected binary
	acceptRetries atomic.Uint64 // transient Accept errors retried

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connStats
	retired  cmdTotals // commands of connections since closed
	closed   bool
}

// verb indexes the per-verb command counters.
type verb int

const (
	verbGet verb = iota
	verbSet
	verbDelete
	verbKeys
	verbGetx
	verbSetx
	numVerbs
)

// connStats counts the commands one connection dispatched (well-formed
// ones only). Its own goroutine is the only writer, so counting a request
// writes a cache line no other core is writing — the server-wide counters
// these replace were passed between the connections' cores on every
// request. Readers sum the live connections and the retired total under
// Server.mu; dropConn folds a connection into retired under the same
// lock, so a command is counted exactly once at every instant.
type connStats struct {
	binary bool // speaks the binary protocol; guarded by Server.mu
	cmds   [numVerbs]atomic.Uint64
}

// cmdTotals are command counts by verb: all over both wire protocols, bin
// the binary-protocol share, so text = all - bin.
type cmdTotals struct {
	all, bin [numVerbs]uint64
}

func (t *cmdTotals) add(st *connStats) {
	for v := range st.cmds {
		n := st.cmds[v].Load()
		t.all[v] += n
		if st.binary {
			t.bin[v] += n
		}
	}
}

// commands returns the dispatched-command totals. Scrape-time: it walks
// the live connections under the server mutex.
func (s *Server) commands() cmdTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.retired
	for _, st := range s.conns {
		t.add(st)
	}
	return t
}

// Option configures a Server at construction.
type Option func(*Server)

// WithMaxConns caps live client connections; connections beyond the cap
// are told "ERROR too many connections" and closed. n <= 0 means
// unlimited (the default).
func WithMaxConns(n int) Option {
	return func(s *Server) { s.maxConns = n }
}

// WithConnTimeout bounds how long the server waits on a client: the
// read deadline is re-armed before each read that has to wait for the
// client (so d is an idle timeout) and the write deadline before each
// response flush. d <= 0 means no deadlines (the default).
func WithConnTimeout(d time.Duration) Option {
	return func(s *Server) { s.connTimeout = d }
}

// WithNodeID labels this server with a cluster node identity (typically
// its advertised host:port). The label is surfaced as "STAT node_id" in
// stats, in the admin /stats JSON, and on /healthz, so cluster tooling
// can confirm it is talking to the node it thinks it is. Empty (the
// default) omits the label everywhere.
func WithNodeID(id string) Option {
	return func(s *Server) { s.nodeID = id }
}

// New returns a server around c.
func New(c *cache.Cache, opts ...Option) *Server {
	s := &Server{cache: c, conns: make(map[net.Conn]*connStats), start: time.Now()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// connsCurrent returns the number of live connections.
func (s *Server) connsCurrent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// uptime returns the time since the server was created, never negative.
func (s *Server) uptime() time.Duration {
	d := time.Since(s.start)
	if d < 0 {
		return 0
	}
	return d
}

// RegisterMetrics registers the server's connection and command-mix
// families with reg (nil-safe). The cache's own families come from
// cache.Config.Metrics; give both the same registry and /metrics carries
// the full stack.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("server_uptime_seconds", "Seconds since the server was created.",
		nil, func() float64 { return s.uptime().Seconds() })
	reg.GaugeFunc("server_connections_current", "Live client connections.",
		nil, func() float64 { return float64(s.connsCurrent()) })
	reg.CounterFunc("server_connections_total", "Client connections ever accepted.",
		nil, func() uint64 { return s.connsTotal.Load() })
	reg.CounterFunc("server_connections_rejected_total",
		"Connections turned away at the max-conns cap.",
		nil, func() uint64 { return s.connsRejected.Load() })
	reg.CounterFunc("server_accept_retries_total",
		"Transient Accept errors retried with backoff.",
		nil, func() uint64 { return s.acceptRetries.Load() })
	cmdHelp := "Dispatched protocol commands by verb."
	for _, f := range []struct {
		cmd string
		v   verb
	}{{"get", verbGet}, {"set", verbSet}, {"delete", verbDelete}} {
		f := f
		reg.CounterFunc("server_commands_total", cmdHelp,
			telemetry.Labels{{Key: "cmd", Value: f.cmd}},
			func() uint64 { return s.commands().all[f.v] })
	}
	reg.CounterFunc("server_binary_connections_total",
		"Connections that auto-detected the binary protocol.",
		nil, s.connsBinary.Load)
	if co := s.co; co != nil {
		waitHelp := "Lookups parked on an in-flight fill slot, by how the wait resolved."
		wlbl := func(v string) telemetry.Labels { return telemetry.Labels{{Key: "outcome", Value: v}} }
		reg.CounterFunc("server_coalesced_waits_total", waitHelp, wlbl("hit"), co.waitHits.Load)
		reg.CounterFunc("server_coalesced_waits_total", waitHelp, wlbl("miss"), co.waitMisses.Load)
		reg.CounterFunc("server_coalesced_waits_total", waitHelp, wlbl("timeout"), co.waitTimeouts.Load)
		leaseHelp := "Lease-protocol events: grants (regrant = replacing an expired lease), redeems, rejects, and delete invalidations."
		elbl := func(v string) telemetry.Labels { return telemetry.Labels{{Key: "event", Value: v}} }
		reg.CounterFunc("server_lease_events_total", leaseHelp, elbl("grant"), co.grants.Load)
		reg.CounterFunc("server_lease_events_total", leaseHelp, elbl("regrant"), co.regrants.Load)
		reg.CounterFunc("server_lease_events_total", leaseHelp, elbl("redeem"), co.redeems.Load)
		reg.CounterFunc("server_lease_events_total", leaseHelp, elbl("reject"), co.rejects.Load)
		reg.CounterFunc("server_lease_events_total", leaseHelp, elbl("invalidate"), co.invalidations.Load)
		reg.CounterFunc("server_coalesce_overflow_total",
			"Misses degraded to uncoalesced because the fill table was full.",
			nil, co.overflows.Load)
		reg.GaugeFunc("server_coalesce_inflight", "In-flight fill slots.",
			nil, func() float64 { return float64(co.inflight()) })
	}
	// Per-protocol command families: a connection speaks one protocol for
	// life, so the split is by connection.
	protoHelp := "Dispatched protocol commands by verb and wire protocol."
	for _, f := range []struct {
		cmd string
		v   verb
	}{{"get", verbGet}, {"set", verbSet}, {"delete", verbDelete}, {"getx", verbGetx}, {"setx", verbSetx}} {
		f := f
		reg.CounterFunc("server_proto_commands_total", protoHelp,
			telemetry.Labels{{Key: "cmd", Value: f.cmd}, {Key: "proto", Value: "binary"}},
			func() uint64 { return s.commands().bin[f.v] })
		reg.CounterFunc("server_proto_commands_total", protoHelp,
			telemetry.Labels{{Key: "cmd", Value: f.cmd}, {Key: "proto", Value: "text"}},
			func() uint64 { t := s.commands(); return t.all[f.v] - t.bin[f.v] })
	}
}

// Serve accepts connections on l until Close is called. Transient Accept
// errors (EMFILE under fd pressure, ECONNABORTED, ...) are retried with
// capped exponential backoff — a cache server must ride out fd
// exhaustion, not exit into a restart loop that drops the whole working
// set. Serve returns only once the listener is closed; it always returns
// a non-nil error, net.ErrClosed after Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	backoff := acceptBackoffMin
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return net.ErrClosed
			}
			s.acceptRetries.Add(1)
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.connsRejected.Add(1)
			// Best-effort courtesy line; the deadline keeps a zero-window
			// peer from wedging the accept loop.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			io.WriteString(conn, "ERROR too many connections\r\n")
			conn.Close()
			continue
		}
		st := &connStats{}
		s.conns[conn] = st
		s.mu.Unlock()
		s.connsTotal.Add(1)
		go s.handle(conn, st)
	}
}

// isClosed reports whether Close has been called.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Close stops accepting and closes all live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	return err
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	if st := s.conns[conn]; st != nil {
		s.retired.add(st)
		delete(s.conns, conn)
	}
	s.mu.Unlock()
	conn.Close()
}

// idleTimer re-arms a connection's read deadline — but only before a read
// the bytes already buffered cannot satisfy, the one kind that can wait
// on the client. A pipelined burst is served from the buffer and pays for
// no timer update per frame; the deadline still covers every wait,
// payload reads included.
type idleTimer struct {
	conn net.Conn
	d    time.Duration // <= 0: no deadlines
}

// arm is called before reading need bytes from r.
func (t idleTimer) arm(r *bufio.Reader, need int) {
	if t.d > 0 && r.Buffered() < need {
		t.conn.SetReadDeadline(time.Now().Add(t.d))
	}
}

// armWrite is called before a flush.
func (t idleTimer) armWrite() {
	if t.d > 0 {
		t.conn.SetWriteDeadline(time.Now().Add(t.d))
	}
}

// armLine is called before reading a line from r.
func (t idleTimer) armLine(r *bufio.Reader) {
	if t.d <= 0 {
		return
	}
	if b, _ := r.Peek(r.Buffered()); bytes.IndexByte(b, '\n') < 0 {
		t.conn.SetReadDeadline(time.Now().Add(t.d))
	}
}

func (s *Server) handle(conn net.Conn, st *connStats) {
	defer s.dropConn(conn)
	r := bufio.NewReaderSize(conn, 16<<10)
	w := bufio.NewWriterSize(conn, 16<<10)
	idle := idleTimer{conn: conn, d: s.connTimeout}
	// Protocol selection: one peeked byte. 0x80 is outside printable
	// ASCII, so no text command can start a binary frame or vice versa.
	idle.arm(r, 1)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	if first[0] == proto.MagicReq {
		s.connsBinary.Add(1)
		s.mu.Lock()
		st.binary = true
		s.mu.Unlock()
		s.handleBinary(r, w, &binConn{stats: st, idle: idle})
		return
	}
	s.handleText(r, w, &textConn{stats: st, idle: idle})
}

// handleText runs the text-protocol command loop. Responses are batched:
// the writer flushes only when the read buffer drains, so a pipelined
// client burst costs one write syscall, not one per command.
func (s *Server) handleText(r *bufio.Reader, w *bufio.Writer, tc *textConn) {
	for {
		tc.idle.armLine(r)
		line, err := readLine(r)
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				// The client sent a request line longer than the read buffer
				// (or no newline at all). Answer, then drop: the line framing
				// is lost, and an unbounded read would grow server memory at
				// the client's pleasure.
				protoErr(w, "request line too long")
				w.Flush()
			}
			return
		}
		quit, err := s.dispatch(tc, r, w, line)
		if err != nil {
			return
		}
		if quit {
			w.Flush() // deliver responses batched before the quit
			return
		}
		if r.Buffered() > 0 {
			continue // more pipelined commands already here: keep batching
		}
		tc.idle.armWrite()
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// readLine reads a \r\n- or \n-terminated line without the terminator.
// The line must fit the reader's buffer: ReadSlice surfaces
// bufio.ErrBufferFull for anything longer, bounding what one connection
// can make the server hold (ReadString would buffer without limit).
//
// The returned string borrows r's buffer: it, and every field cut from
// it, is valid only until the next read from r. Lookups take keys in that
// form (see cache.Engine's borrowed-key contract); a command that stores
// its key, or reads a payload after the line, clones what it needs first.
func readLine(r *bufio.Reader) (string, error) {
	b, err := r.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}

// textConn is per-connection text-protocol state: the command counters,
// the idle timer, and whether the peer has revealed itself as a memcached
// client. The dialect is sticky — after any memcached-distinctive command
// (5-token set, multi-key get, gets, version, noreply), VALUE lines carry
// the memcached flags column for the rest of the connection.
type textConn struct {
	stats     *connStats
	idle      idleTimer
	memcached bool
}

// readPayload reads a command's n-byte value and its terminator. The
// value is allocated, not pooled: the cache keeps the slice.
func (tc *textConn) readPayload(r *bufio.Reader, n int) ([]byte, error) {
	tc.idle.arm(r, n+2)
	value := make([]byte, n)
	if _, err := io.ReadFull(r, value); err != nil {
		return nil, err // payload truncated: connection unusable
	}
	return value, expectCRLF(r)
}

// dispatch executes one command. Protocol errors are reported to the
// client and are not fatal; I/O errors are.
func (s *Server) dispatch(tc *textConn, r *bufio.Reader, w *bufio.Writer, line string) (quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false, protoErr(w, "empty command")
	}
	switch fields[0] {
	case "get", "gets":
		if fields[0] == "gets" || len(fields) > 2 {
			tc.memcached = true
		}
		if len(fields) < 2 {
			return false, protoErr(w, "usage: get <key>")
		}
		if !tc.memcached {
			tc.stats.cmds[verbGet].Add(1)
			v, ok := s.cache.Get(fields[1])
			if !ok {
				// Miss coalescing: if another fill for this key is already
				// in flight, park for it instead of answering a miss the
				// client would turn into one more backend fetch. Inline is
				// fine here — the text protocol is serial per connection.
				if slot := s.coalesceGetMiss(fields[1]); slot != nil {
					v, ok = s.co.park(slot)
				}
			}
			if ok {
				fmt.Fprintf(w, "VALUE %s %d\r\n", fields[1], len(v))
				w.Write(v)
				w.WriteString("\r\n")
			}
			w.WriteString("END\r\n")
			return false, nil
		}
		// Memcached dialect: multi-key get, flags column (always 0), and a
		// cas column for gets (always 0 — no cas support).
		withCas := fields[0] == "gets"
		for _, key := range fields[1:] {
			tc.stats.cmds[verbGet].Add(1)
			v, ok := s.cache.Get(key)
			if !ok {
				continue
			}
			if withCas {
				fmt.Fprintf(w, "VALUE %s 0 %d 0\r\n", key, len(v))
			} else {
				fmt.Fprintf(w, "VALUE %s 0 %d\r\n", key, len(v))
			}
			w.Write(v)
			w.WriteString("\r\n")
		}
		w.WriteString("END\r\n")
		return false, nil

	case "set":
		if len(fields) >= 5 {
			tc.memcached = true
			return s.memcachedSet(tc, r, w, fields)
		}
		if len(fields) != 3 && len(fields) != 4 {
			return false, protoErr(w, "usage: set <key> <len> [ttl]")
		}
		if len(fields[1]) > MaxKeyLen {
			return false, protoErr(w, "key too long")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 || n > MaxValueLen {
			return false, protoErr(w, "bad length")
		}
		var ttl time.Duration
		if len(fields) == 4 {
			secs, err := strconv.Atoi(fields[3])
			if err != nil || secs < 0 {
				return false, protoErr(w, "bad ttl")
			}
			ttl = time.Duration(secs) * time.Second
		}
		key := strings.Clone(fields[1]) // the copy the cache keeps
		value, err := tc.readPayload(r, n)
		if err != nil {
			return true, err
		}
		tc.stats.cmds[verbSet].Add(1)
		stored := false
		if ttl > 0 {
			stored = s.cache.SetWithTTL(key, value, ttl)
		} else {
			stored = s.cache.Set(key, value)
		}
		s.noteSet(key, value, stored)
		if stored {
			w.WriteString("STORED\r\n")
		} else {
			w.WriteString("NOT_STORED\r\n")
		}
		return false, nil

	case "delete":
		noreply := len(fields) == 3 && fields[2] == "noreply"
		if noreply {
			tc.memcached = true
		}
		if len(fields) != 2 && !noreply {
			return false, protoErr(w, "usage: delete <key>")
		}
		tc.stats.cmds[verbDelete].Add(1)
		existed := s.cache.Delete(fields[1])
		s.noteDelete(fields[1])
		if noreply {
			return false, nil
		}
		if existed {
			w.WriteString("DELETED\r\n")
		} else {
			w.WriteString("NOT_FOUND\r\n")
		}
		return false, nil

	case "getx":
		// getx <key> [grace_sec]: the lease-protocol lookup. One of:
		//   VALUE <key> <len>\r\n<bytes>\r\nEND   fresh (or coalesced) hit
		//   STALE <key> <len>\r\n<bytes>\r\nEND   expired, within grace
		//   LEASE <token-hex>\r\nEND              caller should fill + setx
		//   END                                   miss; do not fill
		if len(fields) != 2 && len(fields) != 3 {
			return false, protoErr(w, "usage: getx <key> [grace_sec]")
		}
		key := fields[1]
		if len(key) > MaxKeyLen {
			return false, protoErr(w, "key too long")
		}
		var graceSec uint32
		if len(fields) == 3 {
			g, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return false, protoErr(w, "bad grace")
			}
			graceSec = uint32(g)
		}
		tc.stats.cmds[verbGetx].Add(1)
		v, tok, slot, out := s.getxBegin(key, graceSec)
		if out == getxPark {
			v, out = s.getxFinish(slot)
		}
		switch out {
		case getxHit:
			fmt.Fprintf(w, "VALUE %s %d\r\n", key, len(v))
			w.Write(v)
			w.WriteString("\r\n")
		case getxStale:
			fmt.Fprintf(w, "STALE %s %d\r\n", key, len(v))
			w.Write(v)
			w.WriteString("\r\n")
		case getxLease:
			fmt.Fprintf(w, "LEASE %016x\r\n", tok)
		}
		w.WriteString("END\r\n")
		return false, nil

	case "setx":
		// setx <key> <token-hex> <len> [ttl_sec] (+ <len> payload bytes),
		// or setx <key> <token-hex> neg [ttl_sec] for a negative fill.
		// Answers STORED, NOT_STORED, or NOT_LEASED.
		if len(fields) != 4 && len(fields) != 5 {
			return false, protoErr(w, "usage: setx <key> <token> <len|neg> [ttl]")
		}
		if len(fields[1]) > MaxKeyLen {
			return false, protoErr(w, "key too long")
		}
		key := strings.Clone(fields[1]) // kept: by the cache, or the negative table
		tok, err := strconv.ParseUint(fields[2], 16, 64)
		if err != nil {
			return false, protoErr(w, "bad token")
		}
		var ttlSec uint32
		if len(fields) == 5 {
			// 31 bits: the wire TTL's top bit is the negative flag, so the
			// text dialect keeps the same ceiling.
			t, err := strconv.ParseUint(fields[4], 10, 31)
			if err != nil {
				return false, protoErr(w, "bad ttl")
			}
			ttlSec = uint32(t)
		}
		if fields[3] == "neg" {
			tc.stats.cmds[verbSetx].Add(1)
			if s.setx(key, tok, nil, ttlSec, true) == proto.StatusOK {
				w.WriteString("STORED\r\n")
			} else {
				w.WriteString("NOT_LEASED\r\n")
			}
			return false, nil
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil || n < 0 || n > MaxValueLen {
			return false, protoErr(w, "bad length")
		}
		value, err := tc.readPayload(r, n)
		if err != nil {
			return true, err
		}
		tc.stats.cmds[verbSetx].Add(1)
		switch s.setx(key, tok, value, ttlSec, false) {
		case proto.StatusOK:
			w.WriteString("STORED\r\n")
		case proto.StatusNotStored:
			w.WriteString("NOT_STORED\r\n")
		default:
			w.WriteString("NOT_LEASED\r\n")
		}
		return false, nil

	case "version":
		tc.memcached = true
		w.WriteString("VERSION s3cached-s3fifo\r\n")
		return false, nil

	case "stats":
		s.writeStats(w)
		w.WriteString("END\r\n")
		return false, nil

	case "keys":
		// keys [max]: export up to max resident keys with their access
		// frequencies, hottest first — the cluster warm-up feed.
		max := defaultKeysMax
		if len(fields) > 2 {
			return false, protoErr(w, "usage: keys [max]")
		}
		if len(fields) == 2 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return false, protoErr(w, "bad max")
			}
			max = n
		}
		tc.stats.cmds[verbKeys].Add(1)
		s.writeKeys(w, max)
		w.WriteString("END\r\n")
		return false, nil

	case "quit":
		return true, nil

	default:
		return false, protoErr(w, "unknown command "+fields[0])
	}
}

// memcachedSet handles "set <key> <flags> <exptime> <bytes> [noreply]".
// Flags are accepted and discarded (GETs echo 0); exptime is treated as
// relative seconds (the >30-days-means-unix-timestamp rule is not
// implemented — load generators use 0 or small values). Errors use the
// memcached CLIENT_ERROR form so strict client parsers recover.
func (s *Server) memcachedSet(tc *textConn, r *bufio.Reader, w *bufio.Writer, fields []string) (quit bool, err error) {
	noreply := len(fields) == 6 && fields[5] == "noreply"
	if len(fields) != 5 && !noreply {
		return false, clientErr(w, "bad command line format")
	}
	if len(fields[1]) > MaxKeyLen {
		return false, clientErr(w, "key too long")
	}
	if _, err := strconv.ParseUint(fields[2], 10, 32); err != nil {
		return false, clientErr(w, "bad flags")
	}
	exp, err := strconv.Atoi(fields[3])
	if err != nil || exp < 0 {
		return false, clientErr(w, "bad exptime")
	}
	n, err := strconv.Atoi(fields[4])
	if err != nil || n < 0 || n > MaxValueLen {
		return false, clientErr(w, "bad data chunk size")
	}
	key := strings.Clone(fields[1]) // the copy the cache keeps
	value, err := tc.readPayload(r, n)
	if err != nil {
		return true, err
	}
	tc.stats.cmds[verbSet].Add(1)
	var stored bool
	if exp > 0 {
		stored = s.cache.SetWithTTL(key, value, time.Duration(exp)*time.Second)
	} else {
		stored = s.cache.Set(key, value)
	}
	s.noteSet(key, value, stored)
	if noreply {
		return false, nil
	}
	if stored {
		w.WriteString("STORED\r\n")
	} else {
		w.WriteString("NOT_STORED\r\n")
	}
	return false, nil
}

// Key-export bounds: "keys" with no argument samples defaultKeysMax
// entries; any request is clamped to maxKeysMax so one command cannot
// make the server sort millions of keys.
const (
	defaultKeysMax = 1024
	maxKeysMax     = 65536
)

// writeKeys renders the KEY lines for the keys command (without the END
// terminator — the text path appends it, the binary path ships the lines
// as a payload). One line per sampled key: "KEY <freq> <key>", hottest
// first when the engine tracks frequency.
func (s *Server) writeKeys(w io.Writer, max int) {
	if max > maxKeysMax {
		max = maxKeysMax
	}
	for _, ks := range s.cache.Sample(max) {
		fmt.Fprintf(w, "KEY %d %s\r\n", ks.Freq, ks.Key)
	}
}

// statRow is one served counter: its name, shared by the stats command,
// the binary stats payload and /stats, and its value (a string or a
// number).
type statRow struct {
	name  string
	value any
}

// statRows builds the served counters once, in STAT line order. Every
// stats surface renders this list, so their names cannot drift apart.
func (s *Server) statRows() []statRow {
	st := s.cache.Stats()
	rows := []statRow{{"engine", s.cache.Engine()}}
	if s.nodeID != "" {
		rows = append(rows, statRow{"node_id", s.nodeID})
	}
	if st.TierKind != "" {
		rows = append(rows, statRow{"tier_kind", st.TierKind})
	}
	if age, ok := snapshotAge(st.SnapshotUnixNano); ok {
		rows = append(rows, statRow{"snapshot_age_seconds", age})
	}
	cmds := s.commands()
	rows = append(rows,
		statRow{"hits", st.Hits},
		statRow{"misses", st.Misses},
		statRow{"hit_ratio", st.HitRatio()},
		statRow{"sets", st.Sets},
		statRow{"evictions", st.Evictions},
		statRow{"expired", st.Expired},
		statRow{"dram_hits", st.DRAMHits},
		statRow{"flash_hits", st.FlashHits},
		statRow{"flash_bytes_written", st.FlashBytesWritten},
		statRow{"flash_gc_bytes", st.FlashGCBytes},
		statRow{"flash_segments", st.FlashSegments},
		statRow{"flash_entries", st.FlashEntries},
		statRow{"demotions", st.Demotions},
		statRow{"demotions_declined", st.DemotionsDeclined},
		statRow{"promotions", st.Promotions},
		statRow{"entries", s.cache.Len()},
		statRow{"bytes", s.cache.Used()},
		statRow{"capacity", s.cache.Capacity()},
		statRow{"heap_bytes", telemetry.HeapObjectsBytes()},
		statRow{"uptime_seconds", int64(s.uptime().Seconds())},
		statRow{"demotions_degraded", st.DemotionsDegraded},
		statRow{"flash_errors", st.FlashErrors},
		statRow{"flash_degraded", boolStat(st.FlashDegraded)},
		statRow{"flash_breaker_trips", st.FlashBreakerTrips},
		statRow{"flash_breaker_restores", st.FlashBreakerRestores},
		statRow{"curr_connections", s.connsCurrent()},
		statRow{"total_connections", s.connsTotal.Load()},
		statRow{"rejected_connections", s.connsRejected.Load()},
		statRow{"accept_retries", s.acceptRetries.Load()},
		statRow{"cmd_get", cmds.all[verbGet]},
		statRow{"cmd_set", cmds.all[verbSet]},
		statRow{"cmd_delete", cmds.all[verbDelete]},
		statRow{"cmd_getx", cmds.all[verbGetx]},
		statRow{"cmd_setx", cmds.all[verbSetx]},
		statRow{"cmd_get_binary", cmds.bin[verbGet]},
		statRow{"cmd_set_binary", cmds.bin[verbSet]},
		statRow{"cmd_delete_binary", cmds.bin[verbDelete]},
		statRow{"binary_connections", s.connsBinary.Load()},
		statRow{"stale_served", st.StaleServed},
		statRow{"negative_hits", st.NegativeHits},
		statRow{"negative_sets", st.NegativeSets},
		statRow{"negative_entries", st.NegativeEntries},
	)
	if co := s.co; co != nil {
		rows = append(rows,
			statRow{"lease_grants", co.grants.Load()},
			statRow{"lease_regrants", co.regrants.Load()},
			statRow{"lease_redeems", co.redeems.Load()},
			statRow{"lease_rejects", co.rejects.Load()},
			statRow{"lease_invalidations", co.invalidations.Load()},
			statRow{"coalesced_waits", co.waits.Load()},
			statRow{"coalesced_wait_hits", co.waitHits.Load()},
			statRow{"coalesced_wait_misses", co.waitMisses.Load()},
			statRow{"coalesced_wait_timeouts", co.waitTimeouts.Load()},
			statRow{"coalesce_overflows", co.overflows.Load()},
			statRow{"coalesce_inflight", co.inflight()},
		)
	}
	return rows
}

// writeStats renders the STAT lines (without the END terminator — the
// text path appends it, the binary path ships the lines as a payload).
func (s *Server) writeStats(w io.Writer) {
	for _, r := range s.statRows() {
		fmt.Fprintf(w, "STAT %s %v\r\n", r.name, r.value)
	}
}

// snapshotAge converts a Stats.SnapshotUnixNano save time into whole
// seconds of age, reporting ok=false when the cache never touched a
// snapshot (the stat line is omitted entirely in that case, so clients
// can distinguish "no snapshot" from "saved just now").
func snapshotAge(savedAt int64) (int64, bool) {
	if savedAt == 0 {
		return 0, false
	}
	age := (time.Now().UnixNano() - savedAt) / int64(time.Second)
	if age < 0 {
		age = 0
	}
	return age, true
}

// boolStat renders a boolean as a 0/1 STAT value.
func boolStat(b bool) int {
	if b {
		return 1
	}
	return 0
}

// expectCRLF consumes the payload terminator (\r\n or \n).
func expectCRLF(r *bufio.Reader) error {
	b, err := r.ReadByte()
	if err != nil {
		return err
	}
	if b == '\r' {
		if b, err = r.ReadByte(); err != nil {
			return err
		}
	}
	if b != '\n' {
		return errors.New("server: missing payload terminator")
	}
	return nil
}

// protoErr reports a recoverable protocol error to the client.
func protoErr(w *bufio.Writer, reason string) error {
	_, err := fmt.Fprintf(w, "ERROR %s\r\n", reason)
	return err
}

// clientErr reports a recoverable protocol error in the memcached form,
// which strict memcached client parsers know how to skip.
func clientErr(w *bufio.Writer, reason string) error {
	_, err := fmt.Fprintf(w, "CLIENT_ERROR %s\r\n", reason)
	return err
}
