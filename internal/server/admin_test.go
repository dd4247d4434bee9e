package server_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/proto"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
)

// TestAdminEndToEnd runs the full observability stack the way s3cached
// -admin-addr wires it: a cache with a live registry, the TCP server
// registered on the same registry, real client traffic, then a /metrics
// scrape that must parse and reconcile with the stats command.
func TestAdminEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := cache.New(cache.Config{
		MaxBytes: 1 << 20,
		Engine:   "concurrent",
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(c)
	srv.RegisterMetrics(reg)
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	admin := httptest.NewServer(server.AdminHandler(srv, reg))
	defer admin.Close()

	cl, err := client.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Traffic with a known shape: 50 sets, 50 hit gets, 25 miss gets,
	// 10 deletes (5 of existing keys, 5 of absent ones).
	for i := 0; i < 50; i++ {
		key := "key" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if _, err := cl.Set(key, []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := 0, 0
	for i := 0; i < 50; i++ {
		key := "key" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		_, ok, err := cl.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			hits++
		}
	}
	for i := 0; i < 25; i++ {
		_, ok, err := cl.Get("absent" + string(rune('a'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			misses++
		}
	}
	for i := 0; i < 10; i++ {
		key := "key" + string(rune('a'+i)) + "0"
		if i >= 5 {
			key = "nosuchkey" + string(rune('a'+i))
		}
		if _, err := cl.Delete(key); err != nil {
			t.Fatal(err)
		}
	}

	// Stats first: the stats command itself must not perturb the families
	// /metrics is about to report (it only reads counters).
	st, err := cl.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine != "concurrent" {
		t.Errorf("engine = %q", st.Engine)
	}
	if st.CmdGet != 75 || st.CmdSet != 50 || st.CmdDelete != 10 {
		t.Errorf("command counters = get %d set %d delete %d, want 75/50/10",
			st.CmdGet, st.CmdSet, st.CmdDelete)
	}
	if st.TotalConnections < 1 || st.CurrConnections < 1 {
		t.Errorf("connection counters = total %d current %d",
			st.TotalConnections, st.CurrConnections)
	}
	if st.Hits != uint64(hits) || st.Misses != uint64(misses) {
		t.Errorf("hits/misses = %d/%d, want %d/%d", st.Hits, st.Misses, hits, misses)
	}

	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	metrics, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}

	// Reconcile the scrape against the stats command's counters.
	reconcile := []struct {
		series string
		want   float64
	}{
		{`cache_hits_total{tier="dram"}`, float64(st.DRAMHits)},
		{`cache_misses_total`, float64(st.Misses)},
		{`cache_sets_total`, float64(st.Sets)},
		{`server_commands_total{cmd="get"}`, float64(st.CmdGet)},
		{`server_commands_total{cmd="set"}`, float64(st.CmdSet)},
		{`server_commands_total{cmd="delete"}`, float64(st.CmdDelete)},
		{`server_connections_total`, float64(st.TotalConnections)},
		{`cache_entries`, float64(st.Entries)},
		{`cache_used_bytes`, float64(st.Bytes)},
		{`cache_capacity_bytes`, float64(st.Capacity)},
		{`cache_eviction_flow_total{reason="explicit_delete"}`, 5},
	}
	for _, rc := range reconcile {
		got, ok := metrics[rc.series]
		if !ok {
			t.Errorf("series %s missing from /metrics", rc.series)
			continue
		}
		if got != rc.want {
			t.Errorf("%s = %v, want %v", rc.series, got, rc.want)
		}
	}

	if h := metrics[`process_heap_objects_bytes`]; h < float64(st.Bytes) {
		t.Errorf("process_heap_objects_bytes = %v, below the %d bytes the cache charges for", h, st.Bytes)
	}

	// Queue occupancy gauges must be present and account for at least
	// the resident bytes (the concurrent engine's queue totals include
	// tombstoned entries not yet swept, so they can exceed Used).
	sb := metrics[`cache_queue_bytes{queue="small"}`]
	mb := metrics[`cache_queue_bytes{queue="main"}`]
	if sb+mb < float64(st.Bytes) {
		t.Errorf("queue bytes small %v + main %v < used %d", sb, mb, st.Bytes)
	}
	// Latency histograms are sampled 1-in-64; with 135 ops there may be
	// few samples, but the series themselves must exist.
	for _, series := range []string{
		`cache_op_duration_seconds_count{op="get"}`,
		`cache_op_duration_seconds_count{op="set"}`,
		`cache_op_duration_seconds_count{op="delete"}`,
	} {
		if _, ok := metrics[series]; !ok {
			t.Errorf("series %s missing from /metrics", series)
		}
	}

	// The other admin routes answer.
	for path, wantBody := range map[string]string{"/healthz": "ok\n", "/stats": `"engine"`} {
		resp, err := http.Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), wantBody) {
			t.Errorf("%s: status %d body %q", path, resp.StatusCode, body)
		}
	}
	resp2, err := http.Get(admin.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline: status %d", resp2.StatusCode)
	}
}

// TestSlowOpLog checks that a threshold low enough to catch everything
// produces structured slow-op lines and counts them.
func TestSlowOpLog(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var logged []string
	logf := func(line string) {
		mu.Lock()
		logged = append(logged, line)
		mu.Unlock()
	}
	c, err := cache.New(cache.Config{
		MaxBytes:        1 << 20,
		Metrics:         reg,
		SlowOpThreshold: time.Nanosecond,
		SlowOpLog:       logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Set("k", []byte("v"))
	c.Get("k")
	c.Get("absent")
	c.Delete("k")
	mu.Lock()
	lines := append([]string(nil), logged...)
	mu.Unlock()
	if len(lines) != 4 {
		t.Fatalf("slow-op lines = %d, want 4: %q", len(lines), lines)
	}
	for _, want := range []string{"op=set", "op=get", "op=delete", "tier=dram", "tier=miss"} {
		found := false
		for _, l := range lines {
			if strings.Contains(l, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no slow-op line contains %q: %q", want, lines)
		}
	}
	for _, l := range lines {
		if strings.Contains(l, "key=k ") || !strings.Contains(l, "key=") {
			t.Errorf("slow-op line should carry a hashed key, got %q", l)
		}
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed["cache_slow_ops_total"] != 4 {
		t.Errorf("cache_slow_ops_total = %v, want 4", parsed["cache_slow_ops_total"])
	}
}

// TestStatNamesAgree turns on every conditional stats row (a flash tier,
// anti-stampede, a node ID and a saved snapshot) and checks that the text
// stats reply, the binary stats payload and /stats carry one set of
// names, each once, and that every client.ServerStats field is filled
// from a row the server emits.
func TestStatNamesAgree(t *testing.T) {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20, FlashDir: t.TempDir(), FlashBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	srv := server.New(c, server.WithNodeID("node-1"), server.WithAntiStampede(server.AntiStampede{Coalesce: true}))
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	// names collects the name of each STAT line, failing on a repeat.
	names := func(surface string, lines []string) map[string]bool {
		set := map[string]bool{}
		for _, line := range lines {
			fields := strings.SplitN(line, " ", 3)
			if len(fields) != 3 || fields[0] != "STAT" {
				t.Fatalf("%s: malformed line %q", surface, line)
			}
			if set[fields[1]] {
				t.Errorf("%s: %s appears twice", surface, fields[1])
			}
			set[fields[1]] = true
		}
		return set
	}

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("stats\r\n")); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line = strings.TrimRight(line, "\r\n"); line == "END" {
			break
		}
		lines = append(lines, line)
	}
	text := names("text", lines)

	bconn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bconn.Close()
	if _, err := bconn.Write(proto.AppendRequest(nil, proto.OpStats, 0, 1, "", nil)); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, proto.HeaderLen)
	if _, err := io.ReadFull(bconn, head); err != nil {
		t.Fatal(err)
	}
	h, err := proto.ParseResponseHeader(head)
	if err != nil || h.Status != proto.StatusOK {
		t.Fatalf("binary stats header = %+v, %v", h, err)
	}
	payload := make([]byte, h.ValueLen)
	if _, err := io.ReadFull(bconn, payload); err != nil {
		t.Fatal(err)
	}
	binary := names("binary", strings.Split(strings.TrimSuffix(string(payload), "\r\n"), "\r\n"))

	admin := httptest.NewServer(server.AdminHandler(srv, nil))
	defer admin.Close()
	resp, err := http.Get(admin.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var js map[string]any
	err = json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"node_id", "tier_kind", "snapshot_age_seconds", "lease_grants"} {
		if !text[want] {
			t.Errorf("conditional row %s missing", want)
		}
	}
	jsNames := map[string]bool{}
	for name := range js {
		jsNames[name] = true
	}
	for surface, set := range map[string]map[string]bool{"binary payload": binary, "/stats JSON": jsNames} {
		for name := range text {
			if !set[name] {
				t.Errorf("%s: in the text reply, not in the %s", name, surface)
			}
		}
		for name := range set {
			if !text[name] {
				t.Errorf("%s: in the %s, not in the text reply", name, surface)
			}
		}
	}
	typ := reflect.TypeOf(client.ServerStats{})
	for i := 0; i < typ.NumField(); i++ {
		if tag := typ.Field(i).Tag.Get("stat"); !text[tag] {
			t.Errorf("client.ServerStats.%s reads row %q, which the server does not emit", typ.Field(i).Name, tag)
		}
	}
}
