// Tests for the cluster-facing server surface: the keys export command
// (text and binary), the node identity label, and the regression that
// server stats flow intact over every client wire mode.
package server

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"s3fifo/cache"
	"s3fifo/client"
)

// clientModes enumerates the three wire modes every cluster-facing
// command must work over.
var clientModes = []struct {
	name string
	opts client.Options
}{
	{"text", client.Options{}},
	{"binary", client.Options{Binary: true}},
	{"pipelined", client.Options{Pipeline: 8}},
}

// TestKeysCommandAllModes: the keys export returns the resident keys
// over text, binary, and pipelined connections.
func TestKeysCommandAllModes(t *testing.T) {
	for _, mode := range clientModes {
		t.Run("engine="+served+"/"+mode.name, func(t *testing.T) {
			addr, _ := startServerOpts(t, cache.Config{})
			c, err := client.DialOptions(addr, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			want := map[string]bool{"alpha": true, "beta": true, "gamma": true}
			for k := range want {
				if ok, err := c.Set(k, []byte("v-"+k)); err != nil || !ok {
					t.Fatalf("Set(%s) = %v, %v", k, ok, err)
				}
			}
			samples, err := c.Keys(0)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for _, s := range samples {
				got[s.Key] = true
				if s.Freq < 0 {
					t.Errorf("negative freq for %q", s.Key)
				}
			}
			for k := range want {
				if !got[k] {
					t.Errorf("keys export missing %q (got %v)", k, samples)
				}
			}
		})
	}
}

// TestKeysHottestFirst: the engine keeps a real per-key frequency, so a
// repeatedly read key sorts ahead of cold keys.
func TestKeysHottestFirst(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{})
	c, err := client.DialOptions(addr, client.Options{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, k := range []string{"hot", "cold1", "cold2", "cold3"} {
		if ok, err := c.Set(k, []byte("v")); err != nil || !ok {
			t.Fatalf("Set(%s) = %v, %v", k, ok, err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := c.Get("hot"); err != nil || !ok {
			t.Fatalf("Get(hot) = %v, %v", ok, err)
		}
	}
	samples, err := c.Keys(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || samples[0].Key != "hot" {
		t.Fatalf("hottest key not first: %v", samples)
	}
	if samples[0].Freq <= 0 {
		t.Fatalf("hot key freq = %d, want > 0", samples[0].Freq)
	}
}

// TestKeysMaxClamped: the max argument bounds the sample size.
func TestKeysMaxClamped(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		key := "k" + strings.Repeat("x", i+1)
		if ok, err := c.Set(key, []byte("v")); err != nil || !ok {
			t.Fatalf("Set = %v, %v", ok, err)
		}
	}
	samples, err := c.Keys(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) > 5 {
		t.Fatalf("Keys(5) returned %d samples", len(samples))
	}
}

// TestServerStatsAllModes: the regression for the stats-over-binary
// satellite — ServerStats (and the node id it carries) must come back
// identically over text, sync binary, and pipelined connections.
func TestServerStatsAllModes(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{}, WithNodeID("node-A"))
	for _, mode := range clientModes {
		t.Run(mode.name, func(t *testing.T) {
			c, err := client.DialOptions(addr, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if ok, err := c.Set("stat-probe", []byte("v")); err != nil || !ok {
				t.Fatalf("Set = %v, %v", ok, err)
			}
			st, err := c.ServerStats()
			if err != nil {
				t.Fatal(err)
			}
			if st.NodeID != "node-A" {
				t.Errorf("NodeID = %q, want node-A", st.NodeID)
			}
			if st.Engine == "" {
				t.Error("Engine missing from stats")
			}
			if st.Sets == 0 {
				t.Error("Sets counter did not flow through")
			}
			if st.Capacity == 0 {
				t.Error("Capacity missing from stats")
			}
		})
	}
}

// TestNodeIDSurfaces: the node identity appears in /stats JSON and on
// /healthz, and is absent everywhere when unset.
func TestNodeIDSurfaces(t *testing.T) {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	labeled := New(c, WithNodeID("10.0.0.7:11299"))
	if got := labeled.statsJSON()["node_id"]; got != "10.0.0.7:11299" {
		t.Errorf("statsJSON node_id = %v", got)
	}
	ts := httptest.NewServer(AdminHandler(labeled, nil))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok node_id=10.0.0.7:11299\n" {
		t.Errorf("/healthz = %q", body)
	}

	plain := New(c)
	if _, ok := plain.statsJSON()["node_id"]; ok {
		t.Error("unset node_id leaked into statsJSON")
	}
	ts2 := httptest.NewServer(AdminHandler(plain, nil))
	defer ts2.Close()
	resp2, err := ts2.Client().Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if string(body2) != "ok\n" {
		t.Errorf("unlabeled /healthz = %q", body2)
	}
}
