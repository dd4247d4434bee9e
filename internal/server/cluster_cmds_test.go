// Tests for the cluster-facing server surface: the keys export command
// (text and binary), the node identity label, and the regression that
// server stats flow intact over every client wire mode.
package server

import (
	"encoding/json"
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

// TestServerStatsAllModes: ServerStats, StatsRaw and Stats come back
// intact over text, sync binary, and pipelined connections, with a node
// ID whose value holds a space.
func TestServerStatsAllModes(t *testing.T) {
	addr, _ := startServerOpts(t, cache.Config{}, WithNodeID("rack 1")) // a value with a space
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
			if st.NodeID != "rack 1" {
				t.Errorf("NodeID = %q, want rack 1", st.NodeID)
			}
			if raw, err := c.StatsRaw(); err != nil || raw["node_id"] != "rack 1" {
				t.Errorf("StatsRaw node_id = %q, %v", raw["node_id"], err)
			}
			if n, err := c.Stats(); err != nil || n["sets"] == 0 {
				t.Errorf("Stats sets = %d, %v", n["sets"], err)
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
	for _, tc := range []struct {
		srv     *Server
		nodeID  any // the /stats node_id value; nil when absent
		healthz string
	}{
		{New(c, WithNodeID("10.0.0.7:11299")), "10.0.0.7:11299", "ok node_id=10.0.0.7:11299\n"},
		{New(c), nil, "ok\n"},
	} {
		ts := httptest.NewServer(AdminHandler(tc.srv, nil))
		stats := map[string]any{}
		resp, err := ts.Client().Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/stats: %v", err)
		}
		if got := stats["node_id"]; got != tc.nodeID {
			t.Errorf("/stats node_id = %v, want %v", got, tc.nodeID)
		}
		resp, err = ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != tc.healthz {
			t.Errorf("/healthz = %q, want %q", body, tc.healthz)
		}
		ts.Close()
	}
}
