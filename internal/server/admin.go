package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"s3fifo/internal/telemetry"
)

// AdminHandler is the server's HTTP admin surface (s3cached -admin-addr):
//
//	/metrics       Prometheus text exposition from reg
//	/stats         the cache and server counters as a JSON object
//	/healthz       200 "ok" liveness probe
//	/debug/pprof/  the standard runtime profiles
//
// reg may be nil, in which case /metrics serves an empty (but valid)
// exposition. The handler is intended for a loopback or otherwise
// trusted listener: pprof exposes heap contents.
func AdminHandler(s *Server, reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.statsJSON())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// A degraded second tier still serves from DRAM, so the probe
		// stays 200 (restarting the process would not help and would drop
		// the DRAM working set too); the body flags the degradation for
		// humans and log scrapers, and names the active tier kind so an
		// operator reading the probe knows which backend's breaker it is.
		// With a node identity configured the body carries it, so cluster
		// tooling probing many nodes can confirm which one answered.
		body := "ok"
		if s.cache.FlashDegraded() {
			body = "degraded: tier breaker open"
		}
		if kind := s.cache.TierKind(); kind != "" {
			body += " tier=" + kind
		}
		if s.nodeID != "" {
			body += " node_id=" + s.nodeID
		}
		w.Write([]byte(body + "\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statsJSON flattens the cache and server counters for /stats. The keys
// match the wire protocol's stats command.
func (s *Server) statsJSON() map[string]any {
	c := s.cache
	st := c.Stats()
	cmds := s.commands()
	out := map[string]any{
		"engine": c.Engine(),
		"hits":   st.Hits, "misses": st.Misses, "sets": st.Sets,
		"evictions": st.Evictions, "expired": st.Expired,
		"hit_ratio": st.HitRatio(), "entries": c.Len(),
		"bytes": c.Used(), "capacity": c.Capacity(), "heap_bytes": telemetry.HeapObjectsBytes(),
		"dram_hits": st.DRAMHits, "flash_hits": st.FlashHits,
		"flash_bytes_written":    st.FlashBytesWritten,
		"flash_gc_bytes":         st.FlashGCBytes,
		"flash_segments":         st.FlashSegments,
		"flash_entries":          st.FlashEntries,
		"demotions":              st.Demotions,
		"demotions_declined":     st.DemotionsDeclined,
		"demotions_degraded":     st.DemotionsDegraded,
		"promotions":             st.Promotions,
		"flash_errors":           st.FlashErrors,
		"flash_degraded":         boolStat(st.FlashDegraded),
		"flash_breaker_trips":    st.FlashBreakerTrips,
		"flash_breaker_restores": st.FlashBreakerRestores,
		"uptime_seconds":         int64(s.uptime().Seconds()),
		"curr_connections":       s.connsCurrent(),
		"total_connections":      s.connsTotal.Load(),
		"rejected_connections":   s.connsRejected.Load(),
		"accept_retries":         s.acceptRetries.Load(),
		"cmd_get":                cmds.all[verbGet],
		"cmd_set":                cmds.all[verbSet],
		"cmd_delete":             cmds.all[verbDelete],
		"cmd_getx":               cmds.all[verbGetx],
		"cmd_setx":               cmds.all[verbSetx],
		"stale_served":           st.StaleServed,
		"negative_hits":          st.NegativeHits,
		"negative_sets":          st.NegativeSets,
		"negative_entries":       st.NegativeEntries,
	}
	if co := s.co; co != nil {
		out["lease_grants"] = co.grants.Load()
		out["lease_regrants"] = co.regrants.Load()
		out["lease_redeems"] = co.redeems.Load()
		out["lease_rejects"] = co.rejects.Load()
		out["lease_invalidations"] = co.invalidations.Load()
		out["coalesced_waits"] = co.waits.Load()
		out["coalesce_overflows"] = co.overflows.Load()
		out["coalesce_inflight"] = co.inflight()
	}
	if s.nodeID != "" {
		out["node_id"] = s.nodeID
	}
	if st.TierKind != "" {
		out["tier_kind"] = st.TierKind
	}
	if age, ok := snapshotAge(st.SnapshotUnixNano); ok {
		out["snapshot_age_seconds"] = age
	}
	return out
}
