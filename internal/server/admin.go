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
//	/stats         the stats command's rows as a JSON object
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
		out := map[string]any{}
		for _, row := range s.statRows() {
			out[row.name] = row.value
		}
		json.NewEncoder(w).Encode(out)
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
