package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"busytime"
	"busytime/internal/stats"
)

// maxControlBody bounds a control-plane request body (instances are JSON;
// a million-job instance is ~50 MB, far above any test workload).
const maxControlBody = 64 << 20

// StatsSnapshot is the daemon's telemetry document: lifetime counters,
// typed-reject attribution, and per-endpoint latency percentiles. It is
// what GET /stats returns and what the daemon flushes to stderr on
// SIGTERM, through the library's shared JSON encoder.
type StatsSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`
	Draining  bool    `json:"draining"`
	Tenants   int     `json:"tenants"`

	Frames   uint64 `json:"frames"`   // data-plane request frames processed
	Accepted uint64 `json:"accepted"` // placements accepted

	Rejected RejectCounts `json:"rejected"`

	Place       stats.HistSummary `json:"place"`        // data-plane place latency
	Release     stats.HistSummary `json:"release"`      // data-plane release latency
	TenantStats stats.HistSummary `json:"tenant_stats"` // data-plane stats latency
	Solve       stats.HistSummary `json:"solve"`        // control-plane solve latency
}

// RejectCounts attributes every typed data-plane rejection.
type RejectCounts struct {
	Rate     uint64 `json:"rate"`
	Live     uint64 `json:"live"`
	Shutdown uint64 `json:"shutdown"`
	Invalid  uint64 `json:"invalid"`
}

// StatsSnapshot captures the daemon's current telemetry.
func (s *Server) StatsSnapshot() StatsSnapshot {
	return StatsSnapshot{
		UptimeSec: time.Since(s.start).Seconds(),
		Draining:  s.draining.Load(),
		Tenants:   len(s.pool.Tenants()),
		Frames:    s.frames.Load(),
		Accepted:  s.accepted.Load(),
		Rejected: RejectCounts{
			Rate:     s.rejRate.Load(),
			Live:     s.rejLive.Load(),
			Shutdown: s.rejShutdown.Load(),
			Invalid:  s.rejInvalid.Load(),
		},
		Place:       s.placeHist.Summary(),
		Release:     s.releaseHist.Summary(),
		TenantStats: s.statsHist.Summary(),
		Solve:       s.solveHist.Summary(),
	}
}

// WriteStats writes the telemetry snapshot as indented JSON — the same
// bytes GET /stats serves, reused by the daemon's shutdown flush and the
// CLI's -json paths.
func (s *Server) WriteStats(w io.Writer) error {
	return stats.WriteJSON(w, s.StatsSnapshot())
}

// solveResponse is POST /v1/solve's reply.
type solveResponse struct {
	Algorithm  string      `json:"algorithm"`
	N          int         `json:"n"`
	G          int         `json:"g"`
	Machines   int         `json:"machines"`
	Cost       float64     `json:"cost"`
	LowerBound float64     `json:"lower_bound"`
	Ratio      float64     `json:"ratio"`
	Assignment map[int]int `json:"assignment"` // Job.ID → machine
}

// offlineResponse is POST /v1/tenants/{name}/offline's reply.
type offlineResponse struct {
	Tenant     string  `json:"tenant"`
	OnlineCost float64 `json:"online_cost"`
	WindowCost float64 `json:"window_cost"`
	Fractional float64 `json:"fractional_bound"`
	Ratio      float64 `json:"ratio"`
}

// controlMux routes the HTTP control plane.
func (s *Server) controlMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /v1/tenants/{name}/stats", s.handleTenantStats)
	mux.HandleFunc("POST /v1/tenants/{name}/offline", s.handleTenantOffline)
	mux.HandleFunc("DELETE /v1/tenants/{name}", s.handleTenantDrop)
	return mux
}

// writeJSON serves v with the library's shared encoder.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = stats.WriteJSON(w, v)
}

// httpError serves a JSON error document.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.draining.Load()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var in busytime.Instance
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(&in); err != nil {
		httpError(w, http.StatusBadRequest, "decoding instance: %v", err)
		return
	}
	res, err := s.oneShot.Solve(r.Context(), &in)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "solve: %v", err)
		return
	}
	resp := solveResponse{
		Algorithm:  res.Algorithm,
		N:          len(in.Jobs),
		G:          in.G,
		Machines:   res.Machines,
		Cost:       res.Cost,
		LowerBound: res.LowerBound(),
		Ratio:      res.Ratio(),
		Assignment: res.Schedule.Assignment(),
	}
	s.solveHist.Observe(time.Since(t0))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var instances []*busytime.Instance
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(&instances); err != nil {
		httpError(w, http.StatusBadRequest, "decoding instances: %v", err)
		return
	}
	results, err := s.solver.SolveBatch(r.Context(), instances)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "batch: %v", err)
		return
	}
	s.solveHist.Observe(time.Since(t0))
	w.Header().Set("Content-Type", "application/json")
	_ = busytime.WriteBatchJSON(w, results)
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	tenants := s.pool.Tenants()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(tenants), "tenants": tenants})
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.pool.Stats(name)
	if !ok {
		httpError(w, http.StatusNotFound, "tenant %q has no session", name)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleTenantOffline(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cmp, err := s.pool.Offline(name)
	if err != nil {
		httpError(w, http.StatusNotFound, "offline comparison: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, offlineResponse{
		Tenant:     name,
		OnlineCost: cmp.OnlineCost,
		WindowCost: cmp.WindowCost,
		Fractional: cmp.Bounds.Fractional,
		Ratio:      cmp.Ratio,
	})
}

func (s *Server) handleTenantDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.pool.Drop(name) {
		httpError(w, http.StatusNotFound, "tenant %q has no session", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
}
