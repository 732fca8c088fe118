package server

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"ringo/internal/algo"
	"ringo/internal/obs"
	"ringo/internal/table"
)

// Metric families the HTTP layer records. Per-verb engine metrics
// (ringo_verb_*) land in the same registry through each session engine's
// Telemetry wiring, and per-algorithm timings (ringo_algo_*) through the
// algo timer hook, so GET /metrics is the one place the whole stack
// reports.
const (
	metricHTTPRequests = "ringo_http_requests_total"
	metricHTTPInFlight = "ringo_http_in_flight_requests"
	metricHTTPDuration = "ringo_http_request_duration_seconds"
	metricAlgoDuration = "ringo_algo_duration_seconds"

	metricSessions = "ringo_sessions"
	metricUptime   = "ringo_uptime_seconds"

	metricJobsQueued    = "ringo_jobs_queued"
	metricJobsRunning   = "ringo_jobs_running"
	metricJobsDone      = "ringo_jobs_done_total"
	metricJobsFailed    = "ringo_jobs_failed_total"
	metricJobsSubmitted = "ringo_jobs_submitted_total"

	metricResultCacheHits    = "ringo_result_cache_hits_total"
	metricResultCacheMisses  = "ringo_result_cache_misses_total"
	metricResultCacheEntries = "ringo_result_cache_entries"
	metricViewCacheHits      = "ringo_view_cache_hits_total"
	metricViewCacheMisses    = "ringo_view_cache_misses_total"
	metricViewCacheEntries   = "ringo_view_cache_entries"
	metricViewCacheBytes     = "ringo_view_cache_bytes"
	metricViewPatches        = "ringo_view_patches_total"
	metricViewRebuilds       = "ringo_view_rebuilds_total"
	metricDeltaEdges         = "ringo_delta_edges"

	metricIndexCacheHits    = "ringo_index_cache_hits_total"
	metricIndexCacheMisses  = "ringo_index_cache_misses_total"
	metricIndexCacheEntries = "ringo_index_cache_entries"
	metricIndexCacheBytes   = "ringo_index_cache_bytes"
	metricTableFilterRows   = "ringo_table_filter_rows_total"

	metricMappedBytes = "ringo_mapped_bytes"

	metricGoroutines  = "ringo_goroutines"
	metricHeapAlloc   = "ringo_heap_alloc_bytes"
	metricGCPauseTot  = "ringo_gc_pause_seconds_total"
	metricGCCyclesTot = "ringo_gc_cycles_total"
)

// initObs registers the server's gauge/counter funcs over the sources
// that already count internally — the result-cache LRU, the per-session
// view caches, the session table, the Go runtime — so GET /stats,
// GET /metrics and the shell's stats verb all read the same figures, and
// wires the algo package's per-algorithm timers into the registry. Called
// once from New, before any request is served.
func (s *Server) initObs() {
	reg := s.reg
	s.inFlight = reg.Gauge(metricHTTPInFlight, "HTTP requests currently being served.")

	reg.GaugeFunc(metricSessions, "Live sessions.", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.sessions))
	})
	reg.GaugeFunc(metricUptime, "Seconds since the server was constructed.", func() float64 {
		return time.Since(s.started).Seconds()
	})

	// Result cache (CacheStats is nil-safe: zeros when caching is off).
	reg.CounterFunc(metricResultCacheHits, "Result cache hits.", func() float64 {
		h, _, _ := s.CacheStats()
		return float64(h)
	})
	reg.CounterFunc(metricResultCacheMisses, "Result cache misses.", func() float64 {
		_, m, _ := s.CacheStats()
		return float64(m)
	})
	reg.GaugeFunc(metricResultCacheEntries, "Result cache entries resident.", func() float64 {
		_, _, n := s.CacheStats()
		return float64(n)
	})

	// CSR view caches, aggregated across every live session.
	reg.CounterFunc(metricViewCacheHits, "CSR view cache hits across sessions.", func() float64 {
		h, _, _, _ := s.ViewCacheStats()
		return float64(h)
	})
	reg.CounterFunc(metricViewCacheMisses, "CSR view cache misses across sessions.", func() float64 {
		_, m, _, _ := s.ViewCacheStats()
		return float64(m)
	})
	reg.GaugeFunc(metricViewCacheEntries, "CSR views resident across sessions.", func() float64 {
		_, _, n, _ := s.ViewCacheStats()
		return float64(n)
	})
	reg.GaugeFunc(metricViewCacheBytes, "Estimated bytes held by resident CSR views.", func() float64 {
		_, _, _, b := s.ViewCacheStats()
		return float64(b)
	})

	// The incremental tier: on a view-cache miss over a mutated graph, the
	// workspace either patches the nearest resident base view forward or
	// rebuilds from scratch; the ratio of these two counters is the
	// delta-maintenance win, and the gauge is the delta-log volume stale
	// cached views can still patch forward across.
	reg.CounterFunc(metricViewPatches, "CSR view materializations served by patching a cached base.", func() float64 {
		p, _ := s.PatchStats()
		return float64(p)
	})
	reg.CounterFunc(metricViewRebuilds, "CSR view materializations served by a full rebuild.", func() float64 {
		_, r := s.PatchStats()
		return float64(r)
	})
	reg.GaugeFunc(metricDeltaEdges, "Graph mutation deltas retained in binding logs as patch material for stale cached views.", func() float64 {
		return float64(s.DeltaEdges())
	})

	// Equality-index caches, aggregated the same way, plus the process-wide
	// count of rows produced by table filters — the denominator that makes
	// the index hit rate meaningful.
	reg.CounterFunc(metricIndexCacheHits, "Equality-index cache hits across sessions.", func() float64 {
		h, _, _, _ := s.IndexCacheStats()
		return float64(h)
	})
	reg.CounterFunc(metricIndexCacheMisses, "Equality-index cache misses across sessions.", func() float64 {
		_, m, _, _ := s.IndexCacheStats()
		return float64(m)
	})
	reg.GaugeFunc(metricIndexCacheEntries, "Equality indexes resident across sessions.", func() float64 {
		_, _, n, _ := s.IndexCacheStats()
		return float64(n)
	})
	reg.GaugeFunc(metricIndexCacheBytes, "Estimated bytes held by resident equality indexes.", func() float64 {
		_, _, _, b := s.IndexCacheStats()
		return float64(b)
	})
	reg.CounterFunc(metricTableFilterRows, "Rows scanned by table filters, process-wide.", func() float64 {
		return float64(table.FilterRowsTotal())
	})

	// The beyond-RAM tier: bytes of mapped RNGM graph images across
	// sessions (served through the page cache, not the heap).
	reg.GaugeFunc(metricMappedBytes, "File-backed bytes of mapped RNGM graphs across sessions.", func() float64 {
		return float64(s.MappedBytes())
	})

	// Runtime gauges: cheap enough to read per scrape, and the figures the
	// ROADMAP's replica health checks will watch first.
	reg.GaugeFunc(metricGoroutines, "Current goroutine count.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc(metricHeapAlloc, "Bytes of allocated heap objects.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.CounterFunc(metricGCPauseTot, "Cumulative GC stop-the-world pause seconds.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.PauseTotalNs) / 1e9
	})
	reg.CounterFunc(metricGCCyclesTot, "Completed GC cycles.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC)
	})

	// Per-algorithm wall time from the hot View entry points. The hook is
	// process-global; constructing a server points it at this registry.
	algo.SetTimer(func(name string, elapsed time.Duration) {
		reg.Histogram(metricAlgoDuration, "Algorithm kernel wall time in seconds, by algorithm.",
			obs.L("algo", name)).Observe(elapsed)
	})
}

// statusRecorder captures the response status for the request metrics and
// log; Go's ResponseWriter offers no way to read it back.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// observeRequest records one completed request: per-route/status-class
// counters, the per-route latency histogram, and (when a logger is
// configured) one structured request record keyed by the request id the
// response carried in X-Request-ID.
func (s *Server) observeRequest(r *http.Request, sw *statusRecorder, reqID string, elapsed time.Duration) {
	// r.Pattern is the mux pattern the request matched ("POST
	// /sessions/{id}/query"), empty for 404s and auth rejections — both
	// fold into one bounded label instead of minting a series per bad URL.
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	}
	class := fmt.Sprintf("%dxx", sw.status/100)
	s.reg.Counter(metricHTTPRequests, "Completed HTTP requests, by route and status class.",
		obs.L("route", route), obs.L("class", class)).Inc()
	s.reg.Histogram(metricHTTPDuration, "HTTP request latency in seconds, by route.",
		obs.L("route", route)).Observe(elapsed)
	if s.logger != nil {
		s.logger.Info("http request",
			"id", reqID,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.status,
			"elapsed", elapsed,
			"remote", r.RemoteAddr,
		)
	}
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
