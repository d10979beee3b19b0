package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"

	"kyrix/internal/obs"
)

// Observability: this file wires internal/obs into the serving pipeline.
// Spans thread through the request path on context (see serveTile /
// cachedQuery / peerQuery), per-stage latencies land in registry-owned
// histograms, and everything /stats already counted is re-exposed at
// /metrics through a scrape-time collector — one set of atomic counters,
// two renderings. /debug/requests serves the flight recorder.

// ObsOptions configures the server's observability layer. The zero value
// enables tracing with a 64-deep flight recorder and no pprof.
type ObsOptions struct {
	// DisableTracing turns off span creation and the flight recorder.
	// /metrics histograms and counters stay on (they cost two atomic
	// adds per stage); only the span/trace machinery is elided, which
	// the hot tile path then pays a single nil check for.
	DisableTracing bool
	// FlightRecorderSize is N for both the most-recent ring and the
	// slowest set served at /debug/requests (0 = 64).
	FlightRecorderSize int
	// Pprof mounts net/http/pprof under /debug/pprof/ on the server
	// mux. Off by default: the profiling surface is opt-in, like the
	// -pprof flag on kyrix-server.
	Pprof bool
}

// serverObs bundles the server's observability state: the tracer (nil
// when tracing is disabled — every Start call is then a nil check), the
// metrics registry, and pre-resolved histogram handles so the hot path
// never takes the registry lock.
type serverObs struct {
	tracer *obs.Tracer
	reg    *obs.Registry

	stageBatch   *obs.Histogram
	stageItem    *obs.Histogram
	stageL2Read  *obs.Histogram
	stageDB      *obs.Histogram
	stagePeer    *obs.Histogram
	stageDelta   *obs.Histogram
	stageComp    *obs.Histogram
	stageFlush   *obs.Histogram
	stageUpdate  *obs.Histogram
	stagePeerSrv *obs.Histogram

	start time.Time
}

const stageHistName = "kyrix_stage_duration_seconds"

// initObs builds the observability layer. Called once from New; the
// collector closure reads the server's live counters at scrape time, so
// /metrics and /stats can never disagree on a value.
func (s *Server) initObs() {
	reg := obs.NewRegistry()
	const help = "Per-stage serving latency."
	s.obs = serverObs{
		reg:          reg,
		stageBatch:   reg.Histogram(stageHistName, help, "stage", "batch"),
		stageItem:    reg.Histogram(stageHistName, help, "stage", "item"),
		stageL2Read:  reg.Histogram(stageHistName, help, "stage", "l2.read"),
		stageDB:      reg.Histogram(stageHistName, help, "stage", "db.query"),
		stagePeer:    reg.Histogram(stageHistName, help, "stage", "peer.fetch"),
		stageDelta:   reg.Histogram(stageHistName, help, "stage", "delta.plan"),
		stageComp:    reg.Histogram(stageHistName, help, "stage", "compress"),
		stageFlush:   reg.Histogram(stageHistName, help, "stage", "flush"),
		stageUpdate:  reg.Histogram(stageHistName, help, "stage", "update"),
		stagePeerSrv: reg.Histogram(stageHistName, help, "stage", "peer.serve"),
		start:        time.Now(),
	}
	if !s.opts.Obs.DisableTracing {
		s.obs.tracer = obs.NewTracer(obs.NewRecorder(s.opts.Obs.FlightRecorderSize))
	}
	reg.RegisterCollector(s.collectMetrics)
}

// tracer returns the server's tracer (nil = tracing off; obs treats a
// nil tracer as a full no-op).
func (s *Server) tracer() *obs.Tracer { return s.obs.tracer }

// FlightRecorder exposes the flight recorder (nil when tracing is
// disabled); tests read it.
func (s *Server) FlightRecorder() *obs.Recorder { return s.obs.tracer.Recorder() }

// MetricsRegistry exposes the metrics registry.
func (s *Server) MetricsRegistry() *obs.Registry { return s.obs.reg }

// buildVersion resolves the module version baked into the binary;
// "devel" outside a released build.
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// collectMetrics is the scrape-time collector: every counter /stats
// serves, re-rendered as Prometheus families. Reading the same atomics
// Snapshot reads keeps the two surfaces consistent by construction.
func (s *Server) collectMetrics(c *obs.CollectorScratchpad) {
	const (
		reqHelp   = "Requests served, by kind."
		cacheHelp = "Cache tier events."
	)
	c.Counter("kyrix_requests_total", reqHelp, float64(s.Stats.TileRequests.Load()), "kind", "tile")
	c.Counter("kyrix_requests_total", reqHelp, float64(s.Stats.BoxRequests.Load()), "kind", "dbox")
	c.Counter("kyrix_requests_total", reqHelp, float64(s.Stats.BatchRequests.Load()), "kind", "batch")
	c.Counter("kyrix_requests_total", reqHelp, float64(s.Stats.Updates.Load()), "kind", "update")

	bc := s.bcache.Stats()
	c.Counter("kyrix_cache_events_total", cacheHelp, float64(bc.Hits), "tier", "l1", "event", "hit")
	c.Counter("kyrix_cache_events_total", cacheHelp, float64(bc.Misses), "tier", "l1", "event", "miss")
	c.Counter("kyrix_cache_events_total", cacheHelp, float64(bc.Admitted), "tier", "l1", "event", "admitted")
	c.Counter("kyrix_cache_events_total", cacheHelp, float64(bc.Rejected), "tier", "l1", "event", "rejected")
	c.Counter("kyrix_cache_events_total", cacheHelp, float64(s.Stats.L1Removed.Load()), "tier", "l1", "event", "removed")
	c.Gauge("kyrix_cache_bytes", "Resident cache bytes by tier.", float64(bc.Bytes), "tier", "l1")
	const invHelp = "Data changes by how much of the cache tiers they dropped: the windows their rows touch, or everything."
	c.Counter("kyrix_invalidations_total", invHelp, float64(s.Stats.InvalidationsScoped.Load()), "scope", "rows")
	c.Counter("kyrix_invalidations_total", invHelp, float64(s.Stats.InvalidationsFull.Load()), "scope", "full")
	c.Counter("kyrix_coalesced_hits_total", "Requests that piggybacked on an in-flight identical query.", float64(s.Stats.CoalescedHits.Load()))
	c.Counter("kyrix_served_cache_hits_total", "Requests answered from the backend cache.", float64(s.Stats.CacheHits.Load()))

	c.Counter("kyrix_db_queries_total", "Database queries executed.", float64(s.Stats.DBQueries.Load()))
	c.Counter("kyrix_rows_served_total", "Rows returned by serving queries.", float64(s.Stats.RowsServed.Load()))
	c.Counter("kyrix_bytes_total", "Payload bytes, raw vs as written on framed streams.", float64(s.Stats.BytesServed.Load()), "kind", "payload")
	c.Counter("kyrix_bytes_total", "Payload bytes, raw vs as written on framed streams.", float64(s.Stats.WireBytes.Load()), "kind", "wire")
	c.Counter("kyrix_frames_total", "v3 frame encodings applied.", float64(s.Stats.DeltaFrames.Load()), "encoding", "delta")
	c.Counter("kyrix_frames_total", "v3 frame encodings applied.", float64(s.Stats.CompressedFrames.Load()), "encoding", "flate")
	c.Counter("kyrix_lod_queries_total", "Window queries routed to an aggregation-pyramid level.", float64(s.Stats.LODQueries.Load()))
	memo := s.wireMemo.Stats()
	const memoHelp = "Lookups of a cached payload's derived forms (DEFLATE body, row index) and of a pair's delta frame; a miss is one build."
	c.Counter("kyrix_wire_memo_events_total", memoHelp, float64(memo.Hits), "event", "hit")
	c.Counter("kyrix_wire_memo_events_total", memoHelp, float64(memo.Misses), "event", "miss")
	c.Gauge("kyrix_wire_memo_bytes", "Bytes charged to the wire memo's resident entries.", float64(memo.Bytes))
	c.Counter("kyrix_wire_memo_evictions_total", "Wire memo entries dropped by its LRU bound.", float64(memo.Evictions))

	if s.l2 != nil {
		l2 := s.l2.Snapshot()
		c.Counter("kyrix_cache_events_total", cacheHelp, float64(l2.Hits), "tier", "l2", "event", "hit")
		c.Counter("kyrix_cache_events_total", cacheHelp, float64(l2.Misses), "tier", "l2", "event", "miss")
		c.Counter("kyrix_cache_events_total", cacheHelp, float64(l2.Tombstones), "tier", "l2", "event", "tombstone")
		c.Gauge("kyrix_cache_bytes", "Resident cache bytes by tier.", float64(l2.Bytes), "tier", "l2")
		c.Counter("kyrix_l2_flushes_total", "L2 write-behind batch flushes.", float64(l2.BatchFlushes))
		c.Counter("kyrix_l2_scrubs_total", "L2 background scrub passes.", float64(l2.Scrubs))
		c.Counter("kyrix_l2_scrubbed_bad_total", "L2 records dropped by scrubbing.", float64(l2.ScrubbedBad))
		c.Counter("kyrix_l2_corrupt_reads_total", "L2 reads failing checksum verification.", float64(l2.CorruptReads))
	}
	if s.cluster != nil {
		cs := &s.cluster.Stats
		c.Counter("kyrix_peer_fills_total", "Cache fills served by a peer.", float64(cs.PeerFills.Load()))
		c.Counter("kyrix_peer_errors_total", "Failed peer exchanges.", float64(cs.PeerErrors.Load()))
		c.Counter("kyrix_peer_serves_total", "Fill requests served for peers.", float64(cs.PeerServes.Load()))
		c.Counter("kyrix_peer_local_fallbacks_total", "Peer failures degraded to local queries.", float64(cs.LocalFallbacks.Load()))
		c.Counter("kyrix_peer_behind_fills_total", "Peer fills refused because the owner was behind this node's data version.", float64(cs.BehindFills.Load()))
	}
	if s.replog != nil {
		rs := s.replog.Snapshot()
		c.Gauge("kyrix_replog_commit_index", "Replicated log commit index.", float64(rs.Commit))
		c.Gauge("kyrix_replog_applied_index", "Replicated log applied index.", float64(rs.Applied))
		c.Gauge("kyrix_replog_commit_lag", "Committed-but-unapplied log entries.", float64(rs.Commit-rs.Applied))
	}

	c.Gauge("kyrix_uptime_seconds", "Seconds since the server started.", time.Since(s.obs.start).Seconds())
	c.Gauge("kyrix_build_info", "Build metadata; value is always 1.", 1,
		"version", buildVersion(), "goversion", runtime.Version())
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WriteProm(w)
}

// handleDebugRequests serves the flight recorder: the N most recent and
// N slowest completed traces as JSON.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.obs.tracer.Recorder().Snapshot())
}

// mountDebug adds the observability endpoints to the server mux.
func (s *Server) mountDebug(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	if s.opts.Obs.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// startRequestSpan opens the root span of one HTTP request, continuing
// the caller's trace when the request carries a trace header (the
// frontend stamps its interaction trace onto /batch POSTs; a peer
// stamps its fill trace onto /peer).
func (s *Server) startRequestSpan(r *http.Request, name string) (context.Context, *obs.Span) {
	if tc, ok := obs.ExtractHeader(r.Header); ok {
		return s.tracer().StartRemote(r.Context(), name, tc)
	}
	return s.tracer().Start(r.Context(), name)
}

// traceMiddleware wraps a handler (the replog RPC surface) so an
// incoming trace header opens a span for the RPC: a follower's vote or
// append shows up in the leader's timeline budget, and the follower's
// own flight recorder keeps the RPC under the leader's trace ID.
func (s *Server) traceMiddleware(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, ok := obs.ExtractHeader(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		ctx, sp := s.tracer().StartRemote(r.Context(), name, tc)
		sp.Attr("path", r.URL.Path)
		defer sp.End()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
