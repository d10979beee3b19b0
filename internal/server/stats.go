package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"kyrix/internal/cluster"
	"kyrix/internal/replog"
	"kyrix/internal/store"
)

// Stats counts server activity.
type Stats struct {
	TileRequests  atomic.Int64
	BoxRequests   atomic.Int64
	BatchRequests atomic.Int64
	CacheHits     atomic.Int64
	// CoalescedHits counts requests that piggybacked on another
	// in-flight identical request instead of querying the database.
	CoalescedHits atomic.Int64
	DBQueries     atomic.Int64
	RowsServed    atomic.Int64
	BytesServed   atomic.Int64
	Updates       atomic.Int64
	QueryNanos    atomic.Int64
	// WireBytes counts frame payload bytes as actually written on
	// framed /batch streams (post-compression/delta); BytesServed keeps
	// counting the raw-payload equivalent, so WireBytes/BytesServed is
	// the served compression ratio.
	WireBytes atomic.Int64
	// DeltaFrames counts v3 dbox frames that shipped as deltas;
	// CompressedFrames counts frames that shipped DEFLATE-compressed.
	DeltaFrames      atomic.Int64
	CompressedFrames atomic.Int64
	// LODQueries counts window queries routed to an aggregation-pyramid
	// level instead of raw rows.
	LODQueries atomic.Int64
	// InvalidationsScoped counts data changes that removed only the
	// cached windows their rows touch, InvalidationsFull those that
	// dropped both tiers whole; L1Removed counts the entries scoped
	// sweeps removed (L2's tombstones are counted by the store).
	InvalidationsScoped atomic.Int64
	InvalidationsFull   atomic.Int64
	L1Removed           atomic.Int64
}

// ServingStats is the request-path section of a StatsSnapshot.
type ServingStats struct {
	TileRequests     int64 `json:"tileRequests"`
	BoxRequests      int64 `json:"boxRequests"`
	BatchRequests    int64 `json:"batchRequests"`
	CacheHits        int64 `json:"cacheHits"`
	CoalescedHits    int64 `json:"coalescedHits"`
	DBQueries        int64 `json:"dbQueries"`
	RowsServed       int64 `json:"rowsServed"`
	BytesServed      int64 `json:"bytesServed"`
	Updates          int64 `json:"updates"`
	QueryNanos       int64 `json:"queryNanos"`
	WireBytes        int64 `json:"wireBytes"`
	DeltaFrames      int64 `json:"deltaFrames"`
	CompressedFrames int64 `json:"compressedFrames"`
	DBRowsScanned    int64 `json:"dbRowsScanned"`
	// WireMemoHits/Misses count lookups of a cached payload's derived
	// forms (DEFLATE body, row index) and of a pair's delta frame; a
	// miss is one build. WireMemoBytes/Entries are the memo's resident
	// charge and count, WireMemoEvictions the entries its LRU bound
	// dropped.
	WireMemoHits      int64 `json:"wireMemoHits"`
	WireMemoMisses    int64 `json:"wireMemoMisses"`
	WireMemoBytes     int64 `json:"wireMemoBytes"`
	WireMemoEntries   int64 `json:"wireMemoEntries"`
	WireMemoEvictions int64 `json:"wireMemoEvictions"`
}

// L1Stats is the in-memory backend cache section of a StatsSnapshot.
type L1Stats struct {
	Bytes    int64 `json:"bytes"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Shards   int   `json:"shards"`
	// Removed counts entries removed by scoped invalidation.
	Removed int64 `json:"removed"`
}

// CacheStats groups both cache tiers; L2 is absent when the persistent
// tile store is disabled.
type CacheStats struct {
	L1 L1Stats              `json:"l1"`
	L2 *store.StatsSnapshot `json:"l2,omitempty"`
	// InvalidationsScoped/Full count data changes by how much of the
	// tiers they dropped: the windows their rows touch, or everything.
	InvalidationsScoped int64 `json:"invalidationsScoped"`
	InvalidationsFull   int64 `json:"invalidationsFull"`
}

// ClusterStats is the cluster section of a StatsSnapshot (nil when
// serving standalone).
type ClusterStats struct {
	PeerFills      int64 `json:"peerFills"`
	PeerErrors     int64 `json:"peerErrors"`
	PeerServes     int64 `json:"peerServes"`
	LocalFallbacks int64 `json:"localFallbacks"`
	HotReplicas    int64 `json:"hotReplicas"`
	// BehindFills counts owner replies refused as older than this node's
	// data version; the key was queried locally.
	BehindFills int64 `json:"behindFills"`
	// Peers is per-peer transport health: failures, retries, and
	// circuit-breaker state, keyed by peer base URL.
	Peers map[string]cluster.PeerStats `json:"peers,omitempty"`
}

// LODStats is the aggregation-pyramid section of a StatsSnapshot.
type LODStats struct {
	Queries int64 `json:"queries"`
}

// BuildInfo identifies the running binary in the v2 snapshot.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
}

// StatsSnapshot is the versioned structured /stats response (schema
// version 2).
type StatsSnapshot struct {
	V             int           `json:"v"`
	UptimeSeconds float64       `json:"uptimeSeconds"`
	Build         BuildInfo     `json:"build"`
	Serving       ServingStats  `json:"serving"`
	Cache         CacheStats    `json:"cache"`
	Cluster       *ClusterStats `json:"cluster,omitempty"`
	Replog        *replog.Stats `json:"replog,omitempty"`
	LOD           LODStats      `json:"lod"`
}

// Snapshot collects the server's counters into the versioned schema.
func (s *Server) Snapshot() StatsSnapshot {
	bc := s.bcache.Stats()
	memo := s.wireMemo.Stats()
	snap := StatsSnapshot{
		V:             2,
		UptimeSeconds: time.Since(s.obs.start).Seconds(),
		Build:         BuildInfo{Version: buildVersion(), GoVersion: runtime.Version()},
		Serving: ServingStats{
			TileRequests:      s.Stats.TileRequests.Load(),
			BoxRequests:       s.Stats.BoxRequests.Load(),
			BatchRequests:     s.Stats.BatchRequests.Load(),
			CacheHits:         s.Stats.CacheHits.Load(),
			CoalescedHits:     s.Stats.CoalescedHits.Load(),
			DBQueries:         s.Stats.DBQueries.Load(),
			RowsServed:        s.Stats.RowsServed.Load(),
			BytesServed:       s.Stats.BytesServed.Load(),
			Updates:           s.Stats.Updates.Load(),
			QueryNanos:        s.Stats.QueryNanos.Load(),
			WireBytes:         s.Stats.WireBytes.Load(),
			DeltaFrames:       s.Stats.DeltaFrames.Load(),
			CompressedFrames:  s.Stats.CompressedFrames.Load(),
			DBRowsScanned:     s.db.Stats().RowsScanned,
			WireMemoHits:      memo.Hits,
			WireMemoMisses:    memo.Misses,
			WireMemoBytes:     memo.Bytes,
			WireMemoEntries:   int64(memo.Entries),
			WireMemoEvictions: memo.Evictions,
		},
		Cache: CacheStats{
			L1: L1Stats{
				Bytes:    bc.Bytes,
				Hits:     bc.Hits,
				Misses:   bc.Misses,
				Admitted: bc.Admitted,
				Rejected: bc.Rejected,
				Shards:   s.bcache.ShardCount(),
				Removed:  s.Stats.L1Removed.Load(),
			},
			InvalidationsScoped: s.Stats.InvalidationsScoped.Load(),
			InvalidationsFull:   s.Stats.InvalidationsFull.Load(),
		},
		LOD: LODStats{Queries: s.Stats.LODQueries.Load()},
	}
	if s.l2 != nil {
		l2 := s.l2.Snapshot()
		snap.Cache.L2 = &l2
	}
	if s.cluster != nil {
		cs := &s.cluster.Stats
		snap.Cluster = &ClusterStats{
			PeerFills:      cs.PeerFills.Load(),
			PeerErrors:     cs.PeerErrors.Load(),
			PeerServes:     cs.PeerServes.Load(),
			LocalFallbacks: cs.LocalFallbacks.Load(),
			HotReplicas:    cs.HotReplicas.Load(),
			BehindFills:    cs.BehindFills.Load(),
			Peers:          s.cluster.Transport().PeerStatsSnapshot(),
		}
	}
	if s.replog != nil {
		rs := s.replog.Snapshot()
		snap.Replog = &rs
	}
	return snap
}

// handleStats serves the versioned structured schema.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Snapshot())
}
