package server

import (
	"time"

	"kyrix/internal/cluster"
	"kyrix/internal/fetch"
)

// ClusterOptions configures this node's membership in a serving
// cluster (consistent-hash tile ownership with peer cache fill). The
// alias keeps the knobs constructible by external module consumers.
type ClusterOptions = cluster.Options

// ReplogOptions configures the replicated update log (Cluster.Replog);
// its Dir turns /update into a quorum-committed log command, and a
// cluster requires one.
type ReplogOptions = cluster.ReplogOptions

// L1CacheOptions configures the in-memory backend cache (the first
// tier every request consults).
type L1CacheOptions struct {
	// Bytes is the cache byte budget (0 disables the cache). The shard
	// count is picked from GOMAXPROCS and the budget.
	Bytes int64
	// Admission selects the admission policy: "lfu" enables W-TinyLFU
	// frequency-based admission (a count-min sketch estimates key
	// popularity; once the cache is at budget a new entry must be more
	// frequent than the would-be victim to displace it, so one-shot
	// scans cannot flush the hot tile set); "off" or "" keeps the plain
	// sharded LRU. DefaultOptions enables "lfu". The frequency sketch
	// is sized from Bytes.
	Admission string
}

// L2CacheOptions configures the persistent tile store (internal/store)
// that sits under the in-memory cache: an embedded log-structured KV
// tier holding encoded post-render payloads across restarts. The zero
// value (no Path) disables the tier.
type L2CacheOptions struct {
	// Path is the segment directory; empty disables the L2 tier.
	Path string
	// MaxBytes is the on-disk budget (0 = 1 GiB); oldest segments are
	// evicted with live-record salvage when it is exceeded. Segment
	// files are sized from it.
	MaxBytes int64
	// WriteQueueDepth bounds the write-behind fill queue; fills finding
	// it full are dropped, never blocked on (0 = 1024).
	WriteQueueDepth int
	// FlushInterval is the longest an enqueued fill waits before its
	// batch is appended and fsynced (0 = 50 ms).
	FlushInterval time.Duration
}

// CacheOptions is the cache configuration: L1 is the in-memory
// W-TinyLFU/LRU tier, L2 the persistent tile store.
type CacheOptions struct {
	L1 L1CacheOptions
	L2 L2CacheOptions
}

// Options configures a backend server.
type Options struct {
	// Cache is the cache configuration (L1 in-memory tier, L2
	// persistent tile store).
	Cache CacheOptions
	// Cluster joins this node to a serving cluster: cache keys are
	// partitioned over a consistent-hash ring, a non-owner forwards
	// misses to the owner instead of querying the database, hot keys
	// are replicated locally, and /update is a command on the
	// replicated log every node applies (Cluster.Replog.Dir is
	// required). The zero value serves standalone.
	Cluster ClusterOptions
	// Obs configures observability: request tracing and the flight
	// recorder (on by default), the /metrics exposition, and opt-in
	// pprof. See ObsOptions.
	Obs ObsOptions
	// Precompute controls which physical structures are built at
	// startup for every layer.
	Precompute fetch.Options
}

// DefaultOptions builds both database designs with the paper's three
// tile sizes and a 256 MB W-TinyLFU backend cache.
func DefaultOptions() Options {
	return Options{
		Cache: CacheOptions{
			L1: L1CacheOptions{
				Bytes:     256 << 20,
				Admission: "lfu",
			},
		},
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    []float64{256, 1024, 4096},
		},
	}
}
