package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kyrix/internal/cache"
	"kyrix/internal/cluster"
	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/replog"
	"kyrix/internal/singleflight"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/store"
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
	// ScrubInterval, when positive, re-verifies every resident record's
	// checksum each interval in the background, dropping any that no
	// longer read back clean (surfaced as scrubbedBad in /stats). 0
	// disables scrubbing.
	ScrubInterval time.Duration
}

// CacheOptions is the cache configuration: L1 is the in-memory
// W-TinyLFU/LRU tier, L2 the persistent tile store.
type CacheOptions struct {
	L1 L1CacheOptions
	L2 L2CacheOptions
}

// planCacheSize bounds the prepared-plan cache (parsed SELECT
// statements, LRU-evicted): far above the constant per-layer statement
// shapes, but a hard ceiling if ad-hoc SQL ever flows through
// RunSelect.
const planCacheSize = 512

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

// Server is the Kyrix backend: precomputed physical layers over an
// embedded DBMS, a sharded backend cache, singleflight request
// coalescing, and the HTTP surface the frontend talks to.
type Server struct {
	db     *sqldb.DB
	ca     *spec.CompiledApp
	layers map[string]*fetch.PhysicalLayer
	bcache *cache.LRU
	opts   Options

	// flight coalesces concurrent identical tile/box requests onto one
	// database query.
	flight singleflight.Group
	// cacheGen is the backend-cache generation: the global fence of the
	// update path (update.go). Every data change bumps it before anything
	// is removed from the cache, whether the removal is scoped or whole.
	// A query result started under an older generation is never stored
	// (putUnlessStale), and flight keys embed the generation, so a
	// post-update request never joins a stale flight — an in-flight query
	// from before the update cannot repopulate the cache with pre-update
	// rows, whichever window it was for.
	cacheGen atomic.Int64
	// updateMu is the update fence. It orders v3 delta planning against
	// updates: a delta frame diffs TWO payloads (the cached base and the
	// fresh full result), and mixing a pre-update base with a
	// post-update result would ship rows the tombstone/entering diff
	// cannot see changed.
	// Delta-eligible items hold the read side across query + plan; an
	// update holds the write side across exec + generation bump + cache
	// removal, so a plan is wholly before or wholly after an update.
	// "After" finds every base that held a changed row removed (a full
	// frame) and every surviving base free of changed rows (a delta that
	// is still exact). Besides handlePeer's read of its data version,
	// other serving never touches this lock.
	updateMu sync.RWMutex
	// idIndexOnce builds the layers' id-column indexes when the first
	// update arrives (ensureIDIndexes).
	idIndexOnce sync.Once
	// plans caches parsed SELECT statements by SQL text, bounded by
	// planCacheSize with LRU eviction. Every layer emits a
	// constant statement shape per design (arguments ride in '?'
	// placeholders), so the hot path skips the parser entirely.
	plans *cache.LRU
	// wireMemo holds the derived forms of cached payloads — DEFLATE
	// bodies and row indexes, keyed by the payload's content hash — and
	// the shipped delta frame of every (base, new) pair, keyed by both
	// hashes (payload.go, batchv3.go). Every response after the first
	// ships them with a lookup. Content-addressed entries are immutable,
	// so updates need no invalidation; the LRU bound caps residency.
	// memoFlight collapses concurrent first builds of one form.
	wireMemo   *cache.LRU
	memoFlight singleflight.Group

	// cluster is this node's membership in the serving cluster (ring,
	// peer transport); nil when serving standalone.
	cluster *cluster.Node

	// replog, when non-nil, is the replicated update log: /update
	// becomes a quorum-committed log command applied on every node in
	// log order through applyUpdate. Configured by
	// Options.Cluster.Replog.Dir; always set in a cluster.
	replog *replog.Node
	// applyMu guards applyOutcome, the bounded index→outcome side
	// channel from applyUpdate back to the /update handler that submitted
	// the command (the apply callback runs on the log's applier
	// goroutine, not the handler's).
	applyMu      sync.Mutex
	applyOutcome map[uint64]applied // guarded by applyMu

	// l2 is the persistent tile store under the in-memory cache (nil
	// when Options.Cache.L2.Path is empty): an L1 miss reads L2 before
	// the database, and database and peer fills are written back through
	// the store's bounded write-behind queue. An update removes the keys
	// its rows touch with durable tombstones (store.Invalidate) or, when
	// it cannot be scoped, the whole tier with a generation marker
	// (store.Bump); either moves the store's fence, which drops fills
	// computed before the change.
	l2 *store.Store

	// queryHook, when set (tests only), runs inside every database
	// query execution; the coalescing test uses it to hold a query
	// open until all concurrent callers have piled onto the flight.
	queryHook func()

	// obs is the observability layer (obs.go): tracer + flight
	// recorder, metrics registry, and pre-resolved stage histograms.
	obs serverObs

	Stats Stats
}

func layerKey(canvasID string, idx int) string {
	return fmt.Sprintf("%s/%d", canvasID, idx)
}

// New precomputes every layer of the compiled app and returns a ready
// server ("the backend server then builds indexes and performs
// necessary precomputation"). Layers are materialized in parallel
// under a bounded worker pool; the first error wins and the remaining
// work is abandoned.
func New(db *sqldb.DB, ca *spec.CompiledApp, opts Options) (*Server, error) {
	var admission cache.Admission
	switch opts.Cache.L1.Admission {
	case "", "off":
		admission = cache.AdmissionOff
	case "lfu":
		admission = cache.AdmissionLFU
	default:
		return nil, fmt.Errorf("server: unknown cache admission %q (want \"lfu\" or \"off\")", opts.Cache.L1.Admission)
	}
	if opts.Cluster.Enabled() && opts.Cluster.Replog.Dir == "" {
		return nil, errors.New("server: a cluster needs a replicated update log (Cluster.Replog.Dir): it is the only way an update reaches the other nodes")
	}
	s := &Server{
		db:     db,
		ca:     ca,
		layers: make(map[string]*fetch.PhysicalLayer),
		bcache: cache.New(cache.Config{
			Budget:    opts.Cache.L1.Bytes,
			Admission: admission,
		}),
		// One entry = size 1, so the byte budget counts plans; a single
		// shard keeps exact LRU order (the cap is tiny).
		plans: cache.NewLRUSharded(planCacheSize, 1),
		// Entries are charged what they hold (deflated bytes, index
		// slices, delta frames), so resident memory stays bounded like
		// the other caches.
		wireMemo: cache.NewLRU(32 << 20),
		opts:     opts,
	}
	s.initObs()
	if opts.Cache.L2.Path != "" {
		l2, err := store.Open(store.Options{
			Path:            opts.Cache.L2.Path,
			MaxBytes:        opts.Cache.L2.MaxBytes,
			WriteQueueDepth: opts.Cache.L2.WriteQueueDepth,
			FlushInterval:   opts.Cache.L2.FlushInterval,
			ScrubInterval:   opts.Cache.L2.ScrubInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("server: open L2 tile store: %w", err)
		}
		if _, err := l2.Invalidate(func(k string) bool { return strings.HasPrefix(k, retiredKeySpace) }); err != nil {
			_ = l2.Close() // already failing; the invalidate error wins
			return nil, fmt.Errorf("server: drop retired L2 records: %w", err)
		}
		s.l2 = l2
	}
	if opts.Cluster.Enabled() {
		cn, err := cluster.New(opts.Cluster)
		if err != nil {
			return nil, err
		}
		s.cluster = cn
	}

	// Per-layer materialization tasks on the shared work-stealing pool.
	// The pool cancels the context on the first error, so sibling layer
	// builds in flight stop at their next batch boundary instead of
	// running a doomed startup to completion.
	var (
		layerMu sync.Mutex
		tasks   []fetch.Task
	)
	for ci, c := range ca.Spec.Canvases {
		for li := range c.Layers {
			ci, li, id := ci, li, c.ID
			tasks = append(tasks, func(ctx context.Context) error {
				pl, err := fetch.Materialize(ctx, db, ca, ci, li, opts.Precompute)
				if err != nil {
					return fmt.Errorf("server: precompute %s layer %d: %w", id, li, err)
				}
				layerMu.Lock()
				s.layers[layerKey(id, li)] = pl
				layerMu.Unlock()
				return nil
			})
		}
	}
	if err := fetch.RunTasks(context.Background(), runtime.GOMAXPROCS(0), tasks); err != nil {
		return nil, err
	}
	if opts.Cluster.Replog.Dir != "" {
		// Opened after precompute so WAL replay applies committed
		// updates onto the freshly built in-memory tables; a standalone
		// node's Open returns once that replay is done. Each node
		// invalidates for itself inside applyUpdate.
		var rpc replog.RPC
		if s.cluster != nil {
			rpc = s.cluster.Transport()
		}
		self := opts.Cluster.Self
		if self == "" {
			self = "standalone"
		}
		s.applyOutcome = make(map[uint64]applied)
		rl, err := replog.Open(replog.Config{
			Self:            self,
			Peers:           opts.Cluster.Peers,
			Dir:             opts.Cluster.Replog.Dir,
			Transport:       rpc,
			Apply:           s.applyUpdate,
			ElectionTimeout: opts.Cluster.Replog.ElectionTimeout,
			SubmitTimeout:   opts.Cluster.Replog.SubmitTimeout,
		})
		if err != nil {
			if s.l2 != nil {
				_ = s.l2.Close() // already failing; the open error wins
			}
			return nil, fmt.Errorf("server: open replicated log: %w", err)
		}
		s.replog = rl
	}
	return s, nil
}

// Replog exposes the replicated update log (nil when not configured);
// experiments use it to observe roles and applied indexes.
func (s *Server) Replog() *replog.Node { return s.replog }

// Layer returns the physical layer for a canvas layer.
func (s *Server) Layer(canvasID string, idx int) (*fetch.PhysicalLayer, bool) {
	pl, ok := s.layers[layerKey(canvasID, idx)]
	return pl, ok
}

// DB exposes the backing database (examples issue updates through it).
func (s *Server) DB() *sqldb.DB { return s.db }

// BackendCache exposes cache statistics for experiment reports.
func (s *Server) BackendCache() *cache.LRU { return s.bcache }

// --- metadata served to the frontend ---

// LayerMeta is what the frontend needs to know about one layer:
// schema, placement parameters for client-side bbox computation, and
// which renderer to run.
type LayerMeta struct {
	CanvasID string `json:"canvas"`
	Index    int    `json:"index"`
	Static   bool   `json:"static"`
	Renderer string `json:"renderer"`
	// Table is the physical table serving this layer (the base table
	// for separable layers, the materialized layer table otherwise);
	// §4-style updates that should be visible in the view target it.
	Table     string    `json:"table"`
	Cols      []string  `json:"cols"`
	Types     ColTypes  `json:"types"`
	Separable bool      `json:"separable"`
	XIdx      int       `json:"xIdx"`
	YIdx      int       `json:"yIdx"`
	XScale    float64   `json:"xScale"`
	YScale    float64   `json:"yScale"`
	Radius    float64   `json:"radius"`
	BBoxIdx   [4]int    `json:"bboxIdx"`
	TileSizes []float64 `json:"tileSizes"`
	HasData   bool      `json:"hasData"`
	// LOD reports that the layer serves an aggregation pyramid: zoomed-
	// out windows return per-cell aggregate rows (base schema + appended
	// lod_* columns), so cached boxes must be refetched when the zoom
	// level changes; LODLevels is the pyramid height.
	LOD       bool `json:"lod,omitempty"`
	LODLevels int  `json:"lodLevels,omitempty"`
}

// RowBox computes the canvas bbox of a fetched row client-side.
func (lm *LayerMeta) RowBox(row storage.Row) geom.Rect {
	if lm.Separable {
		p := geom.Point{
			X: row[lm.XIdx].AsFloat() * lm.XScale,
			Y: row[lm.YIdx].AsFloat() * lm.YScale,
		}
		return geom.RectAround(p, lm.Radius)
	}
	return geom.Rect{
		MinX: row[lm.BBoxIdx[0]].AsFloat(),
		MinY: row[lm.BBoxIdx[1]].AsFloat(),
		MaxX: row[lm.BBoxIdx[2]].AsFloat(),
		MaxY: row[lm.BBoxIdx[3]].AsFloat(),
	}
}

// CanvasMeta describes one canvas to the frontend.
type CanvasMeta struct {
	ID     string      `json:"id"`
	W      float64     `json:"w"`
	H      float64     `json:"h"`
	Layers []LayerMeta `json:"layers"`
}

// AppMeta is the full /app response.
type AppMeta struct {
	Name          string       `json:"name"`
	Canvases      []CanvasMeta `json:"canvases"`
	Jumps         []spec.Jump  `json:"jumps"`
	InitialCanvas string       `json:"initialCanvas"`
	InitialX      float64      `json:"initialX"`
	InitialY      float64      `json:"initialY"`
	ViewportW     float64      `json:"viewportW"`
	ViewportH     float64      `json:"viewportH"`
}

// Meta builds the app metadata from the compiled spec + physical
// layers.
func (s *Server) Meta() *AppMeta {
	app := s.ca.Spec
	meta := &AppMeta{
		Name:          app.Name,
		Jumps:         app.Jumps,
		InitialCanvas: app.InitialCanvas,
		InitialX:      app.InitialX,
		InitialY:      app.InitialY,
		ViewportW:     app.ViewportW,
		ViewportH:     app.ViewportH,
	}
	for _, c := range app.Canvases {
		cm := CanvasMeta{ID: c.ID, W: c.W, H: c.H}
		for li, l := range c.Layers {
			pl := s.layers[layerKey(c.ID, li)]
			lm := LayerMeta{
				CanvasID: c.ID,
				Index:    li,
				Static:   l.Static,
				Renderer: l.Renderer,
			}
			if pl != nil && pl.Table != "" {
				lm.HasData = true
				lm.Table = pl.Table
				lm.Separable = pl.Separable
				lm.Radius = pl.Radius
				lm.XScale, lm.YScale = pl.XScale, pl.YScale
				for _, col := range pl.Schema {
					lm.Cols = append(lm.Cols, col.Name)
					lm.Types = append(lm.Types, col.Type)
				}
				if pl.Separable {
					lm.XIdx = pl.Schema.ColIndex(pl.XCol)
					lm.YIdx = pl.Schema.ColIndex(pl.YCol)
				} else {
					for i, b := range pl.BBoxCols {
						lm.BBoxIdx[i] = pl.Schema.ColIndex(b)
					}
				}
				for sz := range pl.TileMaps {
					lm.TileSizes = append(lm.TileSizes, sz)
				}
				if pl.LOD != nil {
					lm.LOD = true
					lm.LODLevels = len(pl.LOD.Levels)
				}
			}
			cm.Layers = append(cm.Layers, lm)
		}
		meta.Canvases = append(meta.Canvases, cm)
	}
	return meta
}

// --- HTTP surface ---

// Handler returns the backend's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/app", s.handleApp)
	mux.HandleFunc("/tile", s.handleTile)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/dbox", s.handleDBox)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc(cluster.PeerPath, s.handlePeer)
	if s.replog != nil {
		mux.Handle("/replog/", s.traceMiddleware("replog.rpc", s.replog.Handler()))
	}
	s.mountDebug(mux)
	return mux
}

func (s *Server) handleApp(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Meta()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) layerFromQuery(r *http.Request) (*fetch.PhysicalLayer, error) {
	canvas := r.URL.Query().Get("canvas")
	layerStr := r.URL.Query().Get("layer")
	idx, err := strconv.Atoi(layerStr)
	if err != nil {
		return nil, fmt.Errorf("bad layer index %q", layerStr)
	}
	pl, ok := s.Layer(canvas, idx)
	if !ok {
		return nil, fmt.Errorf("no layer %s/%d", canvas, idx)
	}
	if pl.Table == "" {
		return nil, fmt.Errorf("layer %s/%d has no data", canvas, idx)
	}
	return pl, nil
}

// codecOf reads a request's codec parameter (empty is JSON).
func codecOf(r *http.Request) (Codec, error) {
	return checkCodec(Codec(r.URL.Query().Get("codec")))
}

// checkCodec defaults an empty codec to JSON and refuses any name but
// json and binary. The codec picks the cache key space, so an unchecked
// name could reach bytes cached in another layout ("bincol" is the
// binary key space) or probe both tiers for a payload no encoder makes.
func checkCodec(c Codec) (Codec, error) {
	switch c {
	case "":
		return CodecJSON, nil
	case CodecJSON, CodecBinary:
		return c, nil
	}
	return "", fmt.Errorf("unknown codec %q", c)
}

func floatParam(r *http.Request, name string) (float64, error) {
	v, err := strconv.ParseFloat(r.URL.Query().Get(name), 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", name, err)
	}
	return v, nil
}

// serveTile produces the payload of one tile request under either
// database design, consulting the backend cache and coalescing
// concurrent identical requests onto one database query. In a cluster,
// a miss on a key another node owns is forwarded there instead of
// queried locally; localOnly (peer-originated requests) suppresses the
// forwarding so two nodes with diverging ring views can never bounce a
// request between each other.
func (s *Server) serveTile(ctx context.Context, pl *fetch.PhysicalLayer, design string, codec Codec, size float64, tid geom.TileID, localOnly bool) (*payload, error) {
	key := fmt.Sprintf("%s/%s/%s", keySpace(codec), design, fetch.TileKeyOf(layerKey(pl.CanvasID, pl.LayerIdx), size, tid))
	if data, ok := s.bcache.Get(key); ok {
		s.Stats.CacheHits.Add(1)
		obs.SpanFromContext(ctx).Attr("l1", "hit")
		return data.(*payload), nil
	}
	var sql string
	var args []storage.Value
	var err error
	switch design {
	case "spatial":
		sql, args = s.windowSQL(ctx, pl, tid.TileRect(size))
	case "mapping":
		sql, args, err = pl.TileSQLMapping(tid, size)
		if err != nil {
			return nil, badRequestError{err}
		}
	default:
		return nil, badRequestError{fmt.Errorf("unknown design %q", design)}
	}
	if !localOnly && s.cluster != nil && !s.cluster.Owns(key) {
		fr := &cluster.FillRequest{
			Key: key, Canvas: pl.CanvasID, Layer: pl.LayerIdx,
			Kind: "tile", Codec: keySpace(codec), Design: design,
			Size: size, Col: tid.Col, Row: tid.Row,
		}
		return s.peerQuery(ctx, key, fr, sql, args, codec)
	}
	return s.cachedQuery(ctx, key, sql, args, codec)
}

// badRequestError marks an error as the caller's fault (HTTP 400);
// anything else surfaces as 500.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func httpStatusOf(err error) int {
	var bre badRequestError
	if errors.As(err, &bre) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// cachedQuery runs one cacheable request body: on a cache miss it
// executes the query (through the plan cache) and stores the payload.
// Concurrent identical keys collapse onto a single execution whose
// payload all callers share.
//
// The cache generation is captured before the query runs and checked
// before the payload is stored: a query that raced an /update holds
// pre-update rows and must not repopulate the just-cleared cache. The
// flight key embeds the generation too, so a request arriving after
// the update never coalesces onto (and never re-serves) a stale
// in-flight query.
func (s *Server) cachedQuery(ctx context.Context, key, sql string, args []storage.Value, codec Codec) (*payload, error) {
	gen := s.cacheGen.Load()
	l2fence := s.l2Fence()
	// fill is the miss path past L1. The persistent tier answers before
	// the database: an L2 hit is a checksum-verified disk read, promoted
	// into L1 so the next request never touches disk.
	fill := func() (*payload, error) {
		if raw, ok := s.l2ReadTraced(ctx, key); ok {
			p := newPayload(raw)
			s.putUnlessStale(gen, key, p)
			return p, nil
		}
		p, err := s.runQuery(ctx, sql, args, codec)
		if err != nil {
			return nil, err
		}
		s.putUnlessStale(gen, key, p)
		s.l2Fill(l2fence, key, p.raw)
		return p, nil
	}
	v, err, dup := s.flight.Do(flightKey(gen, key), func() (any, error) {
		// Double-check the cache: a previous flight for this key may
		// have populated it while this caller was queuing for a slot.
		// Peek, not Get — the caller already recorded this key's miss,
		// and a second lookup must not double-count it.
		if data, ok := s.bcache.Peek(key); ok {
			s.Stats.CacheHits.Add(1)
			return data.(*payload), nil
		}
		// Inside the flight, so N concurrent misses do one L2 read or
		// one query, and hash the payload once.
		return fill()
	})
	if err != nil {
		return nil, err
	}
	if dup {
		s.Stats.CoalescedHits.Add(1)
	}
	return v.(*payload), nil
}

// l2Fence reads the persistent tier's write-behind fence before a query
// runs; l2Fill hands it back so a fill that raced an invalidation is
// dropped at flush time (the write-behind analog of putUnlessStale).
func (s *Server) l2Fence() uint64 {
	if s.l2 == nil {
		return 0
	}
	return s.l2.Fence()
}

// l2Read consults the persistent tile store (nil-safe). Every hit was
// checksum-verified by the store; a torn or corrupt record is a miss.
func (s *Server) l2Read(key string) ([]byte, bool) {
	if s.l2 == nil {
		return nil, false
	}
	return s.l2.Get(key)
}

// l2ReadTraced is l2Read wrapped in an "l2.read" span + stage histogram
// sample. The no-store case pays nothing (not even a span).
func (s *Server) l2ReadTraced(ctx context.Context, key string) ([]byte, bool) {
	if s.l2 == nil {
		return nil, false
	}
	_, sp := s.tracer().Start(ctx, "l2.read")
	start := time.Now()
	payload, ok := s.l2.Get(key)
	s.obs.stageL2Read.Observe(time.Since(start))
	sp.Attr("hit", ok)
	sp.End()
	return payload, ok
}

// l2Fill writes one payload back to the persistent tier through its
// bounded write-behind queue: never blocking the serving path (a full
// queue drops the fill), and stamped with the fence read before the
// query ran so a fill racing an /update can never persist pre-update
// rows after it.
func (s *Server) l2Fill(fence uint64, key string, payload []byte) {
	if s.l2 == nil {
		return
	}
	s.l2.PutAt(key, payload, fence)
}

// flightKey scopes a coalescing key to a cache generation.
func flightKey(gen int64, key string) string {
	return fmt.Sprintf("g%d/%s", gen, key)
}

// putUnlessStale stores a query payload produced under generation gen,
// guaranteeing no stale entry survives an /update race. A plain
// check-then-Put would be a TOCTOU hole: the generation could bump
// (and the update's sweep pass this shard) between the check and the
// Put, leaving the stale payload resident. Re-checking after the Put
// closes it — if the generation moved, either the sweep already removed
// this entry or the Remove below does. The one benign loss: the Remove may also
// delete a fresh same-key entry written by a newer-generation flight
// in the window, which costs a cache miss, never staleness.
func (s *Server) putUnlessStale(gen int64, key string, p *payload) {
	if s.cacheGen.Load() != gen {
		return
	}
	// Charged raw bytes only: the derived forms live (and are bounded)
	// in the wire memo.
	s.bcache.Put(key, p, int64(len(p.raw)))
	if s.cacheGen.Load() != gen {
		s.bcache.Remove(key)
	}
}

// handleTile answers one static-tile request under either database
// design.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	s.Stats.TileRequests.Add(1)
	pl, err := s.layerFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	size, err := floatParam(r, "size")
	if err != nil || size <= 0 {
		http.Error(w, "bad size", http.StatusBadRequest)
		return
	}
	col, err1 := strconv.Atoi(q.Get("col"))
	row, err2 := strconv.Atoi(q.Get("row"))
	if err1 != nil || err2 != nil || col < 0 || row < 0 {
		http.Error(w, "bad col/row", http.StatusBadRequest)
		return
	}
	design := q.Get("design")
	if design == "" {
		design = "spatial"
	}
	codec, err := codecOf(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, sp := s.startRequestSpan(r, "http.tile")
	sp.Attr("canvas", pl.CanvasID)
	start := time.Now()
	p, err := s.serveTile(ctx, pl, design, codec, size, geom.TileID{Col: col, Row: row}, false)
	s.obs.stageItem.Observe(time.Since(start))
	sp.End()
	if err != nil {
		http.Error(w, err.Error(), httpStatusOf(err))
		return
	}
	s.writePayload(w, codec, p.raw)
}

// handleDBox answers one dynamic-box request (always the spatial
// design, §3.1).
func (s *Server) handleDBox(w http.ResponseWriter, r *http.Request) {
	s.Stats.BoxRequests.Add(1)
	pl, err := s.layerFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var box geom.Rect
	for _, p := range []struct {
		name string
		dst  *float64
	}{
		{"minx", &box.MinX}, {"miny", &box.MinY}, {"maxx", &box.MaxX}, {"maxy", &box.MaxY},
	} {
		v, err := floatParam(r, p.name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		*p.dst = v
	}
	if !box.Valid() {
		http.Error(w, "invalid box", http.StatusBadRequest)
		return
	}
	codec, err := codecOf(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, sp := s.startRequestSpan(r, "http.dbox")
	sp.Attr("canvas", pl.CanvasID)
	start := time.Now()
	p, err := s.serveBox(ctx, pl, codec, box, false)
	s.obs.stageItem.Observe(time.Since(start))
	sp.End()
	if err != nil {
		http.Error(w, err.Error(), httpStatusOf(err))
		return
	}
	s.writePayload(w, codec, p.raw)
}

// serveBox produces the payload of one dynamic-box request, with the
// same cache + coalescing + cluster-routing treatment as serveTile.
func (s *Server) serveBox(ctx context.Context, pl *fetch.PhysicalLayer, codec Codec, box geom.Rect, localOnly bool) (*payload, error) {
	key := s.boxCacheKey(pl, codec, box)
	if data, ok := s.bcache.Get(key); ok {
		s.Stats.CacheHits.Add(1)
		obs.SpanFromContext(ctx).Attr("l1", "hit")
		return data.(*payload), nil
	}
	sql, args := s.windowSQL(ctx, pl, box)
	if !localOnly && s.cluster != nil && !s.cluster.Owns(key) {
		fr := &cluster.FillRequest{
			Key: key, Canvas: pl.CanvasID, Layer: pl.LayerIdx,
			Kind: "dbox", Codec: keySpace(codec),
			MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
		}
		return s.peerQuery(ctx, key, fr, sql, args, codec)
	}
	return s.cachedQuery(ctx, key, sql, args, codec)
}

// windowSQL builds the database query answering one window (a tile
// rectangle or a dynamic box) against a layer: auto-LOD layers route to
// the aggregation-pyramid level matching the window's zoom, falling
// through to raw rows at leaf level; everything else queries raw rows.
// Level selection is a pure function of the window and the build-time
// pyramid, so a cache key's payload is the same no matter which node —
// or which side of a cluster forward — computes it, and cache keys need
// no level component. The tuple–tile mapping design keeps serving raw
// rows: its precomputed join is already bounded by tile extent.
func (s *Server) windowSQL(ctx context.Context, pl *fetch.PhysicalLayer, window geom.Rect) (string, []storage.Value) {
	if lvl := pl.LODLevelFor(window); lvl >= 0 {
		s.Stats.LODQueries.Add(1)
		obs.SpanFromContext(ctx).Attr("lodLevel", lvl)
		return pl.LODWindowSQL(lvl, window)
	}
	return pl.WindowSQL(window)
}

// preparedSelect returns the parsed form of sql, parsing at most once
// per resident statement text. Layer query shapes are constant strings
// with '?' placeholders, so after warm-up the hot path never touches
// the parser; the cache is bounded (planCacheSize, LRU), so
// ad-hoc SQL through RunSelect cannot grow it without limit.
func (s *Server) preparedSelect(sql string) (*sqldb.SelectStmt, error) {
	if v, ok := s.plans.Get(sql); ok {
		return v.(*sqldb.SelectStmt), nil
	}
	st, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqldb.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("server: layer statement is not a SELECT: %T", st)
	}
	// Concurrent parsers may race here; either winner is equivalent.
	s.plans.Put(sql, sel, 1)
	return sel, nil
}

// runQuery executes one window query straight into a fresh payload,
// hashed here, once: the executor pushes each row into the codec's
// builder as it leaves the heap page, so scan and encode are one pass
// and the "db.query" span and stage time both.
func (s *Server) runQuery(ctx context.Context, sql string, args []storage.Value, codec Codec) (*payload, error) {
	sel, err := s.preparedSelect(sql)
	if err != nil {
		return nil, err
	}
	b, err := newPayloadBuilder(codec)
	if err != nil {
		return nil, err
	}
	defer b.release()
	if hook := s.queryHook; hook != nil {
		hook()
	}
	_, sp := s.tracer().Start(ctx, "db.query")
	start := time.Now()
	s.Stats.DBQueries.Add(1)
	cols, err := s.db.SelectInto(sel, args, b.add)
	var raw []byte
	if err == nil {
		raw = b.finish(cols)
	}
	elapsed := time.Since(start)
	s.obs.stageDB.Observe(elapsed)
	if err != nil {
		sp.Attr("err", err.Error())
		sp.End()
		return nil, err
	}
	sp.Attr("rows", b.n)
	sp.Attr("bytes", len(raw))
	sp.End()
	s.Stats.QueryNanos.Add(elapsed.Nanoseconds())
	s.Stats.RowsServed.Add(int64(b.n))
	return newPayload(raw), nil
}

func (s *Server) writePayload(w http.ResponseWriter, codec Codec, payload []byte) {
	if codec == CodecBinary {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	s.Stats.BytesServed.Add(int64(len(payload)))
	_, _ = w.Write(payload)
}

// --- versioned /stats ---

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

// L2 exposes the persistent tile store (nil when disabled); experiment
// harnesses read its stats.
func (s *Server) L2() *store.Store { return s.l2 }

// Close releases the server's background resources in dependency
// order: the replicated log first (it stops elections and replication,
// drains every committed entry through applyUpdate, and fsyncs its
// WAL — applyUpdate touches the caches and L2, so they must still be
// open), then the persistent tile store (write-behind queue drained so
// fills accepted before Close are readable after the next Open). The
// HTTP listener is owned by the caller and closed separately.
// Idempotent.
func (s *Server) Close() error {
	var err error
	if s.replog != nil {
		if cerr := s.replog.Close(); cerr != nil && !errors.Is(cerr, replog.ErrClosed) {
			err = cerr
		}
	}
	if s.l2 != nil {
		if cerr := s.l2.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
