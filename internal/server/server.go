package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"kyrix/internal/cache"
	"kyrix/internal/cluster"
	"kyrix/internal/fetch"
	"kyrix/internal/replog"
	"kyrix/internal/singleflight"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/store"
)

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
	// wireMemo holds the derived forms of cached payloads — JSON forms,
	// DEFLATE bodies and row indexes, keyed by the content hash of the
	// bytes they derive from — and
	// the shipped delta frame of every (base, new) pair, keyed by both
	// hashes (payload.go, frames.go). Every response after the first
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
		// Entries are charged what they hold (JSON and deflated bytes,
		// index slices, delta frames), so resident memory stays bounded like
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
		})
		if err != nil {
			return nil, fmt.Errorf("server: open L2 tile store: %w", err)
		}
		if _, err := l2.Invalidate(retiredKey); err != nil {
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
