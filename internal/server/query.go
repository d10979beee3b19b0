package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"kyrix/internal/cluster"
	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
)

// The path from an item to its payload, one for every caller: a /batch
// item, a GET /tile or /dbox, and a peer's fill all enter serveItem,
// which builds the item's cache key and looks it up in L1. A miss goes
// to fill, which tries L2, then the key's owner (when another node owns
// it), then the database, inside one generation-scoped flight. What
// fill finds is admitted to L1 by ownership (admit).

// planCacheSize bounds the prepared-plan cache (parsed SELECT
// statements, LRU-evicted): far above the constant per-layer statement
// shapes, but a hard ceiling if ad-hoc SQL ever flows through
// RunSelect.
const planCacheSize = 512

// serveItem checks and serves one item under either database design.
// localOnly (peer-originated fills) suppresses cluster forwarding, so
// two nodes with diverging ring views can never bounce a request
// between each other.
func (s *Server) serveItem(ctx context.Context, canvas string, it BatchItem, localOnly bool) (*payload, error) {
	pl, ok := s.Layer(canvas, it.Layer)
	if !ok || pl.Table == "" {
		return nil, badRequestError{fmt.Errorf("no data layer %s/%d", canvas, it.Layer)}
	}
	var key string
	var window geom.Rect
	switch it.Kind {
	case "tile", "":
		if !finite(it.Size) || it.Size <= 0 {
			return nil, badRequestError{fmt.Errorf("bad size %g", it.Size)}
		}
		if it.Col < 0 || it.Row < 0 {
			return nil, badRequestError{fmt.Errorf("bad col/row %d/%d", it.Col, it.Row)}
		}
		it.Kind = "tile"
		if it.Design == "" {
			it.Design = "spatial"
		}
		tid := geom.TileID{Col: it.Col, Row: it.Row}
		key = fmt.Sprintf("%s/%s/%s", keySpace, it.Design, fetch.TileKeyOf(layerKey(pl.CanvasID, pl.LayerIdx), it.Size, tid))
		window = tid.TileRect(it.Size)
	case "dbox":
		window = it.Box()
		if !window.Valid() || !finite(window.MinX, window.MinY, window.MaxX, window.MaxY) {
			return nil, badRequestError{fmt.Errorf("invalid box %+v", window)}
		}
		key = boxCacheKey(pl, window)
	default:
		return nil, badRequestError{fmt.Errorf("unknown item kind %q", it.Kind)}
	}
	if data, ok := s.bcache.Get(key); ok {
		s.Stats.CacheHits.Add(1)
		obs.SpanFromContext(ctx).Attr("l1", "hit")
		return data.(*payload), nil
	}
	q, err := s.itemQuery(ctx, pl, it, window)
	if err != nil {
		return nil, err
	}
	var fr *cluster.FillRequest
	if !localOnly && s.cluster != nil && !s.cluster.Owns(key) {
		fr = fillRequest(pl.CanvasID, key, it)
	}
	return s.fill(ctx, key, q, fr)
}

// finite reports that no v is NaN or ±Inf: a window with such an edge
// has no tile grid and no key, and an infinite box would scan the table.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
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

// query is the database statement answering one item; lod marks a read
// of an aggregation-pyramid level.
type query struct {
	sql  string
	args []storage.Value
	lod  bool
}

// itemQuery builds the query answering a checked item's window (a tile
// rectangle or a dynamic box). Auto-LOD layers route to the
// aggregation-pyramid level matching the window's zoom, falling through
// to raw rows at leaf level; everything else queries raw rows. Level
// selection is a pure function of the window and the build-time
// pyramid, so a cache key's payload is the same no matter which node —
// or which side of a cluster forward — computes it, and cache keys need
// no level component. The tuple–tile mapping design keeps serving raw
// rows: its precomputed join is already bounded by tile extent.
func (s *Server) itemQuery(ctx context.Context, pl *fetch.PhysicalLayer, it BatchItem, window geom.Rect) (query, error) {
	if it.Kind == "tile" && it.Design != "spatial" {
		if it.Design != "mapping" {
			return query{}, badRequestError{fmt.Errorf("unknown design %q", it.Design)}
		}
		sql, args, err := pl.TileSQLMapping(geom.TileID{Col: it.Col, Row: it.Row}, it.Size)
		if err != nil {
			return query{}, badRequestError{err}
		}
		return query{sql: sql, args: args}, nil
	}
	if lvl := pl.LODLevelFor(window); lvl >= 0 {
		obs.SpanFromContext(ctx).Attr("lodLevel", lvl)
		sql, args := pl.LODWindowSQL(lvl, window)
		return query{sql: sql, args: args, lod: true}, nil
	}
	sql, args := pl.WindowSQL(window)
	return query{sql: sql, args: args}, nil
}

// fill answers an L1 miss on key: from L2; else, when fr asks for it
// (another node owns the key), from the owner; else — this node owns
// the key, or the owner failed or was behind — by running q.
// Concurrent identical misses collapse onto one flight whose payload
// all callers share, so N misses do one L2 read, one peer exchange or
// one query, and hash the payload once.
//
// The cache generation and the L2 fence are read before anything runs
// and checked before anything is stored: a fill that raced an /update
// holds pre-update rows and must not repopulate the just-cleared tiers.
// The flight key embeds the generation too, so a request arriving after
// the update never coalesces onto (and never re-serves) a stale flight.
func (s *Server) fill(ctx context.Context, key string, q query, fr *cluster.FillRequest) (*payload, error) {
	gen := s.cacheGen.Load()
	l2fence := s.l2Fence()
	v, err, dup := s.flight.Do(flightKey(gen, key), func() (any, error) {
		// Double-check the cache: a previous flight (or a hot
		// replication) may have populated it while this caller was
		// queuing for a slot. Peek, not Get — the caller already
		// recorded this key's miss, and a second lookup must not
		// double-count it.
		if data, ok := s.bcache.Peek(key); ok {
			s.Stats.CacheHits.Add(1)
			return data.(*payload), nil
		}
		// The persistent tier answers before the peer hop and the
		// database: a payload this node once queried, fetched or served
		// survives in L2 across restarts, and a checksum-verified local
		// disk read beats both.
		if raw, ok := s.l2Read(ctx, key); ok {
			p := newPayload(raw)
			s.admit(gen, key, p, fr == nil)
			return p, nil
		}
		if fr != nil {
			if p := s.fetchOwner(ctx, gen, l2fence, fr); p != nil {
				return p, nil
			}
		}
		if q.lod {
			s.Stats.LODQueries.Add(1)
		}
		p, err := s.runQuery(ctx, q.sql, q.args)
		if err != nil {
			return nil, err
		}
		// A payload this node queried is its own answer, admitted as an
		// owned key's is, whoever owns the key.
		s.putUnlessStale(gen, key, p)
		s.l2Fill(l2fence, key, p.raw)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	if dup {
		s.Stats.CoalescedHits.Add(1)
	}
	return v.(*payload), nil
}

// admit puts a payload that fill read from L2 or fetched from the
// owner into L1 under generation gen, and reports whether it tried. An
// owned key always goes in, through putUnlessStale. A key another node
// owns goes in only once its sketch frequency has crossed the
// HotReplicate threshold: cluster-hot keys become locally resident
// everywhere instead of bottlenecking their owner, while the long tail
// stays owner-only and the cluster's aggregate cache capacity scales
// with node count. With admission off (no sketch) every such fill
// replicates, the plain groupcache behavior.
func (s *Server) admit(gen int64, key string, p *payload, owned bool) bool {
	if !owned {
		hr := s.cluster.HotReplicate()
		if hr < 0 {
			return false
		}
		if f := s.bcache.EstimateFreq(key); f >= 0 && f < hr {
			return false
		}
	}
	s.putUnlessStale(gen, key, p)
	return true
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

// l2Read consults the persistent tile store under an "l2.read" span and
// stage histogram sample. Every hit was checksum-verified by the store;
// a torn or corrupt record is a miss. The no-store case pays nothing
// (not even a span).
func (s *Server) l2Read(ctx context.Context, key string) ([]byte, bool) {
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
	// Charged the binary payload's bytes only: the derived forms — the
	// JSON form included — live (and are bounded) in the wire memo.
	s.bcache.Put(key, p, int64(len(p.raw)))
	if s.cacheGen.Load() != gen {
		s.bcache.Remove(key)
	}
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

// runQuery executes one window query straight into a fresh binary
// payload, hashed here, once: the executor pushes each row's tuple into
// the builder as it leaves the heap page, so scan and encode are one
// pass and the "db.query" span and stage time both.
func (s *Server) runQuery(ctx context.Context, sql string, args []storage.Value) (*payload, error) {
	sel, err := s.preparedSelect(sql)
	if err != nil {
		return nil, err
	}
	b := builderPool.Get().(*payloadBuilder)
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
		raw, _ = b.finish(cols)
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
