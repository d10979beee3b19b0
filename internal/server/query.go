package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"kyrix/internal/cluster"
	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
)

// planCacheSize bounds the prepared-plan cache (parsed SELECT
// statements, LRU-evicted): far above the constant per-layer statement
// shapes, but a hard ceiling if ad-hoc SQL ever flows through
// RunSelect.
const planCacheSize = 512

// serveTile produces the payload of one tile request under either
// database design, consulting the backend cache and coalescing
// concurrent identical requests onto one database query. In a cluster,
// a miss on a key another node owns is forwarded there instead of
// queried locally; localOnly (peer-originated requests) suppresses the
// forwarding so two nodes with diverging ring views can never bounce a
// request between each other.
func (s *Server) serveTile(ctx context.Context, pl *fetch.PhysicalLayer, design string, size float64, tid geom.TileID, localOnly bool) (*payload, error) {
	key := fmt.Sprintf("%s/%s/%s", keySpace, design, fetch.TileKeyOf(layerKey(pl.CanvasID, pl.LayerIdx), size, tid))
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
			Kind: "tile", Codec: keySpace, Design: design,
			Size: size, Col: tid.Col, Row: tid.Row,
		}
		return s.peerQuery(ctx, key, fr, sql, args)
	}
	return s.cachedQuery(ctx, key, sql, args)
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
func (s *Server) cachedQuery(ctx context.Context, key, sql string, args []storage.Value) (*payload, error) {
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
		p, err := s.runQuery(ctx, sql, args)
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
	// Charged the binary payload's bytes only: the derived forms — the
	// JSON form included — live (and are bounded) in the wire memo.
	s.bcache.Put(key, p, int64(len(p.raw)))
	if s.cacheGen.Load() != gen {
		s.bcache.Remove(key)
	}
}

// serveBox produces the payload of one dynamic-box request, with the
// same cache + coalescing + cluster-routing treatment as serveTile.
func (s *Server) serveBox(ctx context.Context, pl *fetch.PhysicalLayer, box geom.Rect, localOnly bool) (*payload, error) {
	key := boxCacheKey(pl, box)
	if data, ok := s.bcache.Get(key); ok {
		s.Stats.CacheHits.Add(1)
		obs.SpanFromContext(ctx).Attr("l1", "hit")
		return data.(*payload), nil
	}
	sql, args := s.windowSQL(ctx, pl, box)
	if !localOnly && s.cluster != nil && !s.cluster.Owns(key) {
		fr := &cluster.FillRequest{
			Key: key, Canvas: pl.CanvasID, Layer: pl.LayerIdx,
			Kind: "dbox", Codec: keySpace,
			MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
		}
		return s.peerQuery(ctx, key, fr, sql, args)
	}
	return s.cachedQuery(ctx, key, sql, args)
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
