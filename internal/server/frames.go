package server

import (
	"context"
	"strconv"
	"strings"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/wire"
)

// Frame encoding: per-frame compression and delta-encoded dynamic
// boxes, shipped from memoized wire forms (payload.go) rather than
// recomputed per response:
//
//   - A full frame is the payload in the response codec — the binary
//     payload itself or its JSON form — or that form's DEFLATE body. The
//     body is deflated once, by the first response that wants it, and
//     found in the wire memo afterwards — an L1 hit ships with a few
//     lookups and no hashing, deflating or decoding.
//   - A delta frame is built once per (base, new) pair and codec: the
//     first response diffs the two payloads' row indexes, gathers the
//     entering rows out of the new payload (as JSON for a JSON client)
//     and deflates the delta when that pays. The frame — or the verdict
//     that no delta pays — is memoized under both ids, so every later
//     response for the pair is one lookup after the gates. The base is
//     matched by the id of the form the client holds.
//
// The frame codec only decides how a payload crosses THIS wire: L1 and
// L2 hold the binary payload, so a JSON, delta or compressed frame never
// pollutes the cache.

// deltaMinOverlap is the fraction of the new box's area its base must
// cover before delta encoding can pay off: below it most rows are
// entering anyway and the tombstone machinery is pure overhead.
const deltaMinOverlap = 0.25

// encodeFrame picks one OK payload's wire form: the pair's delta frame
// when the item declares a base the planner accepts and a delta pays,
// else the full payload in the response codec, DEFLATE-compressed when
// that is worth it. The fallback at every step is the previous form —
// worst case the frame ships the payload uncompressed. size is the full
// payload's length in the response codec.
func (s *Server) encodeFrame(ctx context.Context, canvas string, it BatchItem, codec Codec, full *payload) (body []byte, fc FrameCodec, size int, err error) {
	if it.Kind == "dbox" && it.Base != nil {
		pctx, sp := s.tracer().Start(ctx, "delta.plan")
		start := time.Now()
		df, cached := s.planDeltaFrame(pctx, canvas, it, codec, full)
		s.obs.stageDelta.Observe(time.Since(start))
		sp.Attr("applied", df != nil)
		sp.Attr("cached", cached)
		sp.End()
		if df != nil {
			s.Stats.DeltaFrames.Add(1)
			if df.codec == FrameDeltaFlate {
				s.Stats.CompressedFrames.Add(1)
			}
			return df.body, df.codec, df.size, nil
		}
	}
	fctx, sp := s.tracer().Start(ctx, "compress")
	defer sp.End()
	f, cached, err := s.frameOf(fctx, full, codec)
	if err != nil {
		return nil, 0, 0, err
	}
	sp.Attr("applied", f.codec == FrameFlate)
	sp.Attr("cached", cached)
	if f.body == nil {
		return full.raw, FrameRaw, f.size, nil
	}
	if f.codec == FrameFlate {
		s.Stats.CompressedFrames.Add(1)
	}
	return f.body, f.codec, f.size, nil
}

// planDeltaFrame returns the frame that delta-encodes a dbox payload
// against the client's declared base, or nil — meaning "ship the full
// frame" — whenever the delta cannot be proven both correct and
// profitable. These gates run on every request, before the memo is
// consulted, so a memoized frame only ever ships where a fresh one
// would:
//
//   - the base overlaps too little of the new box (the rows would
//     mostly be entering anyway),
//   - the two boxes sit at different LOD levels,
//   - the base payload is no longer in the backend cache (recomputing
//     it would cost a database query to save wire bytes), or
//   - the id of the cached base, in the form a client of this codec
//     holds, is not the client's declared id (the client holds stale
//     bytes, e.g. from before an /update).
//
// Past them the frame depends only on the two payloads' bytes and the
// codec: deltaFrameOf. cached reports that the frame, or the verdict
// that no delta pays, came out of the wire memo.
func (s *Server) planDeltaFrame(ctx context.Context, canvas string, it BatchItem, codec Codec, full *payload) (df *frame, cached bool) {
	baseBox, newBox := it.Base.Box(), it.Box()
	if !baseBox.Valid() || baseBox.Area() <= 0 {
		return nil, false
	}
	inter := newBox.Intersection(baseBox)
	if !inter.Valid() || inter.Area() < deltaMinOverlap*newBox.Area() {
		return nil, false
	}
	baseID, err := strconv.ParseUint(it.Base.ID, 16, 64)
	if err != nil {
		return nil, false
	}
	pl, found := s.Layer(canvas, it.Layer)
	if !found || pl.Table == "" {
		return nil, false
	}
	// An auto-LOD layer serves different pyramid levels at different
	// zooms, and a representative row keeps its id across levels while
	// its aggregate columns change — the same-id ⇒ same-content premise
	// of the row diff does not hold across levels. Delta only within one
	// level (both -1 for non-LOD layers, preserving their behavior).
	if pl.LODLevelFor(baseBox) != pl.LODLevelFor(newBox) {
		return nil, false
	}
	held, found := s.bcache.Peek(boxCacheKey(pl, baseBox))
	if !found {
		return nil, false
	}
	if sum, err := s.shipped(ctx, held.(*payload), codec); err != nil || sum.id != baseID {
		return nil, false
	}
	return s.deltaFrameOf(ctx, held.(*payload), full, codec)
}

// frame is a payload's wire form: body under codec, standing for size
// bytes of the payload in the response codec. A nil body ships L1's.
type frame struct {
	body  []byte
	codec FrameCodec
	size  int
}

// deltaFrameOf returns the frame that turns base into full on the wire
// (nil: no delta pays), building it on the pair's first request only.
func (s *Server) deltaFrameOf(ctx context.Context, base, full *payload, codec Codec) (df *frame, cached bool) {
	kind := byte(memoDeltaJSONFlate)
	if codec == CodecBinary {
		kind = memoDeltaBinaryFlate
	}
	v, cached := s.memo(newPairKey(kind, base.id, full.id), func() (any, int64) {
		df := s.buildDeltaFrame(ctx, base, full, codec)
		if df == nil {
			return df, 0
		}
		return df, int64(cap(df.body))
	})
	return v.(*frame), cached
}

// buildDeltaFrame diffs base against full and assembles the frame. It
// returns nil when either payload's first column is not a unique
// integer id (no row identity to diff on) or the encoded delta is not
// smaller than full in the response codec. The delta is deflated when
// that pays; this is the only deflate pass a pair ever runs.
func (s *Server) buildDeltaFrame(ctx context.Context, base, full *payload, codec Codec) *frame {
	bix, nix := s.rowIndexOf(base), s.rowIndexOf(full)
	if bix == nil || nix == nil || !bix.diffable || !nix.diffable {
		return nil
	}
	sum, err := s.shipped(ctx, full, codec)
	if err != nil {
		return nil
	}
	delta, ok := deltaBody(bix, nix, full, sum, codec)
	if !ok {
		return nil
	}
	if cb := s.deflate(delta); cb != nil {
		return &frame{body: cb, codec: FrameDeltaFlate, size: sum.size}
	}
	return &frame{body: delta, codec: FrameDelta, size: sum.size}
}

// deltaBody encodes the delta that turns the base behind bix into full
// (indexed by nix) for a client of codec, which receives full as
// shipped; ok=false when it would not be smaller than that.
func deltaBody(bix, nix *rowIndex, full *payload, shipped formSum, codec Codec) ([]byte, bool) {
	tombstones, entering := bix.diff(nix)
	rows := nix.subset(full.raw, entering)
	if codec != CodecBinary {
		var err error
		if rows, err = jsonPayload(rows); err != nil {
			return nil, false
		}
	}
	body := wire.EncodeDelta(wire.Delta{
		FullLen:    shipped.size,
		NewID:      shipped.id,
		Tombstones: tombstones,
		Entering:   rows,
	})
	if len(body) >= shipped.size {
		return nil, false
	}
	return body, true
}

// boxCacheKey is the backend-cache key of one dynamic-box payload —
// shared by serveBox (store/lookup) and the delta planner (base
// lookup), so the two can never disagree on where a base lives.
func boxCacheKey(pl *fetch.PhysicalLayer, box geom.Rect) string {
	return keySpace + "/" + fetch.BoxKeyOf(layerKey(pl.CanvasID, pl.LayerIdx), box)
}

// keySpace is the first component of every L1 and L2 key, named for the
// layout cached under it. L2 outlives the process, so a layout change
// moves its keys: an older build's record is never found, and the miss
// refills it. The name rides a peer fill request (FillRequest.Codec) too,
// so builds that disagree on a layout refuse each other's fills.
const keySpace = "bincol"

// retiredKey reports an L2 key of a layout no build reads: row-major
// binary payloads and JSON copies. New drops them once at open, so they
// stop holding the store's budget.
func retiredKey(k string) bool {
	return strings.HasPrefix(k, "binary/") || strings.HasPrefix(k, "json/")
}
