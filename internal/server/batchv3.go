package server

import (
	"context"
	"strconv"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/wire"
)

// Frame encoding: per-frame compression and delta-encoded dynamic
// boxes, shipped from memoized wire forms (payload.go) rather than
// recomputed per response:
//
//   - A full frame is the payload's raw bytes or its DEFLATE body. The
//     body is deflated once, by the first response that wants it, and
//     found in the wire memo afterwards — an L1 hit ships with two
//     lookups and no hashing, deflating or decoding.
//   - A delta frame is built once per (base, new) pair: the first
//     response diffs the two payloads' row indexes (ids and byte ranges,
//     scanned once per payload), copies the entering rows' bytes out of
//     the new payload and deflates the delta when that pays. The frame —
//     or the verdict that no delta pays — is memoized under both ids, so
//     every later response for the pair is one lookup after the gates.
//     The base is matched by the id computed when it was filled.
//
// The frame codec only decides how a payload crosses THIS wire: L1 and
// L2 hold raw bytes, so a delta or compressed frame never pollutes the
// cache.

// deltaMinOverlap is the fraction of the new box's area its base must
// cover before delta encoding can pay off: below it most rows are
// entering anyway and the tombstone machinery is pure overhead.
const deltaMinOverlap = 0.25

// encodeFrame picks one OK payload's wire form: the pair's delta frame
// when the item declares a base the planner accepts and a delta pays,
// else the full payload, DEFLATE-compressed when allowed and worth it.
// The fallback at every step is the previous form — worst case the
// frame ships the raw payload.
func (s *Server) encodeFrame(ctx context.Context, canvas string, it BatchItem, codec Codec, full *payload, compress bool) ([]byte, FrameCodec) {
	if it.Kind == "dbox" && it.Base != nil {
		_, sp := s.tracer().Start(ctx, "delta.plan")
		start := time.Now()
		df, cached := s.planDeltaFrame(canvas, it, codec, full, compress)
		s.obs.stageDelta.Observe(time.Since(start))
		sp.Attr("applied", df != nil)
		sp.Attr("cached", cached)
		sp.End()
		if df != nil {
			s.Stats.DeltaFrames.Add(1)
			if df.codec == FrameDeltaFlate {
				s.Stats.CompressedFrames.Add(1)
			}
			return df.body, df.codec
		}
	}
	if !compress {
		return full.raw, FrameRaw
	}
	_, sp := s.tracer().Start(ctx, "compress")
	cb, cached := s.flateOf(full)
	sp.Attr("applied", cb != nil)
	sp.Attr("cached", cached)
	sp.End()
	if cb == nil {
		return full.raw, FrameRaw
	}
	s.Stats.CompressedFrames.Add(1)
	return cb, FrameFlate
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
//   - the cached base's id is not the client's declared id (the client
//     holds stale bytes, e.g. from before an /update).
//
// Past them the frame depends only on the two payloads' bytes, the
// codec and compress: deltaFrameOf. cached reports that the frame, or
// the verdict that no delta pays, came out of the wire memo.
func (s *Server) planDeltaFrame(canvas string, it BatchItem, codec Codec, full *payload, compress bool) (df *deltaFrame, cached bool) {
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
	held, found := s.bcache.Peek(s.boxCacheKey(pl, codec, baseBox))
	if !found {
		return nil, false
	}
	base := held.(*payload)
	if base.id != baseID {
		return nil, false
	}
	return s.deltaFrameOf(base, full, codec, compress)
}

// deltaFrame is the wire form of one (base, new) pair: the delta body
// as it ships — deflated (FrameDeltaFlate) or not (FrameDelta).
type deltaFrame struct {
	body  []byte
	codec FrameCodec
}

// deltaFrameOf returns the frame that turns base into full on the wire
// (nil: no delta pays), building it on the pair's first request only.
func (s *Server) deltaFrameOf(base, full *payload, codec Codec, compress bool) (df *deltaFrame, cached bool) {
	var kind byte
	switch {
	case codec == CodecBinary && compress:
		kind = memoDeltaBinaryFlate
	case codec == CodecBinary:
		kind = memoDeltaBinary
	case compress:
		kind = memoDeltaJSONFlate
	default:
		kind = memoDeltaJSON
	}
	k := newPairKey(kind, base.id, full.id)
	if v, ok := s.memoGet(k); ok {
		return v.(*deltaFrame), true
	}
	return s.memoBuild(k, func() (any, int64) {
		df := s.buildDeltaFrame(base, full, codec, compress)
		if df == nil {
			return df, 0
		}
		return df, int64(cap(df.body))
	}).(*deltaFrame), false
}

// buildDeltaFrame diffs base against full and assembles the frame. It
// returns nil when either payload's first column is not a unique
// integer id (no row identity to diff on) or the encoded delta is not
// smaller than full. The delta is deflated when compress allows and
// that pays; this is the only deflate pass a pair ever runs.
func (s *Server) buildDeltaFrame(base, full *payload, codec Codec, compress bool) *deltaFrame {
	bix, nix := s.rowIndexOf(base, codec), s.rowIndexOf(full, codec)
	if bix == nil || nix == nil || !bix.diffable || !nix.diffable {
		return nil
	}
	delta, ok := deltaBody(bix, nix, full)
	if !ok {
		return nil
	}
	if compress {
		if cb := s.deflate(delta); cb != nil {
			return &deltaFrame{body: cb, codec: FrameDeltaFlate}
		}
	}
	return &deltaFrame{body: delta, codec: FrameDelta}
}

// deltaBody encodes the delta that turns the base behind bix into full
// (indexed by nix); ok=false when it would not be smaller than full.
func deltaBody(bix, nix *rowIndex, full *payload) ([]byte, bool) {
	tombstones, entering := bix.diff(nix)
	body := wire.EncodeDelta(wire.Delta{
		FullLen:    len(full.raw),
		NewID:      full.id,
		Tombstones: tombstones,
		Entering:   nix.subset(full.raw, entering),
	})
	if len(body) >= len(full.raw) {
		return nil, false
	}
	return body, true
}

// boxCacheKey is the backend-cache key of one dynamic-box payload —
// shared by serveBox (store/lookup) and the delta planner (base
// lookup), so the two can never disagree on where a base lives.
func (s *Server) boxCacheKey(pl *fetch.PhysicalLayer, codec Codec, box geom.Rect) string {
	return codecBoxKey(codec, layerKey(pl.CanvasID, pl.LayerIdx), box)
}

func codecBoxKey(codec Codec, layer string, box geom.Rect) string {
	return keySpace(codec) + "/" + fetch.BoxKeyOf(layer, box)
}

// keySpace is the first component of every L1 and L2 key: the codec,
// named for the layout of the bytes cached under it. L2 outlives the
// process, so a layout change moves its keys — a record an older build
// wrote is then never found and the miss refills it, instead of its
// bytes reaching a decoder for the new layout. Binary payloads were
// row-major under "binary/"; the columnar layout lives under "bincol/".
// The same name rides a peer fill request (FillRequest.Codec), so two
// builds that disagree on a layout refuse each other's fills.
func keySpace(codec Codec) string {
	if codec == CodecBinary {
		return "bincol"
	}
	return string(codec)
}

// codecOfKeySpace inverts keySpace for a peer fill request; "" is JSON,
// as it always was. Any other name — "binary" from a row-major build
// included — is a layout this build cannot produce.
func codecOfKeySpace(space string) (Codec, bool) {
	switch space {
	case "", "json":
		return CodecJSON, true
	case keySpace(CodecBinary):
		return CodecBinary, true
	}
	return "", false
}

// retiredKeySpace prefixes the L2 records of the row-major binary
// layout, which no build reads any more. New drops them once at open,
// so they stop holding the store's budget.
const retiredKeySpace = "binary/"
