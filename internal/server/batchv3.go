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
// boxes, shipped from the cached forms of a payload (payload.go) rather
// than recomputed per response:
//
//   - A full frame is the payload's raw bytes or its DEFLATE body. The
//     body is deflated once, by the first response that wants it, and
//     found in the wire memo afterwards — an L1 hit ships with two
//     lookups and no hashing, deflating or decoding.
//   - A delta frame diffs the base's and the new payload's row indexes
//     (ids and byte ranges, scanned once per payload) and copies the
//     entering rows' bytes out of the new payload. The base is matched by
//     the id computed when it was filled. Only the delta body — specific
//     to this (base, new) pair — is deflated per response.
//
// The frame codec only decides how a payload crosses THIS wire: L1 and
// L2 hold raw bytes, so a delta or compressed frame never pollutes the
// cache.

// deltaMinOverlap is the fraction of the new box's area its base must
// cover before delta encoding can pay off: below it most rows are
// entering anyway and the tombstone machinery is pure overhead.
const deltaMinOverlap = 0.25

// encodeFrame picks one OK payload's wire form: delta-encoded against
// the item's declared base when that pays off, DEFLATE-compressed when
// allowed and worth it. The fallback at every step is the previous
// form — worst case the frame ships the raw payload.
func (s *Server) encodeFrame(ctx context.Context, canvas string, it BatchItem, codec Codec, full *payload, compress bool) ([]byte, FrameCodec) {
	body, fc := full.raw, FrameRaw
	if it.Kind == "dbox" && it.Base != nil {
		_, sp := s.tracer().Start(ctx, "delta.plan")
		start := time.Now()
		delta, cached, ok := s.planDeltaFrame(canvas, it, codec, full)
		s.obs.stageDelta.Observe(time.Since(start))
		sp.Attr("applied", ok)
		sp.Attr("cached", cached)
		sp.End()
		if ok {
			body, fc = delta, FrameDelta
			s.Stats.DeltaFrames.Add(1)
		}
	}
	if compress {
		_, sp := s.tracer().Start(ctx, "compress")
		var cb []byte
		cached := false
		if fc == FrameDelta {
			// Specific to this (base, new) pair: deflated per response.
			cb = s.deflate(body)
		} else {
			cb, cached = s.flateOf(full)
		}
		sp.Attr("applied", cb != nil)
		sp.Attr("cached", cached)
		sp.End()
		if cb != nil {
			body = cb
			if fc == FrameDelta {
				fc = FrameDeltaFlate
			} else {
				fc = FrameFlate
			}
			s.Stats.CompressedFrames.Add(1)
		}
	}
	return body, fc
}

// planDeltaFrame attempts to delta-encode a dbox payload against the
// client's declared base. It returns ok=false — meaning "ship the full
// frame" — whenever the delta cannot be proven both correct and
// profitable:
//
//   - the base overlaps too little of the new box (the rows would
//     mostly be entering anyway),
//   - the base payload is no longer in the backend cache (recomputing
//     it would cost a database query to save wire bytes),
//   - the cached base's id is not the client's declared id (the client
//     holds stale bytes, e.g. from before an /update),
//   - either payload's first column is not a unique integer id (no row
//     identity to diff on), or
//   - the encoded delta is not actually smaller than the full payload.
//
// cached reports that both row indexes came out of the wire memo.
func (s *Server) planDeltaFrame(canvas string, it BatchItem, codec Codec, full *payload) (body []byte, cached, ok bool) {
	baseBox, newBox := it.Base.Box(), it.Box()
	if !baseBox.Valid() || baseBox.Area() <= 0 {
		return nil, false, false
	}
	inter := newBox.Intersection(baseBox)
	if !inter.Valid() || inter.Area() < deltaMinOverlap*newBox.Area() {
		return nil, false, false
	}
	baseID, err := strconv.ParseUint(it.Base.ID, 16, 64)
	if err != nil {
		return nil, false, false
	}
	pl, found := s.Layer(canvas, it.Layer)
	if !found || pl.Table == "" {
		return nil, false, false
	}
	// An auto-LOD layer serves different pyramid levels at different
	// zooms, and a representative row keeps its id across levels while
	// its aggregate columns change — the same-id ⇒ same-content premise
	// of the row diff does not hold across levels. Delta only within one
	// level (both -1 for non-LOD layers, preserving their behavior).
	if pl.LODLevelFor(baseBox) != pl.LODLevelFor(newBox) {
		return nil, false, false
	}
	held, found := s.bcache.Peek(s.boxCacheKey(pl, codec, baseBox))
	if !found {
		return nil, false, false
	}
	base := held.(*payload)
	if base.id != baseID {
		return nil, false, false
	}
	bix, bhit := s.rowIndexOf(base, codec)
	nix, nhit := s.rowIndexOf(full, codec)
	cached = bhit && nhit
	if bix == nil || nix == nil || !bix.diffable || !nix.diffable {
		return nil, cached, false
	}
	body, ok = deltaBody(bix, nix, full)
	return body, cached, ok
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
	return string(codec) + "/" + fetch.BoxKeyOf(layer, box)
}
