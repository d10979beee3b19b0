// Package prefetch implements the predictive prefetching the paper
// plans in §4: "both momentum-based and semantic-based prefetching were
// considered in a tiling context [ForeCache]. We plan to evaluate the
// effectiveness of momentum-based prefetching in the context of dynamic
// boxes."
//
// MomentumPredictor extrapolates the user's recent pan velocity;
// SemanticPredictor picks the neighboring region whose data
// characteristics (density) most resemble the recently viewed data.
// Both produce a predicted next viewport; a Prefetcher turns the
// prediction into a background cache-warming fetch.
package prefetch

import (
	"math"

	"kyrix/internal/geom"
)

// Predictor forecasts the next viewport from the interaction history.
type Predictor interface {
	// Observe records an actual viewport movement.
	Observe(viewport geom.Rect)
	// Predict returns the expected next viewport and whether a
	// prediction is available.
	Predict() (geom.Rect, bool)
	// Name identifies the predictor in reports.
	Name() string
}

// MomentumPredictor extrapolates from the last k pan deltas:
// "momentum-based prefetching takes the user's recent movements (e.g.,
// pan and zoom) into account".
type MomentumPredictor struct {
	window  int
	history []geom.Rect
}

// NewMomentum creates a momentum predictor averaging the last window
// moves (window >= 1).
func NewMomentum(window int) *MomentumPredictor {
	if window < 1 {
		window = 1
	}
	return &MomentumPredictor{window: window}
}

// Name implements Predictor.
func (m *MomentumPredictor) Name() string { return "momentum" }

// Observe implements Predictor.
func (m *MomentumPredictor) Observe(vp geom.Rect) {
	m.history = append(m.history, vp)
	if len(m.history) > m.window+1 {
		m.history = m.history[len(m.history)-m.window-1:]
	}
}

// Predict implements Predictor: current viewport translated by the mean
// of the recent deltas.
func (m *MomentumPredictor) Predict() (geom.Rect, bool) {
	n := len(m.history)
	if n < 2 {
		return geom.Rect{}, false
	}
	var dx, dy float64
	for i := 1; i < n; i++ {
		dx += m.history[i].MinX - m.history[i-1].MinX
		dy += m.history[i].MinY - m.history[i-1].MinY
	}
	steps := float64(n - 1)
	dx /= steps
	dy /= steps
	if dx == 0 && dy == 0 {
		return geom.Rect{}, false
	}
	return m.history[n-1].Translate(dx, dy), true
}

// DensityField is the semantic predictor's view of the data: a callback
// returning the observed point density of a region (points per px²),
// with ok=false when the region has not been observed yet. The frontend
// supplies it from past fetch reports.
type DensityField func(region geom.Rect) (float64, bool)

// SemanticPredictor chooses among candidate moves (the 4-neighborhood
// one viewport away) the one whose data characteristics are most
// similar to the recently viewed data: "semantic-based prefetching uses
// the similarity to recently viewed data in data characteristics (e.g.,
// distribution)".
type SemanticPredictor struct {
	density DensityField
	last    geom.Rect
	lastOK  bool
	recent  float64 // running mean density of viewed regions
	seen    int
}

// NewSemantic creates a semantic predictor over a density field.
func NewSemantic(field DensityField) *SemanticPredictor {
	return &SemanticPredictor{density: field}
}

// Name implements Predictor.
func (s *SemanticPredictor) Name() string { return "semantic" }

// Observe implements Predictor.
func (s *SemanticPredictor) Observe(vp geom.Rect) {
	s.last, s.lastOK = vp, true
	if d, ok := s.density(vp); ok {
		s.seen++
		s.recent += (d - s.recent) / float64(s.seen)
	}
}

// Predict implements Predictor: the neighbor whose observed density is
// closest to the running mean of viewed regions. Unobserved neighbors
// are ranked last; if none is observed there is no prediction.
func (s *SemanticPredictor) Predict() (geom.Rect, bool) {
	if !s.lastOK || s.seen == 0 {
		return geom.Rect{}, false
	}
	w, h := s.last.W(), s.last.H()
	candidates := []geom.Rect{
		s.last.Translate(w, 0),
		s.last.Translate(-w, 0),
		s.last.Translate(0, h),
		s.last.Translate(0, -h),
	}
	best := geom.Rect{}
	bestDiff := math.Inf(1)
	found := false
	for _, c := range candidates {
		d, ok := s.density(c)
		if !ok {
			continue
		}
		diff := math.Abs(d - s.recent)
		if diff < bestDiff {
			bestDiff, best, found = diff, c, true
		}
	}
	return best, found
}

// BoxFetcher warms several layers' prefetch slots with one box in a
// single call; the frontend client's PrefetchBoxes satisfies it, riding
// one /batch round trip. The fetcher declares each layer's current box
// as the delta base, so a momentum prefetch one viewport ahead — which
// overlaps the current box heavily by construction — ships mostly as
// entering rows instead of a full payload.
type BoxFetcher interface {
	PrefetchBoxes(layers []int, box geom.Rect) error
}

// Prefetcher drives a predictor after every observed interaction and
// issues background prefetches.
type Prefetcher struct {
	pred    Predictor
	fetcher BoxFetcher
	layers  []int
	bounds  geom.Rect
	// Inflate grows the predicted viewport before fetching, absorbing
	// prediction error.
	Inflate float64

	// Stats
	Issued int
	Errs   int
}

// NewPrefetcher wires a predictor to a fetcher for the given data
// layers, clamping prefetches to canvas bounds.
func NewPrefetcher(pred Predictor, fetcher BoxFetcher, layers []int, bounds geom.Rect) *Prefetcher {
	return &Prefetcher{pred: pred, fetcher: fetcher, layers: layers, bounds: bounds}
}

// OnPan records the movement and synchronously issues the prefetch for
// the predicted next viewport. (The frontend calls it after reporting
// the user-visible response time, so prefetch cost stays off the
// interaction path, like ForeCache's background fetches.) The fetcher
// receives all layers in one call — one round trip for the whole
// prediction, delta-encoded against the current boxes.
func (p *Prefetcher) OnPan(viewport geom.Rect) {
	p.pred.Observe(viewport)
	next, ok := p.pred.Predict()
	if !ok {
		return
	}
	box := next.Inflate(p.Inflate).Clamp(p.bounds).Intersection(p.bounds)
	if !box.Valid() || box.Area() == 0 {
		return
	}
	p.Issued += len(p.layers)
	if err := p.fetcher.PrefetchBoxes(p.layers, box); err != nil {
		p.Errs++
	}
}

// TileFetcher warms a cache with a set of tiles of one layer; the
// frontend client's PrefetchTiles satisfies it (over the backend's
// /batch endpoint: one round trip for the whole set when the client's
// BatchSize > 1, one per tile otherwise).
type TileFetcher interface {
	PrefetchTiles(layerIdx int, size float64, tiles []geom.TileID) error
}

// TilePrefetcher is the static-tile counterpart of Prefetcher: it
// predicts the next viewport and warms every tile it covers, the whole
// predicted region costing one batched round trip.
type TilePrefetcher struct {
	pred    Predictor
	fetcher TileFetcher
	layers  []int
	size    float64
	bounds  geom.Rect
	// Inflate grows the predicted viewport before tiling it.
	Inflate float64

	// Stats
	Issued int // prefetch calls issued (one per layer per prediction)
	Tiles  int // tiles requested across all calls
	Errs   int
}

// NewTilePrefetcher wires a predictor to a tile fetcher for the given
// data layers and tile size, clamping predictions to canvas bounds.
func NewTilePrefetcher(pred Predictor, fetcher TileFetcher, layers []int, size float64, bounds geom.Rect) *TilePrefetcher {
	return &TilePrefetcher{pred: pred, fetcher: fetcher, layers: layers, size: size, bounds: bounds}
}

// OnPan records the movement and warms the tiles of the predicted next
// viewport.
func (p *TilePrefetcher) OnPan(viewport geom.Rect) {
	p.pred.Observe(viewport)
	next, ok := p.pred.Predict()
	if !ok {
		return
	}
	box := next.Inflate(p.Inflate).Clamp(p.bounds).Intersection(p.bounds)
	if !box.Valid() || box.Area() == 0 {
		return
	}
	tiles := geom.ViewportTiles(box, p.size, p.bounds.W(), p.bounds.H())
	if len(tiles) == 0 {
		return
	}
	for _, li := range p.layers {
		p.Issued++
		p.Tiles += len(tiles)
		if err := p.fetcher.PrefetchTiles(li, p.size, tiles); err != nil {
			p.Errs++
		}
	}
}
