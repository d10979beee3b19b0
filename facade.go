package kyrix

import (
	"kyrix/internal/coord"
	"kyrix/internal/geom"
	"kyrix/internal/learn"
	"kyrix/internal/prefetch"
	"kyrix/internal/render"
	"kyrix/internal/storage"
)

// Geometry re-exports: viewports and placements are expressed in these
// types throughout the API.
type (
	// Rect is an axis-aligned rectangle with inclusive edges.
	Rect = geom.Rect
	// Point is a canvas location.
	Point = geom.Point
	// TileID identifies one tile of a fixed tiling.
	TileID = geom.TileID
)

// RectXYWH builds a Rect from origin and size.
func RectXYWH(x, y, w, h float64) Rect { return geom.RectXYWH(x, y, w, h) }

// RectAround builds the square Rect of half-width r centered at p.
func RectAround(p Point, r float64) Rect { return geom.RectAround(p, r) }

// Rendering re-exports: examples draw through the software rasterizer.
type (
	// Image is a drawable raster mapped onto a canvas-space viewport.
	Image = render.Image
)

// NewImage creates a w×h pixel image showing the canvas-space view.
func NewImage(w, h int, view Rect) *Image { return render.New(w, h, view) }

// Coordinated views (§4, the MGH multi-view scenario).
type (
	// Coordinator links named views so panning one moves the others.
	Coordinator = coord.Coordinator
	// CoordMap is the affine viewport mapping of a link.
	CoordMap = coord.Map
	// View is anything with a movable viewport.
	View = coord.View
)

// NewCoordinator creates an empty view coordinator.
func NewCoordinator() *Coordinator { return coord.New() }

// IdentityMap maps viewports unchanged.
var IdentityMap = coord.Identity

// WithXOnly coordinates only the horizontal axis of a link.
func WithXOnly() coord.LinkOption { return coord.WithXOnly() }

// ClientView adapts a frontend Client to the coordinated-view
// interface.
type ClientView struct{ C *Client }

// Viewport implements View.
func (v ClientView) Viewport() Rect { return v.C.Viewport() }

// MoveTo implements View by panning (and fetching).
func (v ClientView) MoveTo(r Rect) error {
	_, err := v.C.Pan(r)
	return err
}

// Prefetching (§4).
type (
	// Prefetcher issues background dynamic-box fetches from a predictor.
	Prefetcher = prefetch.Prefetcher
	// TilePrefetcher warms predicted tiles: one /batch round trip per
	// prediction with ClientOptions.BatchSize > 1, one per tile otherwise.
	TilePrefetcher = prefetch.TilePrefetcher
	// Predictor forecasts the next viewport.
	Predictor = prefetch.Predictor
)

// NewMomentumPredictor extrapolates the last `window` pan deltas.
func NewMomentumPredictor(window int) Predictor { return prefetch.NewMomentum(window) }

// NewSemanticPredictor predicts by data-characteristic similarity.
func NewSemanticPredictor(field prefetch.DensityField) Predictor {
	return prefetch.NewSemantic(field)
}

// NewPrefetcher wires a predictor to a client for the given data
// layers.
func NewPrefetcher(p Predictor, c *Client, layers []int, bounds Rect) *Prefetcher {
	return prefetch.NewPrefetcher(p, c, layers, bounds)
}

// NewTilePrefetcher wires a predictor to a client's tile cache for the
// given data layers and tile size; predicted viewports are warmed
// through the backend's batch endpoint when the client batches.
func NewTilePrefetcher(p Predictor, c *Client, layers []int, tileSize float64, bounds Rect) *TilePrefetcher {
	return prefetch.NewTilePrefetcher(p, c, layers, tileSize, bounds)
}

// Placement learning (§4 "application by example").
type (
	// PlacementExample is one drag-and-drop demonstration.
	PlacementExample = learn.Example
	// PlacementFit is a learned separable placement.
	PlacementFit = learn.Fit
	// Schema describes a row layout (column names and types).
	Schema = storage.Schema
	// Column is one schema column.
	Column = storage.Column
)

// LearnPlacement recovers a separable placement from drag-and-drop
// examples over rows of the given schema.
func LearnPlacement(schema Schema, examples []PlacementExample) (*PlacementFit, error) {
	return learn.FitPlacement(schema, examples)
}
