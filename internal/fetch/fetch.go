// Package fetch implements Kyrix's data-fetching layer (§3.1): the two
// fetching granularities — static tiles and the novel dynamic boxes —
// and the two database designs that serve them — the tuple–tile mapping
// tables with B-tree indexes, and the bbox spatial-index design.
//
// The pure request-planning logic lives here (what to ask the backend
// for, given a viewport move and what is already cached); the HTTP
// halves live in internal/server and internal/frontend.
package fetch

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"kyrix/internal/geom"
)

// Granularity identifies a fetching scheme configuration, matching the
// eight schemes of the paper's Figures 6–7.
type Granularity struct {
	// Kind is "tile" or "dbox".
	Kind string
	// TileSize applies to tiles (256, 1024, 4096 in the paper).
	TileSize float64
	// Design selects the database design answering tile requests:
	// "spatial" (bbox R-tree) or "mapping" (tuple–tile join). Dynamic
	// boxes always use the spatial design ("this design can be used by
	// both static tiles and dynamic boxes").
	Design string
	// Inflate is the dynamic-box growth fraction (0 fetches exactly
	// the viewport; 0.5 is the paper's "50% larger").
	Inflate float64
	// Adaptive makes the dynamic box shrink its inflation in dense
	// regions ("dynamic boxes can adjust their sizes and locations
	// based on data sparsity"). See BoxFor.
	Adaptive bool
	// RowBudget bounds the expected rows per adaptive box.
	RowBudget int
}

// Name returns the scheme's display name as used in the paper's figure
// legends.
func (g Granularity) Name() string {
	switch g.Kind {
	case "dbox":
		switch {
		case g.Adaptive:
			return "dbox adaptive"
		case g.Inflate > 0:
			return fmt.Sprintf("dbox %d%%", int(g.Inflate*100))
		default:
			return "dbox"
		}
	case "tile":
		return fmt.Sprintf("tile %s %d", g.Design, int(g.TileSize))
	}
	return "unknown"
}

// Standard schemes from the paper's evaluation (§3.3).
var (
	DBoxExact = Granularity{Kind: "dbox", Design: "spatial"}
	DBox50    = Granularity{Kind: "dbox", Design: "spatial", Inflate: 0.5}

	TileSpatial256  = Granularity{Kind: "tile", Design: "spatial", TileSize: 256}
	TileSpatial1024 = Granularity{Kind: "tile", Design: "spatial", TileSize: 1024}
	TileSpatial4096 = Granularity{Kind: "tile", Design: "spatial", TileSize: 4096}

	TileMapping256  = Granularity{Kind: "tile", Design: "mapping", TileSize: 256}
	TileMapping1024 = Granularity{Kind: "tile", Design: "mapping", TileSize: 1024}
	TileMapping4096 = Granularity{Kind: "tile", Design: "mapping", TileSize: 4096}
)

// PaperSchemes returns the eight fetching schemes of Figures 6–7, in
// legend order.
func PaperSchemes() []Granularity {
	return []Granularity{
		DBoxExact, DBox50,
		TileSpatial1024, TileSpatial256, TileSpatial4096,
		TileMapping1024, TileMapping256, TileMapping4096,
	}
}

// Cache keys name exactly one window of one layer: coordinates are
// written in their shortest round-tripping form, so two boxes a fraction
// of a canvas unit apart never share an entry, and KeyWindow can recover
// the window from the key alone.

func keyFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TileKeyOf builds the canonical cache key of one tile of a layer.
func TileKeyOf(layer string, size float64, id geom.TileID) string {
	return "t/" + layer + "/" + keyFloat(size) + "/" + strconv.Itoa(id.Col) + "/" + strconv.Itoa(id.Row)
}

// BoxKeyOf builds the cache key of a dynamic-box response, used by the
// backend cache and by prefetched boxes.
func BoxKeyOf(layer string, box geom.Rect) string {
	return "b/" + layer + "/" + keyFloat(box.MinX) + "/" + keyFloat(box.MinY) + "/" + keyFloat(box.MaxX) + "/" + keyFloat(box.MaxY)
}

// KeyWindow is the inverse of TileKeyOf and BoxKeyOf: the layer and the
// canvas rectangle a key names (a tile's extent, or the box itself). It
// is what lets an update remove exactly the cached windows its rows
// touch. The layer id may itself contain '/': the numeric fields are
// counted from the right. ok is false for anything the two builders
// could not have produced — including a non-canonical spelling of a
// number, so an accepted key always re-encodes to itself — and a caller
// sweeping a cache should treat a rejected key as touched.
func KeyWindow(key string) (layer string, window geom.Rect, ok bool) {
	if len(key) < 2 || key[1] != '/' {
		return "", geom.Rect{}, false
	}
	nums := 4
	if key[0] == 't' {
		nums = 3
	} else if key[0] != 'b' {
		return "", geom.Rect{}, false
	}
	rest := key[2:]
	var field [4]string
	for i := nums - 1; i >= 0; i-- {
		cut := strings.LastIndexByte(rest, '/')
		if cut < 0 {
			return "", geom.Rect{}, false
		}
		rest, field[i] = rest[:cut], rest[cut+1:]
	}
	layer = rest
	if key[0] == 't' {
		size, ok1 := parseKeyFloat(field[0])
		col, ok2 := parseKeyInt(field[1])
		row, ok3 := parseKeyInt(field[2])
		if !ok1 || !ok2 || !ok3 || size <= 0 {
			return "", geom.Rect{}, false
		}
		return layer, geom.TileID{Col: col, Row: row}.TileRect(size), true
	}
	var f [4]float64
	for i := range f {
		if f[i], ok = parseKeyFloat(field[i]); !ok {
			return "", geom.Rect{}, false
		}
	}
	window = geom.Rect{MinX: f[0], MinY: f[1], MaxX: f[2], MaxY: f[3]}
	return layer, window, window.Valid()
}

// parseKeyFloat accepts only what keyFloat writes for a finite value.
func parseKeyFloat(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, false
	}
	var buf [32]byte
	return v, string(strconv.AppendFloat(buf[:0], v, 'g', -1, 64)) == s
}

// parseKeyInt accepts only what strconv.Itoa writes for a tile index.
func parseKeyInt(s string) (int, bool) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, false
	}
	var buf [24]byte
	return v, string(strconv.AppendInt(buf[:0], int64(v), 10)) == s
}

// TilesNeeded returns the tiles of size sz the viewport needs, clipped
// to the canvas — the per-step request set before cache filtering
// ("the frontend then requests the tiles that intersect with the given
// viewport"). Tile coverage is half-open so a tile-aligned viewport
// (the paper's trace-a) requests exactly one tile per tile-sized area;
// record→tile assignment stays edge-inclusive (see geom.CoveringTiles),
// so boundary records are still returned.
func TilesNeeded(viewport geom.Rect, sz, canvasW, canvasH float64) []geom.TileID {
	return geom.ViewportTiles(viewport, sz, canvasW, canvasH)
}

// BoxFor computes the dynamic box to request for a viewport under the
// given scheme ("there are numerous ways to calculate a box, e.g., a
// box centered at the viewport center having width (height) 50% larger
// than the viewport width (height)").
//
// density is the caller's current estimate of data density in
// points per square pixel (used only by adaptive boxes; pass 0 when
// unknown). The box is clamped to the canvas.
func BoxFor(g Granularity, viewport geom.Rect, canvas geom.Rect, density float64) geom.Rect {
	inflate := g.Inflate
	if g.Adaptive && density > 0 && g.RowBudget > 0 {
		// Choose the largest inflation whose expected row count stays
		// within budget: rows ≈ density * area * (1+inflate)^2.
		maxRows := float64(g.RowBudget)
		expect := density * viewport.Area()
		if expect <= 0 {
			inflate = g.Inflate
		} else {
			f := math.Sqrt(maxRows/expect) - 1
			if f < 0 {
				f = 0
			}
			if f > g.Inflate {
				f = g.Inflate
			}
			inflate = f
		}
	}
	return viewport.Inflate(inflate).Clamp(canvas).Intersection(canvas)
}

// NeedNewBox reports whether the viewport escaped the current box
// ("whenever the viewport moves outside the current box, frontend ...
// requests a new box"). A zero current box always needs a fetch.
func NeedNewBox(current, viewport geom.Rect) bool {
	if !current.Valid() || current.Area() == 0 {
		return true
	}
	return !current.Contains(viewport)
}
