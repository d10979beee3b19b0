// Package frontend implements the Kyrix frontend as a headless
// simulator: it tracks the viewport, keeps the frontend cache, issues
// pan and jump interactions against the backend over HTTP, and renders
// fetched objects through registered rendering functions.
//
// The frontend is "responsible for listening to users' activities,
// communicating with the backend server to fetch data and rendering
// the visualizations" (§1). Here user activities are driven
// programmatically (by examples, experiments and tests) instead of by
// mouse events; everything else — caches, request patterns, response
// handling — matches the paper's architecture.
package frontend

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"context"

	"kyrix/internal/cache"
	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/render"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/storage"
)

// InteractiveBudget is the paper's interactivity threshold: "the
// interactivity problem in Kyrix is to achieve a 500 ms response time".
const InteractiveBudget = 500 * time.Millisecond

// RenderFunc draws one data object onto the image. Static data-less
// layers (legends) are invoked once with a nil row.
type RenderFunc func(img *render.Image, meta *server.LayerMeta, row storage.Row, box geom.Rect)

// Options configures a frontend client.
type Options struct {
	// Scheme is the fetching granularity for every data layer.
	Scheme fetch.Granularity
	// Codec selects the wire encoding.
	Codec server.Codec
	// CacheBytes is the frontend cache budget (tiles; 0 disables).
	// The cache is one shard with exact LRU order: a Client runs on
	// one goroutine, so there is no lock contention to shard away.
	CacheBytes int64
	// HTTPClient overrides the default client (tests inject one).
	HTTPClient *http.Client
	// BatchSize > 1 puts every layer's missing tiles in the viewport's
	// one /batch round trip, beside its boxes (split only past
	// server.MaxBatchItems). 0 or 1 keeps the paper's per-tile protocol:
	// each missing tile is a /batch round trip of its own. Dynamic boxes
	// and static layers always share the viewport's round trip.
	BatchSize int
	// Tracer, when non-nil, opens one client-side "interaction" span per
	// Load/Pan/Jump covering the whole viewport fetch (time-to-first-
	// frame and duration land as attributes), and stamps the trace
	// context onto /batch POSTs so the server's http.batch spans stitch
	// under the client's interaction trace.
	Tracer *obs.Tracer
}

// DefaultOptions uses dynamic boxes with a 64 MB frontend cache.
func DefaultOptions() Options {
	return Options{
		Scheme:     fetch.DBoxExact,
		Codec:      server.CodecJSON,
		CacheBytes: 64 << 20,
	}
}

// FetchReport describes one interaction's data fetching, the quantity
// the paper's experiments measure.
type FetchReport struct {
	Canvas    string
	Viewport  geom.Rect
	Duration  time.Duration
	Requests  int
	CacheHits int
	Rows      int
	// Bytes counts logical payload bytes: what a raw (uncompressed,
	// un-delta'd) frame would have carried, so the number is comparable
	// however the items were grouped into round trips.
	Bytes int64
	// WireBytes counts bytes actually read off the wire by the round
	// trips, header and framing included — per-frame compression and
	// delta boxes shrink it below Bytes (WireBytes/Bytes is the
	// achieved ratio).
	WireBytes int64
	// FirstFrame is the time from interaction start to the first
	// decoded frame — how long before the first layer (under per-tile
	// fetching, the first tile) could render. Zero when no round trip
	// ran.
	FirstFrame time.Duration
	OverBudget bool // exceeded the 500 ms interactivity budget
}

// boxState is the dynamic-box state of one layer: the current box and
// its data ("whenever the viewport moves outside the current box,
// frontend sends the current viewport location to backend and requests
// a new box").
type boxState struct {
	box geom.Rect
	// data holds the box's rows column by column, as decoded or as a
	// delta rebuilt them; rows are built only for what is drawn.
	data *server.Columns
	// wireID identifies the exact payload bytes data stands for
	// (wire.PayloadID of the full payload, or a delta's NewID) — the
	// delta-base id declared to the server. Zero disables deltas against
	// this state.
	wireID uint64
	// prefetched holds a box fetched ahead of need (momentum
	// prefetching, §4); promoted when the viewport enters it.
	prefetched *boxState
}

// Client is a frontend instance bound to one backend and one app.
type Client struct {
	base string
	hc   *http.Client
	opts Options

	meta        *server.AppMeta
	ca          *spec.CompiledApp // for jump function resolution (may be nil)
	canvas      *server.CanvasMeta
	viewport    geom.Rect
	fcache      *cache.LRU
	boxes       map[int]*boxState
	density     map[int]float64 // scalar rows per px², per layer
	densityGrid map[int]map[cellKey]float64
	renderers   map[string]RenderFunc

	// ictx carries the current interaction's obs span (context.Background
	// when Options.Tracer is nil or between interactions).
	ictx context.Context

	// TotalReports accumulates every interaction's report.
	TotalReports []FetchReport
}

// NewClient connects to a backend, downloads the app metadata and
// positions the viewport at the app's initial location. The compiled
// app may be nil when jumps are not used (the experiments).
func NewClient(baseURL string, ca *spec.CompiledApp, opts Options) (*Client, error) {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Client{
		base:        baseURL,
		hc:          hc,
		opts:        opts,
		ca:          ca,
		fcache:      cache.NewLRUSharded(opts.CacheBytes, 1),
		boxes:       make(map[int]*boxState),
		density:     make(map[int]float64),
		densityGrid: make(map[int]map[cellKey]float64),
		renderers:   make(map[string]RenderFunc),
		ictx:        context.Background(),
	}
	resp, err := hc.Get(baseURL + "/app")
	if err != nil {
		return nil, fmt.Errorf("frontend: fetch app meta: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := readBounded(resp.Body, 4096)
		return nil, fmt.Errorf("frontend: /app: %s: %s", resp.Status, body)
	}
	var meta server.AppMeta
	if err := decodeJSON(resp.Body, &meta); err != nil {
		return nil, err
	}
	c.meta = &meta
	if err := c.setCanvas(meta.InitialCanvas); err != nil {
		return nil, err
	}
	c.viewport = geom.RectXYWH(
		meta.InitialX-meta.ViewportW/2, meta.InitialY-meta.ViewportH/2,
		meta.ViewportW, meta.ViewportH,
	).Clamp(c.canvasRect())
	return c, nil
}

// maxResponseBytes bounds any single server response read into memory
// (64 MiB, far above any real tile or batch payload): a haywire or
// hostile server cannot OOM a client. The bound is machine-checked —
// every ReadAll must flow through a limit (internal/analysis,
// boundedread).
const maxResponseBytes = 64 << 20

// readBounded reads r to EOF, failing if the payload exceeds limit.
func readBounded(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("frontend: response exceeds %d-byte limit", limit)
	}
	return data, nil
}

func decodeJSON(r io.Reader, v any) error {
	data, err := readBounded(r, maxResponseBytes)
	if err != nil {
		return fmt.Errorf("frontend: read body: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("frontend: decode: %w", err)
	}
	return nil
}

// Meta returns the app metadata.
func (c *Client) Meta() *server.AppMeta { return c.meta }

// Canvas returns the current canvas metadata.
func (c *Client) Canvas() *server.CanvasMeta { return c.canvas }

// Viewport returns the current viewport.
func (c *Client) Viewport() geom.Rect { return c.viewport }

// FrontendCache exposes cache stats for experiment reports.
func (c *Client) FrontendCache() *cache.LRU { return c.fcache }

// RegisterRenderer installs the drawing function for a renderer name.
func (c *Client) RegisterRenderer(name string, fn RenderFunc) {
	c.renderers[name] = fn
}

func (c *Client) canvasRect() geom.Rect {
	return geom.Rect{MinX: 0, MinY: 0, MaxX: c.canvas.W, MaxY: c.canvas.H}
}

func (c *Client) setCanvas(id string) error {
	for i := range c.meta.Canvases {
		if c.meta.Canvases[i].ID == id {
			c.canvas = &c.meta.Canvases[i]
			c.boxes = make(map[int]*boxState)
			return nil
		}
	}
	return fmt.Errorf("frontend: no canvas %q", id)
}

// Load fetches the data for the current viewport (the initial
// application load, and the reload after a jump).
func (c *Client) Load() (FetchReport, error) {
	return c.fetchViewport(c.viewport, true)
}

// Pan moves the viewport to a new location on the same canvas and
// fetches whatever the viewport now needs ("a pan to a different
// location on the same canvas").
func (c *Client) Pan(to geom.Rect) (FetchReport, error) {
	to = to.Clamp(c.canvasRect())
	return c.fetchViewport(to, false)
}

// PanBy pans by a delta.
func (c *Client) PanBy(dx, dy float64) (FetchReport, error) {
	return c.Pan(c.viewport.Translate(dx, dy))
}

// fetchViewport is the core of the details-on-demand loop. Every
// layer's dynamic box, the static layers on load and — when BatchSize
// > 1 — the missing tiles ride one /batch round trip. Otherwise a tile
// layer first fetches its missing tiles one /batch round trip each, in
// fetch.TilesNeeded order: the paper's per-tile protocol, where "every
// tile is individually fetched and rendered".
func (c *Client) fetchViewport(vp geom.Rect, includeStatic bool) (FetchReport, error) {
	start := time.Now()
	rep := FetchReport{Canvas: c.canvas.ID, Viewport: vp}
	ictx, isp := c.opts.Tracer.Start(context.Background(), "interaction")
	isp.Attr("canvas", c.canvas.ID)
	isp.Attr("load", includeStatic)
	c.ictx = ictx
	defer func() {
		isp.Attr("requests", rep.Requests)
		isp.Attr("cacheHits", rep.CacheHits)
		if rep.FirstFrame > 0 {
			isp.Attr("ttffUS", rep.FirstFrame.Microseconds())
		}
		isp.Attr("overBudget", rep.OverBudget)
		isp.End()
		c.ictx = context.Background()
	}()
	var subs []batchSub
	for li := range c.canvas.Layers {
		lm := &c.canvas.Layers[li]
		if !lm.HasData {
			continue
		}
		if lm.Static {
			// A static data layer loads its full canvas once; §2.2:
			// static layers are not re-fetched on pan.
			if includeStatic {
				subs = append(subs, c.currentBoxSub(li, c.canvasRect()))
			}
			continue
		}
		switch c.opts.Scheme.Kind {
		case "tile":
			sz := c.opts.Scheme.TileSize
			tiles := c.tileSubs(li, sz, c.missingTiles(li, sz, vp, &rep), true)
			if c.opts.BatchSize > 1 {
				subs = append(subs, tiles...)
			} else if err := c.runBatch(tiles, 1, &rep, start); err != nil {
				return rep, err
			}
		case "dbox":
			if box, need := c.nextDBox(li, vp, &rep); need {
				subs = append(subs, c.currentBoxSub(li, box))
			}
		default:
			return rep, fmt.Errorf("frontend: unknown scheme kind %q", c.opts.Scheme.Kind)
		}
	}
	if err := c.runBatch(subs, server.MaxBatchItems, &rep, start); err != nil {
		return rep, err
	}
	c.viewport = vp
	rep.Duration = time.Since(start)
	rep.OverBudget = rep.Duration > InteractiveBudget
	c.TotalReports = append(c.TotalReports, rep)
	return rep, nil
}

func (c *Client) tileCacheKey(li int, sz float64, tid geom.TileID) string {
	return fmt.Sprintf("%s/%s", c.canvas.ID, fetch.TileKeyOf(fmt.Sprint(li), sz, tid))
}

// missingTiles scans the frontend cache for the tiles vp needs, in
// fetch.TilesNeeded order, counting hits on rep and returning the
// misses — the request-planning step of every tile fetch, batched or
// per tile.
func (c *Client) missingTiles(li int, sz float64, vp geom.Rect, rep *FetchReport) []geom.TileID {
	var missing []geom.TileID
	for _, tid := range fetch.TilesNeeded(vp, sz, c.canvas.W, c.canvas.H) {
		if c.fcache.Contains(c.tileCacheKey(li, sz, tid)) {
			rep.CacheHits++
			continue
		}
		missing = append(missing, tid)
	}
	return missing
}

// nextDBox applies the dynamic-box reuse rules for one layer: promote
// a prefetched box the viewport entered, report a cache hit while the
// current box still covers vp, and otherwise return the box to
// request.
func (c *Client) nextDBox(li int, vp geom.Rect, rep *FetchReport) (geom.Rect, bool) {
	st := c.boxes[li]
	want := fetch.BoxFor(c.opts.Scheme, vp, c.canvasRect(), c.density[li])
	if st != nil {
		// Promote a prefetched box when the viewport entered it.
		if st.prefetched != nil && st.prefetched.box.Contains(vp) {
			promoted := st.prefetched
			promoted.prefetched = nil
			c.boxes[li] = promoted
			st = promoted
		}
		if !fetch.NeedNewBox(st.box, vp) {
			// An auto-LOD layer's rows are zoom-dependent: a box fetched
			// zoomed-out holds coarse aggregate cells, so reusing it after
			// a deep zoom-in would pin that coarse detail on screen
			// forever (the zoomed-in viewport stays inside the big box).
			// Refetch once the held box is far larger than the box this
			// viewport would request; 4x area exceeds any inflate
			// scheme's natural held-to-requested ratio, so pure panning
			// never trips it.
			if !c.canvas.Layers[li].LOD || st.box.Area() < 4*want.Area() {
				rep.CacheHits++
				return geom.Rect{}, false
			}
		}
	}
	return want, true
}

// PrefetchTiles warms the frontend tile cache: one /batch round trip
// for the whole predicted viewport when BatchSize > 1, one per tile
// otherwise.
func (c *Client) PrefetchTiles(li int, sz float64, tiles []geom.TileID) error {
	var missing []geom.TileID
	for _, tid := range tiles {
		if !c.fcache.Contains(c.tileCacheKey(li, sz, tid)) {
			missing = append(missing, tid)
		}
	}
	perTrip := 1
	if c.opts.BatchSize > 1 {
		perTrip = server.MaxBatchItems
	}
	var rep FetchReport // prefetches do not count toward interaction reports
	return c.runBatch(c.tileSubs(li, sz, missing, false), perTrip, &rep, time.Now())
}

// ObjectsInViewport returns the (deduplicated) data objects of a layer
// whose bounding boxes intersect the current viewport, from frontend
// state only — exactly what the renderer draws.
func (c *Client) ObjectsInViewport(li int) ([]storage.Row, error) {
	var rows []storage.Row
	c.eachVisible(li, func(row storage.Row, _ geom.Rect) { rows = append(rows, row) })
	return rows, nil
}

// eachVisible calls fn with every held object of layer li whose
// placement box meets the viewport, once per id. Boxes are computed
// from the held columns; a row is built only for an object that is
// visible.
func (c *Client) eachVisible(li int, fn func(row storage.Row, box geom.Rect)) {
	lm := &c.canvas.Layers[li]
	if !lm.HasData {
		return
	}
	seen := make(map[int64]bool)
	// Visible rows are carved from one growing slab of cells; a row keeps
	// the array it was carved from when the slab moves.
	var cells storage.Row
	add := func(data *server.Columns) {
		for i := range data.N {
			box := lm.BoxAt(data, i)
			if !box.Intersects(c.viewport) {
				continue
			}
			id := data.Int(0, i)
			if seen[id] {
				continue // objects overlapping several tiles appear once
			}
			seen[id] = true
			cells = data.AppendRow(cells, i)
			fn(cells[len(cells)-len(data.Types):len(cells):len(cells)], box)
		}
	}
	if lm.Static || c.opts.Scheme.Kind == "dbox" {
		if st := c.boxes[li]; st != nil && st.data != nil {
			add(st.data)
		}
		return
	}
	sz := c.opts.Scheme.TileSize
	for _, tid := range fetch.TilesNeeded(c.viewport, sz, c.canvas.W, c.canvas.H) {
		if v, ok := c.fcache.Get(c.tileCacheKey(li, sz, tid)); ok {
			add(v.(*server.Columns))
		}
	}
}

// Render rasterizes the current viewport at the given pixel size,
// invoking each layer's registered renderer bottom-up.
func (c *Client) Render(pxW, pxH int) (*render.Image, error) {
	img := render.New(pxW, pxH, c.viewport)
	for li := range c.canvas.Layers {
		lm := &c.canvas.Layers[li]
		fn, ok := c.renderers[lm.Renderer]
		if !ok {
			return nil, fmt.Errorf("frontend: no renderer %q registered", lm.Renderer)
		}
		if !lm.HasData {
			fn(img, lm, nil, geom.Rect{})
			continue
		}
		c.eachVisible(li, func(row storage.Row, box geom.Rect) { fn(img, lm, row, box) })
	}
	return img, nil
}
