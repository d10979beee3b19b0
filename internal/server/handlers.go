package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"kyrix/internal/cluster"
	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/storage"
)

// LayerMeta is what the frontend needs to know about one layer:
// schema, placement parameters for client-side bbox computation, and
// which renderer to run.
type LayerMeta struct {
	CanvasID string `json:"canvas"`
	Index    int    `json:"index"`
	Static   bool   `json:"static"`
	Renderer string `json:"renderer"`
	// Table is the physical table serving this layer (the base table
	// for separable layers, the materialized layer table otherwise);
	// §4-style updates that should be visible in the view target it.
	Table     string    `json:"table"`
	Cols      []string  `json:"cols"`
	Types     ColTypes  `json:"types"`
	Separable bool      `json:"separable"`
	XIdx      int       `json:"xIdx"`
	YIdx      int       `json:"yIdx"`
	XScale    float64   `json:"xScale"`
	YScale    float64   `json:"yScale"`
	Radius    float64   `json:"radius"`
	BBoxIdx   [4]int    `json:"bboxIdx"`
	TileSizes []float64 `json:"tileSizes"`
	HasData   bool      `json:"hasData"`
	// LOD reports that the layer serves an aggregation pyramid: zoomed-
	// out windows return per-cell aggregate rows (base schema + appended
	// lod_* columns), so cached boxes must be refetched when the zoom
	// level changes; LODLevels is the pyramid height.
	LOD       bool `json:"lod,omitempty"`
	LODLevels int  `json:"lodLevels,omitempty"`
}

// RowBox computes the canvas bbox of a fetched row client-side.
func (lm *LayerMeta) RowBox(row storage.Row) geom.Rect {
	return lm.box(func(col int) float64 { return row[col].AsFloat() })
}

// BoxAt is RowBox for row i of a column-held payload, read without
// building the row.
func (lm *LayerMeta) BoxAt(c *Columns, i int) geom.Rect {
	return lm.box(func(col int) float64 { return c.Float(col, i) })
}

// box places a row whose numeric cells at reads.
func (lm *LayerMeta) box(at func(col int) float64) geom.Rect {
	if lm.Separable {
		p := geom.Point{X: at(lm.XIdx) * lm.XScale, Y: at(lm.YIdx) * lm.YScale}
		return geom.RectAround(p, lm.Radius)
	}
	return geom.Rect{
		MinX: at(lm.BBoxIdx[0]),
		MinY: at(lm.BBoxIdx[1]),
		MaxX: at(lm.BBoxIdx[2]),
		MaxY: at(lm.BBoxIdx[3]),
	}
}

// CanvasMeta describes one canvas to the frontend.
type CanvasMeta struct {
	ID     string      `json:"id"`
	W      float64     `json:"w"`
	H      float64     `json:"h"`
	Layers []LayerMeta `json:"layers"`
}

// AppMeta is the full /app response.
type AppMeta struct {
	Name          string       `json:"name"`
	Canvases      []CanvasMeta `json:"canvases"`
	Jumps         []spec.Jump  `json:"jumps"`
	InitialCanvas string       `json:"initialCanvas"`
	InitialX      float64      `json:"initialX"`
	InitialY      float64      `json:"initialY"`
	ViewportW     float64      `json:"viewportW"`
	ViewportH     float64      `json:"viewportH"`
}

// Meta builds the app metadata from the compiled spec + physical
// layers.
func (s *Server) Meta() *AppMeta {
	app := s.ca.Spec
	meta := &AppMeta{
		Name:          app.Name,
		Jumps:         app.Jumps,
		InitialCanvas: app.InitialCanvas,
		InitialX:      app.InitialX,
		InitialY:      app.InitialY,
		ViewportW:     app.ViewportW,
		ViewportH:     app.ViewportH,
	}
	for _, c := range app.Canvases {
		cm := CanvasMeta{ID: c.ID, W: c.W, H: c.H}
		for li, l := range c.Layers {
			pl := s.layers[layerKey(c.ID, li)]
			lm := LayerMeta{
				CanvasID: c.ID,
				Index:    li,
				Static:   l.Static,
				Renderer: l.Renderer,
			}
			if pl != nil && pl.Table != "" {
				lm.HasData = true
				lm.Table = pl.Table
				lm.Separable = pl.Separable
				lm.Radius = pl.Radius
				lm.XScale, lm.YScale = pl.XScale, pl.YScale
				for _, col := range pl.Schema {
					lm.Cols = append(lm.Cols, col.Name)
					lm.Types = append(lm.Types, col.Type)
				}
				if pl.Separable {
					lm.XIdx = pl.Schema.ColIndex(pl.XCol)
					lm.YIdx = pl.Schema.ColIndex(pl.YCol)
				} else {
					for i, b := range pl.BBoxCols {
						lm.BBoxIdx[i] = pl.Schema.ColIndex(b)
					}
				}
				for sz := range pl.TileMaps {
					lm.TileSizes = append(lm.TileSizes, sz)
				}
				if pl.LOD != nil {
					lm.LOD = true
					lm.LODLevels = len(pl.LOD.Levels)
				}
			}
			cm.Layers = append(cm.Layers, lm)
		}
		meta.Canvases = append(meta.Canvases, cm)
	}
	return meta
}

// Handler returns the backend's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/app", s.handleApp)
	mux.HandleFunc("/tile", s.handleTile)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/dbox", s.handleDBox)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc(cluster.PeerPath, s.handlePeer)
	if s.replog != nil {
		mux.Handle("/replog/", s.traceMiddleware("replog.rpc", s.replog.Handler()))
	}
	s.mountDebug(mux)
	return mux
}

func (s *Server) handleApp(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.Meta()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// checkCodec defaults an empty codec to JSON and refuses any name but
// json and binary — "bincol", the cache key space, included — before
// any cache lookup, so an unknown name costs neither tier a probe.
func checkCodec(c Codec) (Codec, error) {
	switch c {
	case "":
		return CodecJSON, nil
	case CodecJSON, CodecBinary:
		return c, nil
	}
	return "", fmt.Errorf("unknown codec %q", c)
}

// handleTile answers GET /tile: one static tile under either database
// design, served as a batch item.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	s.Stats.TileRequests.Add(1)
	q := r.URL.Query()
	it := BatchItem{Kind: "tile", Design: q.Get("design")}
	err := errors.Join(
		queryInt(q, "layer", &it.Layer), queryFloat(q, "size", &it.Size),
		queryInt(q, "col", &it.Col), queryInt(q, "row", &it.Row))
	s.serveGet(w, r, it, err)
}

// handleDBox answers GET /dbox: one dynamic box (always the spatial
// design, §3.1), served as a batch item.
func (s *Server) handleDBox(w http.ResponseWriter, r *http.Request) {
	s.Stats.BoxRequests.Add(1)
	q := r.URL.Query()
	it := BatchItem{Kind: "dbox"}
	err := errors.Join(
		queryInt(q, "layer", &it.Layer),
		queryFloat(q, "minx", &it.MinX), queryFloat(q, "miny", &it.MinY),
		queryFloat(q, "maxx", &it.MaxX), queryFloat(q, "maxy", &it.MaxY))
	s.serveGet(w, r, it, err)
}

// queryInt and queryFloat parse one query parameter into dst; its value
// is checked by serveItem, as a /batch item's is.
func queryInt(q url.Values, name string, dst *int) (err error) {
	if *dst, err = strconv.Atoi(q.Get(name)); err != nil {
		return fmt.Errorf("bad %s %q", name, q.Get(name))
	}
	return nil
}

func queryFloat(q url.Values, name string, dst *float64) (err error) {
	if *dst, err = strconv.ParseFloat(q.Get(name), 64); err != nil {
		return fmt.Errorf("bad %s %q", name, q.Get(name))
	}
	return nil
}

// serveGet serves a parsed GET item through serveItem, which checks it
// as it checks a /batch item, and writes the payload in the request's
// codec: the binary payload itself or its JSON document.
func (s *Server) serveGet(w http.ResponseWriter, r *http.Request, it BatchItem, parseErr error) {
	q := r.URL.Query()
	codec, err := checkCodec(Codec(q.Get("codec")))
	if err = errors.Join(parseErr, err); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	canvas := q.Get("canvas")
	ctx, sp := s.startRequestSpan(r, "http."+it.Kind)
	sp.Attr("canvas", canvas)
	start := time.Now()
	p, err := s.serveItem(ctx, canvas, it, false)
	var body []byte
	if err == nil {
		body, err = s.document(ctx, p, codec)
	}
	s.obs.stageItem.Observe(time.Since(start))
	sp.End()
	if err != nil {
		http.Error(w, err.Error(), httpStatusOf(err))
		return
	}
	if codec == CodecBinary {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	s.Stats.BytesServed.Add(int64(len(body)))
	_, _ = w.Write(body)
}
