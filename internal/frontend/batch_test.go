package frontend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// multiLayerApp builds a single canvas with TWO data layers over the
// same points (dots and halos) — the multi-layer viewport the framed
// batch protocol serves in one round trip. edit, when given, adjusts
// the spec before it is compiled.
func multiLayerApp(t testing.TB, n int, edit ...func(*spec.App)) (*sqldb.DB, *spec.CompiledApp) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	d := workload.Uniform(n, 2048, 1024, 7)
	for _, p := range d.Points {
		if err := db.InsertRow("points", storage.Row{
			storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val),
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	reg.RegisterRenderer("halos")
	cols := []spec.ColumnSpec{
		{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
		{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
	}
	app := &spec.App{
		Name: "twolayer",
		Canvases: []spec.Canvas{{
			ID: "main", W: 2048, H: 1024,
			Transforms: []spec.Transform{
				{ID: "pts", Query: "SELECT * FROM points", Columns: cols},
			},
			Layers: []spec.Layer{
				{TransformID: "pts",
					Placement: &spec.Placement{XCol: "x", YCol: "y", Radius: 1},
					Renderer:  "dots"},
				{TransformID: "pts",
					Placement: &spec.Placement{XCol: "x", YCol: "y", Radius: 4},
					Renderer:  "halos"},
			},
		}},
		InitialCanvas: "main", InitialX: 1024, InitialY: 512,
		ViewportW: 512, ViewportH: 512,
	}
	for _, e := range edit {
		e(app)
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	return db, ca
}

// countingTransport counts round trips by URL path and keeps the
// decoded body of every /batch POST.
type countingTransport struct {
	mu      sync.Mutex
	calls   map[string]int
	batches []server.BatchRequestV2
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var batch *server.BatchRequestV2
	if req.URL.Path == "/batch" && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		batch = new(server.BatchRequestV2)
		if err := json.Unmarshal(body, batch); err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	ct.mu.Lock()
	if ct.calls == nil {
		ct.calls = make(map[string]int)
	}
	ct.calls[req.URL.Path]++
	if batch != nil {
		ct.batches = append(ct.batches, *batch)
	}
	ct.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

func (ct *countingTransport) count(path string) int {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.calls[path]
}

func (ct *countingTransport) reset() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.calls, ct.batches = nil, nil
}

// checkPerItemObjects fails unless c's visible objects of layer li are
// exactly the rows the single-request endpoints return for its
// viewport: GET /tile for every tile the viewport needs under a tile
// scheme, one GET /dbox of the whole canvas otherwise — decoded in the
// client's codec, clipped to the viewport and deduplicated the way
// ObjectsInViewport is.
func checkPerItemObjects(t *testing.T, base string, c *Client, li int) {
	t.Helper()
	vp, cv := c.Viewport(), c.Canvas()
	var urls []string
	if c.opts.Scheme.Kind == "tile" {
		sz := c.opts.Scheme.TileSize
		for _, tid := range fetch.TilesNeeded(vp, sz, cv.W, cv.H) {
			urls = append(urls, fmt.Sprintf("%s/tile?canvas=%s&layer=%d&size=%g&col=%d&row=%d&design=%s&codec=%s",
				base, url.QueryEscape(cv.ID), li, sz, tid.Col, tid.Row, c.opts.Scheme.Design, c.opts.Codec))
		}
	} else {
		urls = append(urls, fmt.Sprintf("%s/dbox?canvas=%s&layer=%d&minx=0&miny=0&maxx=%g&maxy=%g&codec=%s",
			base, url.QueryEscape(cv.ID), li, cv.W, cv.H, c.opts.Codec))
	}
	lm := &cv.Layers[li]
	want := make(map[int64]storage.Row)
	for _, u := range urls {
		data, _, err := c.getData(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range data.Response().Rows {
			if lm.RowBox(row).Intersects(vp) {
				want[row[0].AsInt()] = row
			}
		}
	}
	got, err := c.ObjectsInViewport(li)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%s layer %d: client sees %d objects, per-item GETs %d", c.opts.Scheme.Name(), li, len(got), len(want))
	}
	for _, row := range got {
		if !reflect.DeepEqual(row, want[row[0].AsInt()]) {
			t.Fatalf("%s layer %d: client row %v, per-item GETs %v", c.opts.Scheme.Name(), li, row, want[row[0].AsInt()])
		}
	}
}

// TestMultiLayerViewportOneRoundTrip: a viewport over a canvas with
// two dbox layers is served in exactly one /batch round trip, not one
// GET /dbox per layer.
func TestMultiLayerViewportOneRoundTrip(t *testing.T) {
	db, ca := multiLayerApp(t, 2500)
	srv, hs := startBackend(t, db, ca)
	ct := &countingTransport{}
	c, err := NewClient(hs.URL, ca, Options{
		Scheme:     fetch.DBox50,
		Codec:      server.CodecBinary,
		CacheBytes: 16 << 20,
		BatchSize:  8,
		HTTPClient: &http.Client{Transport: ct},
	})
	if err != nil {
		t.Fatal(err)
	}
	ct.reset()

	rep, err := c.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.count("/batch"); got != 1 {
		t.Fatalf("initial load used %d /batch round trips, want exactly 1", got)
	}
	if got := ct.count("/dbox"); got != 0 {
		t.Fatalf("initial load leaked %d /dbox round trips", got)
	}
	if rep.Requests != 1 {
		t.Fatalf("rep.Requests = %d, want 1", rep.Requests)
	}
	if rep.FirstFrame <= 0 || rep.FirstFrame > rep.Duration {
		t.Fatalf("FirstFrame = %v (duration %v)", rep.FirstFrame, rep.Duration)
	}
	if rep.WireBytes <= 0 {
		t.Fatalf("WireBytes = %d", rep.WireBytes)
	}
	for li := 0; li < 2; li++ {
		rows, err := c.ObjectsInViewport(li)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("layer %d empty after batched load", li)
		}
	}
	if got := srv.Stats.BoxRequests.Load(); got != 2 {
		t.Fatalf("server counted %d box items, want 2 (one per layer)", got)
	}

	// A pan that escapes both boxes refetches both layers — still one
	// round trip.
	ct.reset()
	if _, err := c.PanBy(700, 0); err != nil {
		t.Fatal(err)
	}
	if got := ct.count("/batch"); got != 1 {
		t.Fatalf("pan used %d /batch round trips, want 1", got)
	}

	// A pan inside the current boxes costs zero round trips.
	ct.reset()
	rep, err = c.PanBy(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.count("/batch") + ct.count("/dbox") + ct.count("/tile"); got != 0 {
		t.Fatalf("in-box pan hit the network %d times", got)
	}
	if rep.CacheHits != 2 {
		t.Fatalf("in-box pan CacheHits = %d, want 2", rep.CacheHits)
	}
}

// TestV2MatchesV1Results cross-checks the batch stream against the
// single-request endpoints: after the same load and pan, the objects a
// batching client holds — tiles, and boxes delta-reconstructed across
// the pan — are row for row what per-item GET /tile or GET /dbox
// returns, in both codecs.
func TestV2MatchesV1Results(t *testing.T) {
	db, ca := multiLayerApp(t, 2000)
	_, hs := startBackend(t, db, ca)
	for _, codec := range []server.Codec{server.CodecJSON, server.CodecBinary} {
		for _, scheme := range []fetch.Granularity{
			fetch.DBox50,
			{Kind: "tile", Design: "spatial", TileSize: 256},
		} {
			c, err := NewClient(hs.URL, ca, Options{
				Scheme: scheme, Codec: codec,
				CacheBytes: 16 << 20, BatchSize: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Load(); err != nil {
				t.Fatal(err)
			}
			rep, err := c.PanBy(400, 100)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Requests != 1 {
				t.Fatalf("%s/%s: pan used %d round trips, want one batch", scheme.Name(), codec, rep.Requests)
			}
			for li := 0; li < 2; li++ {
				checkPerItemObjects(t, hs.URL, c, li)
			}
		}
	}
}

// TestV2PerFrameErrorIsolation: one failing item must not discard its
// siblings — the good layers still land, and the error surfaces.
func TestV2PerFrameErrorIsolation(t *testing.T) {
	db, ca := multiLayerApp(t, 1500)
	_, hs := startBackend(t, db, ca)
	c, err := NewClient(hs.URL, ca, Options{
		Scheme:     fetch.DBoxExact,
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
		BatchSize:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build a batch with one good and one broken item through the
	// internal path the viewport fetch uses.
	var got []int
	subs := []batchSub{
		{item: server.BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 500, MaxY: 500},
			merge: func(fr frameResult) { got = append(got, fr.data.N) }},
		{item: server.BatchItem{Kind: "dbox", Layer: 9, MinX: 0, MinY: 0, MaxX: 500, MaxY: 500},
			merge: func(fr frameResult) { t.Error("broken item must not merge") }},
	}
	var rep FetchReport
	err = c.runBatch(subs, &rep, time.Now())
	if err == nil {
		t.Fatal("batch with a broken item should surface the error")
	}
	if len(got) != 1 || got[0] == 0 {
		t.Fatalf("good sibling did not merge: %v", got)
	}
	if rep.Requests != 1 || rep.Rows != got[0] {
		t.Fatalf("report = %+v, want one round trip carrying the good sibling's %d rows", rep, got[0])
	}
}

// TestPrefetchBoxesOneRoundTrip: warming every layer's prefetch slot
// costs one framed round trip, and the prefetched boxes serve a later
// pan without the network.
func TestPrefetchBoxesOneRoundTrip(t *testing.T) {
	db, ca := multiLayerApp(t, 2000)
	_, hs := startBackend(t, db, ca)
	ct := &countingTransport{}
	c, err := NewClient(hs.URL, ca, Options{
		Scheme:     fetch.DBoxExact,
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
		BatchSize:  8,
		HTTPClient: &http.Client{Transport: ct},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}

	// Predict the viewport one step right and warm both layers.
	next := c.Viewport().Translate(600, 0).Inflate(0.5)
	ct.reset()
	if err := c.PrefetchBoxes([]int{0, 1}, next); err != nil {
		t.Fatal(err)
	}
	if got := ct.count("/batch"); got != 1 {
		t.Fatalf("prefetching 2 layers used %d round trips, want 1", got)
	}

	// The pan into the predicted region is served from the prefetch
	// slots: zero network.
	ct.reset()
	rep, err := c.Pan(c.Viewport().Translate(600, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := ct.count("/batch") + ct.count("/dbox"); got != 0 {
		t.Fatalf("prefetched pan hit the network %d times", got)
	}
	if rep.CacheHits != 2 {
		t.Fatalf("prefetched pan CacheHits = %d, want 2", rep.CacheHits)
	}
}
