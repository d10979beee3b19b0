package frontend

import (
	"image/color"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/render"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// testApp builds a two-canvas app: an overview scatter canvas and a 4x
// zoomed detail canvas over the same points, joined by a jump — enough
// to exercise pan, dbox, tiles, jumps and rendering end to end.
func testApp(t testing.TB, n int) (*sqldb.DB, *spec.CompiledApp) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	d := workload.Uniform(n, 2048, 1024, 3)
	for _, p := range d.Points {
		if err := db.InsertRow("points", storage.Row{
			storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val),
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	reg.RegisterRenderer("legend")
	reg.RegisterSelector("always", func(storage.Row, int) bool { return true })
	reg.RegisterViewport("scaleBy4", func(r storage.Row) geom.Point {
		return geom.Point{X: r[1].AsFloat() * 4, Y: r[2].AsFloat() * 4}
	})
	reg.RegisterName("detailName", func(r storage.Row) string { return "Detail view" })

	cols := []spec.ColumnSpec{
		{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
		{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
	}
	app := &spec.App{
		Name: "zoomable",
		Canvases: []spec.Canvas{
			{
				ID: "overview", W: 2048, H: 1024,
				Transforms: []spec.Transform{
					{ID: "pts", Query: "SELECT * FROM points", Columns: cols},
					{ID: "empty"},
				},
				Layers: []spec.Layer{
					{TransformID: "empty", Static: true, Renderer: "legend"},
					{TransformID: "pts",
						Placement: &spec.Placement{XCol: "x", YCol: "y", Radius: 1},
						Renderer:  "dots"},
				},
			},
			{
				ID: "detail", W: 8192, H: 4096,
				Transforms: []spec.Transform{
					{ID: "pts4", Query: "SELECT * FROM points", Columns: cols},
				},
				Layers: []spec.Layer{
					{TransformID: "pts4",
						Placement: &spec.Placement{XCol: "x", YCol: "y", XScale: 4, YScale: 4, Radius: 2},
						Renderer:  "dots"},
				},
			},
		},
		Jumps: []spec.Jump{{
			From: "overview", To: "detail", Type: spec.GeometricSemanticZoom,
			Selector: "always", NewViewport: "scaleBy4", Name: "detailName",
		}},
		InitialCanvas: "overview", InitialX: 1024, InitialY: 512,
		ViewportW: 512, ViewportH: 512,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	return db, ca
}

func startBackend(t testing.TB, db *sqldb.DB, ca *spec.CompiledApp) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(db, ca, server.Options{
		Cache: server.CacheOptions{L1: server.L1CacheOptions{Bytes: 8 << 20}},
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    []float64{256},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func newTestClient(t testing.TB, opts Options) (*Client, *server.Server) {
	db, ca := testApp(t, 3000)
	srv, hs := startBackend(t, db, ca)
	c, err := NewClient(hs.URL, ca, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func TestConnectAndLoad(t *testing.T) {
	c, _ := newTestClient(t, DefaultOptions())
	if c.Canvas().ID != "overview" {
		t.Fatalf("canvas = %s", c.Canvas().ID)
	}
	vp := c.Viewport()
	if vp.W() != 512 || vp.Center() != (geom.Point{X: 1024, Y: 512}) {
		t.Fatalf("viewport = %v", vp)
	}
	rep, err := c.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Rows == 0 {
		t.Fatalf("load report = %+v", rep)
	}
	rows, err := c.ObjectsInViewport(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no objects after load")
	}
	for _, r := range rows {
		box := geom.RectAround(geom.Point{X: r[1].AsFloat(), Y: r[2].AsFloat()}, 1)
		if !box.Intersects(vp) {
			t.Fatalf("object outside viewport: %v", r)
		}
	}
}

func TestDBoxPanProtocol(t *testing.T) {
	c, srv := newTestClient(t, Options{
		Scheme:     fetch.DBox50,
		Codec:      server.CodecJSON,
		CacheBytes: 4 << 20,
	})
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats.BoxRequests.Load()
	// Tiny pan: viewport stays inside the 50% inflated box -> no
	// request.
	rep, err := c.PanBy(20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 || rep.CacheHits == 0 {
		t.Fatalf("small pan should hit the box: %+v", rep)
	}
	if srv.Stats.BoxRequests.Load() != before {
		t.Fatal("backend saw a request for an in-box pan")
	}
	// Large pan: escapes the box -> exactly one new box request for
	// the data layer.
	rep, err = c.PanBy(600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1 {
		t.Fatalf("large pan requests = %d", rep.Requests)
	}
}

func TestTilePanUsesFrontendCache(t *testing.T) {
	c, srv := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
	})
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	firstReqs := srv.Stats.TileRequests.Load()
	if firstReqs == 0 {
		t.Fatal("load issued no tile requests")
	}
	// Pan by one tile: only the new column of tiles is requested.
	rep, err := c.PanBy(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits == 0 {
		t.Fatal("pan should reuse cached tiles")
	}
	if rep.Requests == 0 || rep.Requests >= int(firstReqs) {
		t.Fatalf("pan requests = %d (load %d)", rep.Requests, firstReqs)
	}
	// Pan back: everything cached, zero requests.
	rep, err = c.PanBy(-256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 {
		t.Fatalf("pan-back requests = %d", rep.Requests)
	}
}

func TestMappingDesignEndToEnd(t *testing.T) {
	c, _ := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "mapping", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
	})
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	rows, err := c.ObjectsInViewport(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("mapping design returned nothing")
	}
}

func TestBinaryCodecEndToEnd(t *testing.T) {
	c, _ := newTestClient(t, Options{
		Scheme:     fetch.DBoxExact,
		Codec:      server.CodecBinary,
		CacheBytes: 4 << 20,
	})
	rep, err := c.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows == 0 {
		t.Fatal("binary load empty")
	}
}

func TestObjectsDeduplicated(t *testing.T) {
	// With tiles, an object whose bbox straddles a tile boundary is
	// returned by both tiles; the frontend must deduplicate.
	c, _ := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
	})
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	rows, err := c.ObjectsInViewport(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		id := r[0].AsInt()
		if seen[id] {
			t.Fatalf("duplicate object %d", id)
		}
		seen[id] = true
	}
}

func TestJump(t *testing.T) {
	c, _ := newTestClient(t, DefaultOptions())
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	rows, err := c.ObjectsInViewport(1)
	if err != nil || len(rows) == 0 {
		t.Fatalf("objects: %v %d", err, len(rows))
	}
	clicked := rows[0]
	choices, err := c.JumpsFor(clicked, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Label != "Detail view" || choices[0].To != "detail" {
		t.Fatalf("choices = %+v", choices)
	}
	rep, err := c.Jump(choices[0].Index, clicked)
	if err != nil {
		t.Fatal(err)
	}
	if c.Canvas().ID != "detail" {
		t.Fatalf("canvas after jump = %s", c.Canvas().ID)
	}
	// New viewport centered at 4x the clicked point (modulo clamping).
	want := geom.Point{X: clicked[1].AsFloat() * 4, Y: clicked[2].AsFloat() * 4}
	center := c.Viewport().Center()
	if center.Dist(want) > 512 {
		t.Fatalf("jump center = %v want near %v", center, want)
	}
	if rep.Rows == 0 {
		t.Fatal("jump load fetched nothing")
	}
	// The clicked object appears on the detail canvas.
	found := false
	detailRows, _ := c.ObjectsInViewport(0)
	for _, r := range detailRows {
		if r[0].AsInt() == clicked[0].AsInt() {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("clicked object missing from detail view")
	}
}

func TestJumpErrors(t *testing.T) {
	c, _ := newTestClient(t, DefaultOptions())
	if _, err := c.Jump(99, nil); err == nil {
		t.Fatal("bad jump index must fail")
	}
	// Jump from the wrong canvas.
	if _, err := c.Jump(0, nil); err != nil {
		t.Fatal(err) // valid: from overview
	}
	if _, err := c.Jump(0, nil); err == nil {
		t.Fatal("jump from detail (wrong from-canvas) must fail")
	}
	// Client without a compiled app cannot jump.
	db, ca := testApp(t, 50)
	_, hs := startBackend(t, db, ca)
	c2, err := NewClient(hs.URL, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Jump(0, nil); err == nil {
		t.Fatal("nil compiled app must fail to jump")
	}
	if _, err := c2.JumpsFor(nil, 0); err == nil {
		t.Fatal("nil compiled app must fail JumpsFor")
	}
}

func TestRender(t *testing.T) {
	c, _ := newTestClient(t, DefaultOptions())
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	red := color.RGBA{255, 0, 0, 255}
	c.RegisterRenderer("dots", func(img *render.Image, meta *server.LayerMeta, row storage.Row, box geom.Rect) {
		img.Dot(box.Center(), 2, red)
	})
	legendDrawn := false
	c.RegisterRenderer("legend", func(img *render.Image, meta *server.LayerMeta, row storage.Row, box geom.Rect) {
		legendDrawn = true
		if row != nil {
			t.Error("legend renderer should get nil row")
		}
	})
	img, err := c.Render(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !legendDrawn {
		t.Fatal("legend renderer not invoked")
	}
	// At least one dot landed.
	w, h := img.Size()
	found := false
	for y := 0; y < h && !found; y++ {
		for x := 0; x < w; x++ {
			if img.RGBA().RGBAAt(x, y) == red {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no dots rendered")
	}
	// Missing renderer errors.
	c2, _ := newTestClient(t, DefaultOptions())
	if _, err := c2.Render(64, 64); err == nil {
		t.Fatal("unregistered renderer must fail")
	}
}

func TestPrefetchBoxPromotion(t *testing.T) {
	c, srv := newTestClient(t, Options{
		Scheme:     fetch.DBoxExact,
		Codec:      server.CodecJSON,
		CacheBytes: 4 << 20,
	})
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	// Prefetch the box exactly where the next pan will land.
	next := c.Viewport().Translate(600, 0)
	if err := c.PrefetchBoxes([]int{1}, next); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats.BoxRequests.Load()
	rep, err := c.Pan(next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 {
		t.Fatalf("prefetched pan still issued %d requests", rep.Requests)
	}
	if srv.Stats.BoxRequests.Load() != before {
		t.Fatal("backend saw an extra request")
	}
	rows, _ := c.ObjectsInViewport(1)
	if len(rows) == 0 {
		t.Fatal("prefetched data not visible")
	}
}

func TestPrefetchTiles(t *testing.T) {
	c, _ := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
	})
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	next := c.Viewport().Translate(512, 0)
	tiles := fetch.TilesNeeded(next, 256, c.Canvas().W, c.Canvas().H)
	if err := c.PrefetchTiles(1, 256, tiles); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Pan(next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 {
		t.Fatalf("prefetched tile pan issued %d requests", rep.Requests)
	}
}

func TestReportsAccumulate(t *testing.T) {
	c, _ := newTestClient(t, DefaultOptions())
	_, _ = c.Load()
	_, _ = c.PanBy(600, 0)
	_, _ = c.PanBy(600, 0)
	if len(c.TotalReports) != 3 {
		t.Fatalf("reports = %d", len(c.TotalReports))
	}
	if c.TotalReports[0].OverBudget {
		t.Fatal("local load should be well under 500ms")
	}
}

func TestConnectErrors(t *testing.T) {
	if _, err := NewClient("http://127.0.0.1:1", nil, DefaultOptions()); err == nil {
		t.Fatal("unreachable backend must fail")
	}
}

func TestTileBatchFetch(t *testing.T) {
	mkOpts := func(batch int) Options {
		return Options{
			Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
			Codec:      server.CodecJSON,
			CacheBytes: 16 << 20,
			BatchSize:  batch,
		}
	}
	// Reference client: one /batch round trip per tile.
	ref, _ := newTestClient(t, mkOpts(0))
	if _, err := ref.Load(); err != nil {
		t.Fatal(err)
	}
	refRows, err := ref.ObjectsInViewport(1)
	if err != nil {
		t.Fatal(err)
	}

	// Batched client: same viewport, tiles sharing /batch round trips.
	c, srv := newTestClient(t, mkOpts(4))
	rep, err := c.Load()
	if err != nil {
		t.Fatal(err)
	}
	if srv.Stats.BatchRequests.Load() == 0 {
		t.Fatal("batched client issued no /batch requests")
	}
	if rep.Rows == 0 || rep.Bytes == 0 {
		t.Fatalf("batched load report = %+v", rep)
	}
	rows, err := c.ObjectsInViewport(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(refRows) {
		t.Fatalf("batched client sees %d objects, per-tile client %d", len(rows), len(refRows))
	}
	// A 512x512 viewport over 256-tiles needs >= 4 tiles; with batch
	// size 4 the whole load should take far fewer round trips.
	if rep.Requests >= ref.TotalReports[0].Requests {
		t.Fatalf("batched load used %d round trips, per-tile used %d",
			rep.Requests, ref.TotalReports[0].Requests)
	}

	// Pan with everything missing again batches, pan-back is cached.
	rep, err = c.PanBy(512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("pan into new tiles should fetch")
	}
	rep, err = c.PanBy(-512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 {
		t.Fatalf("pan-back requests = %d", rep.Requests)
	}
}

func TestPrefetchTilesBatched(t *testing.T) {
	c, srv := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
		BatchSize:  8,
	})
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	batchesBefore := srv.Stats.BatchRequests.Load()
	next := c.Viewport().Translate(512, 0)
	tiles := fetch.TilesNeeded(next, 256, c.Canvas().W, c.Canvas().H)
	if err := c.PrefetchTiles(1, 256, tiles); err != nil {
		t.Fatal(err)
	}
	if srv.Stats.BatchRequests.Load() == batchesBefore {
		t.Fatal("prefetch should go through /batch")
	}
	rep, err := c.Pan(next)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 {
		t.Fatalf("prefetched tile pan issued %d requests", rep.Requests)
	}
	// Prefetching the same tiles again is a no-op (all cached).
	if err := c.PrefetchTiles(1, 256, tiles); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats.BatchRequests.Load(); got != batchesBefore+1 {
		t.Fatalf("cached prefetch issued more batches: %d", got)
	}
}

func TestBatchSizeClampedToServerLimit(t *testing.T) {
	// A viewport needing more tile items than the server's
	// MaxBatchItems — under a BatchSize above that limit — is split
	// client-side into MaxBatchItems-sized /batch chunks, not rejected
	// with 400 by the server.
	c, srv := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 16},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
		BatchSize:  server.MaxBatchItems + 100,
	})
	rep, err := c.Load()
	if err != nil {
		t.Fatalf("oversized viewport must be chunked, got: %v", err)
	}
	n := len(fetch.TilesNeeded(c.Viewport(), 16, c.Canvas().W, c.Canvas().H))
	want := (n + server.MaxBatchItems - 1) / server.MaxBatchItems
	if want < 2 {
		t.Fatalf("workload too small to chunk: %d tiles", n)
	}
	if rep.Requests != want || srv.Stats.BatchRequests.Load() != int64(want) {
		t.Fatalf("%d tiles took %d round trips (server saw %d batches), want %d",
			n, rep.Requests, srv.Stats.BatchRequests.Load(), want)
	}
	rows, err := c.ObjectsInViewport(1)
	if err != nil || len(rows) == 0 {
		t.Fatalf("chunked batch load broken: %d rows, %v", len(rows), err)
	}
}

func TestBatchChunksRunConcurrently(t *testing.T) {
	// A viewport past MaxBatchItems tile items produces several /batch
	// chunks; they must all land, matching a per-tile reference client.
	c, srv := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 16},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
		BatchSize:  8,
	})
	rep, err := c.Load()
	if err != nil {
		t.Fatal(err)
	}
	if srv.Stats.BatchRequests.Load() < 2 {
		t.Fatalf("expected multiple chunked batches, got %d", srv.Stats.BatchRequests.Load())
	}
	if rep.Rows == 0 {
		t.Fatal("chunked batches fetched nothing")
	}
	ref, _ := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
	})
	if _, err := ref.Load(); err != nil {
		t.Fatal(err)
	}
	refRows, _ := ref.ObjectsInViewport(1)
	rows, _ := c.ObjectsInViewport(1)
	if len(rows) != len(refRows) {
		t.Fatalf("chunked client sees %d objects, reference %d", len(rows), len(refRows))
	}
}

// TestStaticLayerAndPrefetchBoxRideBatch: a per-tile client (BatchSize
// 0) issues no GET: each missing tile is a /batch round trip carrying
// that one tile item, in fetch.TilesNeeded order. A static data layer
// and a one-layer box prefetch each ride one /batch round trip of one
// dbox item, and both declare the box already held as their delta base.
func TestStaticLayerAndPrefetchBoxRideBatch(t *testing.T) {
	db, ca := multiLayerApp(t, 2000, func(a *spec.App) { a.Canvases[0].Layers[1].Static = true })
	srv, hs := startBackend(t, db, ca)
	ct := &countingTransport{}
	c, err := NewClient(hs.URL, ca, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
		HTTPClient: &http.Client{Transport: ct},
	})
	if err != nil {
		t.Fatal(err)
	}
	oneBatch := func(what string, layer int) server.BatchItem {
		t.Helper()
		if got := ct.count("/batch"); got != 1 || ct.count("/dbox") != 0 {
			t.Fatalf("%s: %d /batch and %d /dbox round trips, want one batch", what, got, ct.count("/dbox"))
		}
		if items := ct.batches[0].Items; len(items) != 1 || items[0].Kind != "dbox" || items[0].Layer != layer {
			t.Fatalf("%s: batch items = %+v, want one dbox for layer %d", what, items, layer)
		}
		return ct.batches[0].Items[0]
	}

	// Load: layer 0's tiles go one round trip each, then the static
	// layer rides one more; there is no held box to declare yet.
	ct.reset()
	rep, err := c.Load()
	if err != nil {
		t.Fatal(err)
	}
	tiles := fetch.TilesNeeded(c.Viewport(), 256, c.Canvas().W, c.Canvas().H)
	if got := ct.count("/tile") + ct.count("/dbox"); got != 0 {
		t.Fatalf("per-tile load issued %d GETs, want none", got)
	}
	if got := ct.count("/batch"); got != len(tiles)+1 || rep.Requests != got {
		t.Fatalf("per-tile load: %d /batch round trips (report %d), want one per tile plus one: %d",
			got, rep.Requests, len(tiles)+1)
	}
	for i, tid := range tiles {
		if items := ct.batches[i].Items; len(items) != 1 || items[0].Kind != "tile" ||
			items[0].Layer != 0 || items[0].Col != tid.Col || items[0].Row != tid.Row {
			t.Fatalf("round trip %d carries %+v, want tile %+v of layer 0 alone", i, items, tid)
		}
	}
	if items := ct.batches[len(tiles)].Items; len(items) != 1 || items[0].Kind != "dbox" ||
		items[0].Layer != 1 || items[0].Base != nil {
		t.Fatalf("last round trip carries %+v, want the static layer's dbox alone, declaring no base", items)
	}
	// Reloading declares the held canvas box, and the server proves it:
	// an unchanged box ships as a delta.
	ct.reset()
	deltas := srv.Stats.DeltaFrames.Load()
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	if it := oneBatch("reload", 1); it.Base == nil {
		t.Fatal("reload did not declare the held static box")
	}
	if srv.Stats.DeltaFrames.Load() != deltas+1 {
		t.Fatal("reload of the static layer did not ship as a delta")
	}
	if rows, _ := c.ObjectsInViewport(1); len(rows) == 0 {
		t.Fatal("static layer empty after reload")
	}

	// A one-layer PrefetchBoxes: one batch, the layer's held box
	// declared as base (a dbox client's dynamic layer 0).
	d, err := NewClient(hs.URL, ca, Options{
		Scheme: fetch.DBoxExact, Codec: server.CodecJSON, CacheBytes: 16 << 20,
		HTTPClient: &http.Client{Transport: ct},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(); err != nil {
		t.Fatal(err)
	}
	ct.reset()
	if err := d.PrefetchBoxes([]int{0}, d.Viewport().Translate(100, 0)); err != nil {
		t.Fatal(err)
	}
	if it := oneBatch("PrefetchBoxes", 0); it.Base == nil {
		t.Fatal("PrefetchBoxes did not declare the held box")
	}
}

// TestInteractionTrace checks the client-side trace pillar: a Load with
// Options.Tracer set records one "interaction" root in the client's
// recorder, and the trace header stamped on the /batch POST makes the
// server's http.batch span a child of the same trace.
func TestInteractionTrace(t *testing.T) {
	rec := obs.NewRecorder(8)
	opts := DefaultOptions()
	opts.Tracer = obs.NewTracer(rec)
	c, srv := newTestClient(t, opts)
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap.Recent) == 0 {
		t.Fatal("client recorder is empty after Load")
	}
	root := snap.Recent[len(snap.Recent)-1]
	if root.Name != "interaction" || root.TraceID == "" {
		t.Fatalf("client root = %+v", root)
	}
	var attrs []string
	for _, a := range root.Attrs {
		attrs = append(attrs, a.Key)
	}
	for _, want := range []string{"canvas", "load", "requests", "ttffUS"} {
		if !slices.Contains(attrs, want) {
			t.Fatalf("interaction span missing attr %q (have %v)", want, attrs)
		}
	}
	// The server's http.batch root must carry the client's trace ID and
	// parent under the interaction span.
	var batch *obs.SpanData
	ssnap := srv.FlightRecorder().Snapshot()
	for _, d := range ssnap.Recent {
		if d.Name == "http.batch" && d.TraceID == root.TraceID {
			batch = d
		}
	}
	if batch == nil {
		t.Fatalf("no server http.batch span under client trace %s", root.TraceID)
	}
	if batch.Parent != root.SpanID {
		t.Fatalf("server batch parent = %s, want client span %s", batch.Parent, root.SpanID)
	}
}
