package kyrix_test

import (
	"net"
	"testing"

	"kyrix"
	"kyrix/internal/fetch"
	"kyrix/internal/sqldb"
)

// buildDemo loads a small scatter dataset and returns the app pieces —
// the same shape a downstream user of the public API writes.
func buildDemo(t testing.TB, n int) (*kyrix.DB, *kyrix.App, *kyrix.Registry) {
	t.Helper()
	db := kyrix.NewDB()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x DOUBLE, y DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// A 45x45 grid spanning the whole 2048x2048 canvas.
		err := db.InsertRow("pts", kyrix.Row{
			kyrix.Int(int64(i)),
			kyrix.Float(float64(i%45) * 45),
			kyrix.Float(float64(i/45) * 45),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reg := kyrix.NewRegistry()
	reg.RegisterRenderer("dots")
	app := &kyrix.App{
		Name: "demo",
		Canvases: []kyrix.Canvas{{
			ID: "main", W: 2048, H: 2048,
			Transforms: []kyrix.Transform{{
				ID: "t", Query: "SELECT * FROM pts",
				Columns: []kyrix.ColumnSpec{
					{Name: "id", Type: "int"},
					{Name: "x", Type: "double"},
					{Name: "y", Type: "double"},
				},
			}},
			Layers: []kyrix.Layer{{
				TransformID: "t",
				Placement:   &kyrix.Placement{XCol: "x", YCol: "y", Radius: 2},
				Renderer:    "dots",
			}},
		}},
		InitialCanvas: "main", InitialX: 1024, InitialY: 1024,
		ViewportW: 512, ViewportH: 512,
	}
	return db, app, reg
}

func TestLaunchEndToEnd(t *testing.T) {
	db, app, reg := buildDemo(t, 2000)
	inst, err := kyrix.Launch(db, app, reg, kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 4 << 20}},
		Precompute: fetch.Options{BuildSpatial: true, TileSizes: []float64{512}},
	}, kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	rep, err := inst.Client.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows == 0 {
		t.Fatal("load fetched nothing")
	}
	if !kyrix.WithinBudget(rep) {
		t.Fatalf("local load over budget: %v", rep.Duration)
	}
	rep, err = inst.Client.PanBy(600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1 {
		t.Fatalf("pan requests = %d", rep.Requests)
	}
	rows, err := inst.Client.ObjectsInViewport(0)
	if err != nil || len(rows) == 0 {
		t.Fatalf("objects: %v, %d rows", err, len(rows))
	}
	// Double close is safe.
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchCompileError(t *testing.T) {
	db, app, reg := buildDemo(t, 10)
	app.InitialCanvas = "missing"
	if _, err := kyrix.Launch(db, app, reg, kyrix.DefaultServerOptions(), kyrix.DefaultClientOptions()); err == nil {
		t.Fatal("bad spec must fail Launch")
	}
}

func TestSpecJSONThroughPublicAPI(t *testing.T) {
	_, app, reg := buildDemo(t, 1)
	data, err := app.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := kyrix.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kyrix.Compile(back, reg); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeAliases(t *testing.T) {
	if kyrix.DBoxExact.Name() != "dbox" || kyrix.TileMapping4096.Name() != "tile mapping 4096" {
		t.Fatal("scheme aliases wrong")
	}
	var _ kyrix.Granularity = kyrix.DBox50
	if kyrix.TileSpatial256.TileSize != 256 || kyrix.TileSpatial1024.TileSize != 1024 {
		t.Fatal("tile sizes wrong")
	}
}

func TestValueConstructors(t *testing.T) {
	db := kyrix.NewDB()
	if _, err := db.Exec("CREATE TABLE v (a INT, b DOUBLE, c TEXT, d BOOL)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO v VALUES (?, ?, ?, ?)",
		kyrix.Int(1), kyrix.Float(2.5), kyrix.Text("x"), kyrix.Boolean(true)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT * FROM v")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("query: %v", err)
	}
}

// Ensure exported DB alias is the internal type (compile-time check
// that downstream signatures interoperate).
var _ *sqldb.DB = (*kyrix.DB)(nil)

// TestCloseReleasesListener: Close must free the port (the listener),
// not just stop the HTTP server, and stay idempotent.
func TestCloseReleasesListener(t *testing.T) {
	db, app, reg := buildDemo(t, 100)
	inst, err := kyrix.Launch(db, app, reg, kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 1 << 20}},
		Precompute: fetch.Options{BuildSpatial: true},
	}, kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	addr := inst.BaseURL[len("http://"):]
	if err := inst.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := inst.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The port must be rebindable immediately after Close.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port still held after Close: %v", err)
	}
	ln.Close()
}

// TestBatchThroughPublicAPI drives the batched tile path end to end
// through Launch + ClientOptions.BatchSize.
func TestBatchThroughPublicAPI(t *testing.T) {
	db, app, reg := buildDemo(t, 2000)
	inst, err := kyrix.Launch(db, app, reg, kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 4 << 20}},
		Precompute: fetch.Options{BuildSpatial: true, TileSizes: []float64{512}},
	}, kyrix.ClientOptions{
		Scheme:     kyrix.TileSpatial1024,
		CacheBytes: 4 << 20,
		BatchSize:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	rep, err := inst.Client.PanBy(512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows == 0 {
		t.Fatal("batched pan fetched nothing")
	}
	if inst.Server.Stats.BatchRequests.Load() == 0 {
		t.Fatal("public-API batch client did not use /batch")
	}
}

// TestTilePrefetcherThroughPublicAPI: momentum prediction + batched
// tile warming makes the next pan free.
func TestTilePrefetcherThroughPublicAPI(t *testing.T) {
	db, app, reg := buildDemo(t, 2000)
	inst, err := kyrix.Launch(db, app, reg, kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 4 << 20}},
		Precompute: fetch.Options{BuildSpatial: true, TileSizes: []float64{512}},
	}, kyrix.ClientOptions{
		Scheme:     kyrix.TileSpatial256,
		CacheBytes: 4 << 20,
		BatchSize:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	bounds := kyrix.RectXYWH(0, 0, 2048, 2048)
	pf := kyrix.NewTilePrefetcher(kyrix.NewMomentumPredictor(2), inst.Client, []int{0}, 256, bounds)

	// Establish rightward momentum: two pans, prefetcher observing.
	vp := kyrix.RectXYWH(0, 768, 512, 512)
	if _, err := inst.Client.Pan(vp); err != nil {
		t.Fatal(err)
	}
	pf.OnPan(vp)
	vp = vp.Translate(512, 0)
	if _, err := inst.Client.Pan(vp); err != nil {
		t.Fatal(err)
	}
	pf.OnPan(vp) // predicts the next viewport and warms its tiles

	if pf.Issued == 0 || pf.Errs != 0 {
		t.Fatalf("prefetcher stats = %+v", pf)
	}
	rep, err := inst.Client.Pan(vp.Translate(512, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 0 {
		t.Fatalf("predicted pan still issued %d requests", rep.Requests)
	}
}

// TestPrecomputeOptionsConstructible pins the fix for the
// ServerOptions.Precompute internal-type leak: a downstream module
// (which cannot import kyrix/internal/...) must be able to build
// ServerOptions entirely from root-level names. This test deliberately
// avoids the internal fetch package.
func TestPrecomputeOptionsConstructible(t *testing.T) {
	db, app, reg := buildDemo(t, 1000)
	opts := kyrix.ServerOptions{
		Cache: kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 4 << 20}},
		Precompute: kyrix.PrecomputeOptions{
			BuildSpatial: true,
			TileSizes:    []float64{512},
		},
	}
	inst, err := kyrix.Launch(db, app, reg, opts, kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	rep, err := inst.Client.Load()
	if err != nil || rep.Rows == 0 {
		t.Fatalf("load over root-constructed options: %v, %d rows", err, rep.Rows)
	}
	// The default precompute options are the ones DefaultServerOptions
	// ships.
	def := kyrix.DefaultPrecomputeOptions()
	if !def.BuildSpatial || len(def.TileSizes) != 3 {
		t.Fatalf("default precompute = %+v", def)
	}
}

// TestMultiLayerOneRoundTripThroughPublicAPI: the v2 protocol headline
// through the public API — a two-data-layer canvas loads in one /batch
// round trip and the report carries the new wire metrics.
func TestMultiLayerOneRoundTripThroughPublicAPI(t *testing.T) {
	db, app, reg := buildDemo(t, 1500)
	// Add a second data layer over the same transform.
	c0 := &app.Canvases[0]
	c0.Layers = append(c0.Layers, kyrix.Layer{
		TransformID: "t",
		Placement:   &kyrix.Placement{XCol: "x", YCol: "y", Radius: 6},
		Renderer:    "dots",
	})
	inst, err := kyrix.Launch(db, app, reg, kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 4 << 20}},
		Precompute: kyrix.PrecomputeOptions{BuildSpatial: true, TileSizes: []float64{512}},
	}, kyrix.ClientOptions{
		Scheme:     kyrix.DBox50,
		CacheBytes: 4 << 20,
		BatchSize:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	rep, err := inst.Client.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1 {
		t.Fatalf("two-layer load used %d round trips, want 1", rep.Requests)
	}
	if rep.WireBytes == 0 || rep.FirstFrame == 0 {
		t.Fatalf("wire metrics missing: %+v", rep)
	}
	if inst.Server.Stats.BatchRequests.Load() != 1 || inst.Server.Stats.BoxRequests.Load() != 2 {
		t.Fatalf("server stats: batches=%d boxes=%d",
			inst.Server.Stats.BatchRequests.Load(), inst.Server.Stats.BoxRequests.Load())
	}
	for li := 0; li < 2; li++ {
		rows, err := inst.Client.ObjectsInViewport(li)
		if err != nil || len(rows) == 0 {
			t.Fatalf("layer %d: %v, %d rows", li, err, len(rows))
		}
	}
}
