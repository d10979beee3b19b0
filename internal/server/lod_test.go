package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// newLODServer is newPointsServer with the layer declared "lod": "auto"
// and a small row budget so zoomed-out windows must route to the
// pyramid.
func newLODServer(t testing.TB, n int) (*Server, *httptest.Server) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	d := workload.Uniform(n, 8192, 4096, 11)
	for _, p := range d.Points {
		if err := db.InsertRow("points", storage.Row{
			storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val),
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	app := &spec.App{
		Name: "pts",
		Canvases: []spec.Canvas{{
			ID: "main", W: 8192, H: 4096,
			Transforms: []spec.Transform{{
				ID: "t", Query: "SELECT * FROM points",
				Columns: []spec.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "t",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", Radius: 1},
				Renderer:    "dots",
				LOD:         "auto",
			}},
		}},
		InitialCanvas: "main", InitialX: 4096, InitialY: 2048,
		ViewportW: 512, ViewportH: 512,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, ca, Options{
		Cache: CacheOptions{L1: L1CacheOptions{Bytes: 8 << 20}},
		Precompute: fetch.Options{
			LODRowBudget: 64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func getBox(t *testing.T, hs *httptest.Server, minx, miny, maxx, maxy float64) *DataResponse {
	t.Helper()
	url := fmt.Sprintf("%s/dbox?canvas=main&layer=0&minx=%g&miny=%g&maxx=%g&maxy=%g&codec=binary",
		hs.URL, minx, miny, maxx, maxy)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("dbox: %s: %s", resp.Status, body)
	}
	dr, err := Decode(body, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	return dr
}

func TestServeBoxRoutesToLOD(t *testing.T) {
	const n = 5000
	srv, hs := newLODServer(t, n)

	// A small window is under the row budget at this density: raw rows,
	// no aggregate columns.
	small := getBox(t, hs, 1000, 1000, 1256, 1256)
	if srv.Stats.LODQueries.Load() != 0 {
		t.Fatal("small window should not touch the pyramid")
	}
	for _, c := range small.Cols {
		if c == "lod_count" {
			t.Fatalf("raw response carries aggregate columns: %v", small.Cols)
		}
	}

	// The full canvas would cover all n raw rows; with the pyramid it
	// must return at most RowBudget aggregate rows.
	full := getBox(t, hs, 0, 0, 8192, 4096)
	if srv.Stats.LODQueries.Load() == 0 {
		t.Fatal("full-canvas window did not route to the pyramid")
	}
	if len(full.Rows) == 0 || len(full.Rows) > 64 {
		t.Fatalf("full-canvas response has %d rows, want 1..64 (the budget); raw would be ~%d", len(full.Rows), n)
	}
	countIdx := -1
	for i, c := range full.Cols {
		if c == "lod_count" {
			countIdx = i
		}
	}
	if countIdx < 0 {
		t.Fatalf("pyramid response missing lod_count: %v", full.Cols)
	}
	// The aggregate rows still cover every base row.
	var total int64
	for _, r := range full.Rows {
		total += r[countIdx].AsInt()
	}
	if total != n {
		t.Fatalf("aggregate counts sum to %d, want %d", total, n)
	}
	// Base-schema prefix intact: id/x/y decode exactly like raw rows.
	for _, r := range full.Rows {
		x, y := r[1].AsFloat(), r[2].AsFloat()
		if x < 0 || x > 8192 || y < 0 || y > 4096 {
			t.Fatalf("representative row off canvas: %v", r)
		}
	}
}

func TestSpatialTileRoutesToLOD(t *testing.T) {
	srv, hs := newLODServer(t, 5000)
	// A huge virtual tile (size = whole canvas) is a zoomed-out window.
	resp, err := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=8192&col=0&row=0&design=spatial")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("tile: %s: %s", resp.Status, body)
	}
	dr, err := Decode(body, CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Stats.LODQueries.Load() == 0 {
		t.Fatal("zoomed-out spatial tile did not route to the pyramid")
	}
	if len(dr.Rows) == 0 || len(dr.Rows) > 64 {
		t.Fatalf("tile rows = %d, want 1..64", len(dr.Rows))
	}
}

// TestLODQueriesCountCoalescedOnce: LODQueries counts pyramid queries
// run, not windows routed. N concurrent identical misses on a zoomed-out
// box join one flight while the query hook holds it open; one query
// runs, so LODQueries and DBQueries each rise by one.
func TestLODQueriesCountCoalescedOnce(t *testing.T) {
	srv, hs := newLODServer(t, 5000)
	const n = 8
	release := make(chan struct{})
	srv.queryHook = func() { <-release }
	pl, _ := srv.Layer("main", 0)
	box := geom.Rect{MinX: 0, MinY: 0, MaxX: 8192, MaxY: 4096}
	if pl.LODLevelFor(box) < 0 {
		t.Fatal("full-canvas box does not route to the pyramid")
	}
	key := flightKey(0, boxCacheKey(pl, box))
	lodBefore, dbBefore := srv.Stats.LODQueries.Load(), srv.Stats.DBQueries.Load()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(hs.URL + "/dbox?canvas=main&layer=0&minx=0&miny=0&maxx=8192&maxy=4096")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("%s: %s", resp.Status, body)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.flight.Pending(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined the flight on %q", srv.flight.Pending(key), n, key)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := srv.Stats.DBQueries.Load() - dbBefore; got != 1 {
		t.Fatalf("DBQueries rose by %d for %d coalesced misses, want 1", got, n)
	}
	if got := srv.Stats.LODQueries.Load() - lodBefore; got != 1 {
		t.Fatalf("LODQueries rose by %d for %d coalesced misses, want 1", got, n)
	}
}

func TestLODLayerMeta(t *testing.T) {
	_, hs := newLODServer(t, 2000)
	var meta AppMeta
	getJSON(t, hs.URL+"/app", &meta)
	lm := meta.Canvases[0].Layers[0]
	if !lm.LOD {
		t.Fatalf("layer meta does not advertise LOD: %+v", lm)
	}
	if lm.LODLevels <= 0 {
		t.Fatalf("LODLevels = %d, want > 0", lm.LODLevels)
	}
}
