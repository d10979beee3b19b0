package server

import (
	"bytes"
	"encoding/json"
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
	"kyrix/internal/wire"
	"kyrix/internal/workload"
)

// TestCoalescingOneQuery asserts the singleflight contract end to end:
// N identical concurrent tile requests run exactly one database query
// and all receive the same payload. The query hook holds the single
// execution open until every caller has joined the flight, making the
// assertion deterministic rather than timing-dependent.
func TestCoalescingOneQuery(t *testing.T) {
	srv, hs := newPointsServer(t, 500, 4096, 2048)
	const n = 12
	release := make(chan struct{})
	srv.queryHook = func() { <-release }

	selectsBefore := srv.DB().Stats().Selects
	// Flight keys are scoped to the backend-cache generation (0 on a
	// fresh server); see flightKey.
	key := flightKey(0, fmt.Sprintf("%s/%s/%s", keySpace, "spatial", fetch.TileKeyOf("main/0", 512, geom.TileID{Col: 1, Row: 1})))

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=1&row=1")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("%s: %s", resp.Status, body)
				return
			}
			bodies[i] = body
		}(i)
	}

	deadline := time.Now().Add(10 * time.Second)
	for srv.flight.Pending(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests coalesced onto %q", srv.flight.Pending(key), n, key)
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
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d got a different payload", i)
		}
	}
	if got := srv.DB().Stats().Selects - selectsBefore; got != 1 {
		t.Fatalf("database ran %d SELECTs for %d identical requests, want 1", got, n)
	}
	if got := srv.Stats.DBQueries.Load(); got != 1 {
		t.Fatalf("DBQueries = %d, want 1", got)
	}
	if got := srv.Stats.CoalescedHits.Load(); got != n-1 {
		t.Fatalf("CoalescedHits = %d, want %d", got, n-1)
	}
}

// TestHandlerRaceStress hammers the full HTTP surface from many
// goroutines; run with -race it is the concurrency smoke test for the
// serving pipeline (sharded cache, coalescing, batch fan-out).
func TestHandlerRaceStress(t *testing.T) {
	srv, hs := newPointsServer(t, 1000, 4096, 2048)
	client := hs.Client()

	get := func(u string) error {
		resp, err := client.Get(hs.URL + u)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", u, resp.Status)
		}
		return nil
	}
	post := func(u string, body []byte) error {
		resp, err := client.Post(hs.URL+u, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: %s", u, resp.Status)
		}
		return nil
	}

	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var err error
				switch (g + i) % 5 {
				case 0:
					err = get(fmt.Sprintf("/tile?canvas=main&layer=0&size=512&col=%d&row=%d", i%8, g%4))
				case 1:
					err = get(fmt.Sprintf("/dbox?canvas=main&layer=0&minx=%d&miny=%d&maxx=%d&maxy=%d",
						(i%4)*512, (g%2)*512, (i%4)*512+512, (g%2)*512+512))
				case 2:
					body, _ := json.Marshal(BatchRequestV2{V: wire.V3, Canvas: "main", Items: []BatchItem{
						{Kind: "tile", Size: 512, Col: i % 8, Row: 0},
						{Kind: "tile", Size: 512, Col: i % 8, Row: 1},
						{Kind: "tile", Size: 512, Col: (i + 1) % 8, Row: g % 4},
					}})
					err = post("/batch", body)
				case 3:
					err = get("/stats")
				case 4:
					err = get("/app")
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if srv.Stats.TileRequests.Load() == 0 || srv.Stats.BatchRequests.Load() == 0 {
		t.Fatal("stress test did not exercise tile/batch paths")
	}
}

// multiLayerApp builds an app with several canvases over the shared
// points table, to exercise parallel precompute.
func multiLayerApp(t *testing.T, db *sqldb.DB, canvases int) *spec.CompiledApp {
	t.Helper()
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	app := &spec.App{Name: "multi", InitialCanvas: "c0",
		InitialX: 2048, InitialY: 1024, ViewportW: 512, ViewportH: 512}
	for i := 0; i < canvases; i++ {
		app.Canvases = append(app.Canvases, spec.Canvas{
			ID: fmt.Sprintf("c%d", i), W: 4096, H: 2048,
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
			}},
		})
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// TestParallelPrecompute materializes a multi-canvas app with a worker
// pool and verifies every layer came out whole, including the shared
// base-table index being built exactly once despite concurrent
// requests for it.
func TestParallelPrecompute(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	d := workload.Uniform(400, 4096, 2048, 7)
	for _, p := range d.Points {
		if err := db.InsertRow("points", storage.Row{
			storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val),
		}); err != nil {
			t.Fatal(err)
		}
	}
	const canvases = 6
	ca := multiLayerApp(t, db, canvases)
	srv, err := New(db, ca, Options{
		Cache: CacheOptions{L1: L1CacheOptions{Bytes: 4 << 20}},
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    []float64{512},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < canvases; i++ {
		pl, ok := srv.Layer(fmt.Sprintf("c%d", i), 0)
		if !ok || pl.Table == "" {
			t.Fatalf("canvas c%d layer missing after parallel precompute", i)
		}
		if len(pl.TileMaps) != 1 {
			t.Fatalf("canvas c%d tile maps = %v", i, pl.TileMaps)
		}
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for i := 0; i < canvases; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/tile?canvas=c%d&layer=0&size=512&col=0&row=0", hs.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("canvas c%d tile: %s: %s", i, resp.Status, body)
		}
	}
}

// TestParallelPrecomputeFirstErrorWins: a layer that fails to
// materialize surfaces exactly one error from New.
func TestParallelPrecomputeFirstErrorWins(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	ca := multiLayerApp(t, db, 4)
	// Sabotage one canvas's transform to reference a missing table.
	ca.Spec.Canvases[2].Transforms[0].Query = "SELECT * FROM missing_table"
	_, err := New(db, ca, Options{
		Cache:      CacheOptions{L1: L1CacheOptions{Bytes: 1 << 20}},
		Precompute: fetch.Options{BuildSpatial: true},
	})
	if err == nil {
		t.Fatal("New should fail when a layer cannot materialize")
	}
}
