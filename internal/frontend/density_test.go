package frontend

import (
	"sync"
	"testing"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/prefetch"
	"kyrix/internal/server"
)

func TestDensityFieldLearnsFromFetches(t *testing.T) {
	c, _ := newTestClient(t, DefaultOptions())
	field := c.DensityField(1)
	// Before any fetch: nothing observed.
	if _, ok := field(c.Viewport()); ok {
		t.Fatal("density known before any fetch")
	}
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	d, ok := field(c.Viewport())
	if !ok || d <= 0 {
		t.Fatalf("density after load = %g ok=%v", d, ok)
	}
	// The uniform test dataset: observed density should be near
	// n/(W*H) = 3000/(2048*1024).
	want := 3000.0 / (2048 * 1024)
	if d < want/3 || d > want*3 {
		t.Fatalf("density = %g want ~%g", d, want)
	}
	// A far-away unobserved region is still unknown.
	if _, ok := field(geom.RectXYWH(999999, 999999, 10, 10)); ok {
		t.Fatal("unobserved region should be unknown")
	}
}

func TestDensityFieldFromTiles(t *testing.T) {
	c, _ := newTestClient(t, Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
	})
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.DensityField(1)(c.Viewport()); !ok {
		t.Fatal("tile fetches must feed the density field")
	}
}

func TestSemanticPrefetchIntegration(t *testing.T) {
	c, _ := newTestClient(t, DefaultOptions())
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	// Walk around to populate the density grid.
	for i := 0; i < 4; i++ {
		if _, err := c.PanBy(600, 0); err != nil {
			t.Fatal(err)
		}
	}
	sem := prefetch.NewSemantic(c.DensityField(1))
	pf := prefetch.NewPrefetcher(sem, c, []int{1},
		geom.Rect{MinX: 0, MinY: 0, MaxX: c.Canvas().W, MaxY: c.Canvas().H})
	pf.OnPan(c.Viewport())
	// With observed neighbors the semantic predictor issues a
	// prefetch; it must not error against the live backend.
	if pf.Errs != 0 {
		t.Fatalf("semantic prefetch errors = %d", pf.Errs)
	}
}

// TestParallelTileFetch: two per-tile clients loading the same viewport
// from one backend at once see the same tiles, rows and objects.
func TestParallelTileFetch(t *testing.T) {
	db, ca := testApp(t, 3000)
	_, hs := startBackend(t, db, ca)
	opts := Options{
		Scheme:     fetch.Granularity{Kind: "tile", Design: "spatial", TileSize: 256},
		Codec:      server.CodecJSON,
		CacheBytes: 16 << 20,
	}
	var clients [2]*Client
	var reps [2]FetchReport
	for i := range clients {
		c, err := NewClient(hs.URL, ca, opts)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := clients[i].Load()
			if err != nil {
				t.Error(err)
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if reps[0].Requests != reps[1].Requests || reps[0].Requests == 0 {
		t.Fatalf("requests: %d vs %d", reps[0].Requests, reps[1].Requests)
	}
	if reps[0].Rows != reps[1].Rows {
		t.Fatalf("rows: %d vs %d", reps[0].Rows, reps[1].Rows)
	}
	a, _ := clients[0].ObjectsInViewport(1)
	b, _ := clients[1].ObjectsInViewport(1)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("objects: %d vs %d", len(a), len(b))
	}
	if _, err := clients[1].PanBy(256, 0); err != nil {
		t.Fatal(err)
	}
}
