package kyrix_test

import (
	"testing"

	"kyrix"
	"kyrix/internal/fetch"
	"kyrix/internal/storage"
)

// TestApplicationByExample ties §4's "application by example" vision to
// the full pipeline: learn a placement from drag-and-drop examples,
// build a spec with it, and serve the application — the learned layer
// behaves identically to a hand-written one.
func TestApplicationByExample(t *testing.T) {
	// The data: sensor readings whose canvas position the user
	// demonstrates by dragging a few onto the canvas. Ground truth is
	// x = lon*8, y = lat*8 with a radius-3 marker.
	schema := kyrix.Schema{
		{Name: "id", Type: storage.TInt64},
		{Name: "lon", Type: storage.TFloat64},
		{Name: "lat", Type: storage.TFloat64},
	}
	var examples []kyrix.PlacementExample
	demo := []struct{ lon, lat float64 }{
		{10, 20}, {50, 5}, {90, 60}, {130, 90}, {33, 71},
	}
	for i, d := range demo {
		examples = append(examples, kyrix.PlacementExample{
			Row: kyrix.Row{kyrix.Int(int64(i)), kyrix.Float(d.lon), kyrix.Float(d.lat)},
			Pos: kyrix.Point{X: d.lon * 8, Y: d.lat * 8},
		})
	}
	fit, err := kyrix.LearnPlacement(schema, examples)
	if err != nil {
		t.Fatal(err)
	}
	if fit.XCol != "lon" || fit.YCol != "lat" {
		t.Fatalf("learned columns %s/%s", fit.XCol, fit.YCol)
	}
	if !fit.Separable(1e-6) {
		t.Fatalf("pure scaling should be separable: %+v", fit)
	}

	// Build the app from the learned placement and serve it.
	db := kyrix.NewDB()
	if _, err := db.Exec("CREATE TABLE sensors (id INT, lon DOUBLE, lat DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := db.InsertRow("sensors", kyrix.Row{
			kyrix.Int(int64(i)),
			kyrix.Float(float64(i % 125)),
			kyrix.Float(float64(i / 5 % 100)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := kyrix.NewRegistry()
	reg.RegisterRenderer("sensors")
	app := &kyrix.App{
		Name: "learned",
		Canvases: []kyrix.Canvas{{
			ID: "c", W: 1000, H: 800,
			Transforms: []kyrix.Transform{{ID: "t", Query: "SELECT * FROM sensors",
				Columns: []kyrix.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "lon", Type: "double"}, {Name: "lat", Type: "double"},
				}}},
			Layers: []kyrix.Layer{{
				TransformID: "t",
				Placement:   fit.Placement(3), // <- the learned placement
				Renderer:    "sensors",
			}},
		}},
		InitialCanvas: "c", InitialX: 500, InitialY: 400,
		ViewportW: 300, ViewportH: 300,
	}
	inst, err := kyrix.Launch(db, app, reg, kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 1 << 20}},
		Precompute: fetch.Options{BuildSpatial: true},
	}, kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Client.Load(); err != nil {
		t.Fatal(err)
	}
	rows, err := inst.Client.ObjectsInViewport(0)
	if err != nil || len(rows) == 0 {
		t.Fatalf("learned layer served nothing: %v, %d", err, len(rows))
	}
	// Every served object's learned position must land in the viewport
	// (modulo the marker radius).
	vp := inst.Client.Viewport()
	for _, r := range rows {
		x, y := r[1].AsFloat()*8, r[2].AsFloat()*8
		if x < vp.MinX-3 || x > vp.MaxX+3 || y < vp.MinY-3 || y > vp.MaxY+3 {
			t.Fatalf("object at learned position (%g,%g) outside viewport %s", x, y, vp)
		}
	}
}
