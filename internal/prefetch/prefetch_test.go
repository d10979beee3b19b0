package prefetch

import (
	"errors"
	"fmt"
	"testing"

	"kyrix/internal/geom"
)

func vp(x, y float64) geom.Rect { return geom.RectXYWH(x, y, 100, 100) }

func TestMomentumNoHistory(t *testing.T) {
	m := NewMomentum(3)
	if _, ok := m.Predict(); ok {
		t.Fatal("no history, no prediction")
	}
	m.Observe(vp(0, 0))
	if _, ok := m.Predict(); ok {
		t.Fatal("single observation, no prediction")
	}
}

func TestMomentumConstantVelocity(t *testing.T) {
	m := NewMomentum(3)
	for i := 0; i <= 4; i++ {
		m.Observe(vp(float64(i)*50, 0))
	}
	got, ok := m.Predict()
	if !ok {
		t.Fatal("expected prediction")
	}
	if got.MinX != 250 || got.MinY != 0 {
		t.Fatalf("prediction = %v", got)
	}
}

func TestMomentumAveragesWindow(t *testing.T) {
	m := NewMomentum(2)
	m.Observe(vp(0, 0))
	m.Observe(vp(100, 0)) // +100
	m.Observe(vp(150, 0)) // +50
	got, ok := m.Predict()
	if !ok || got.MinX != 225 { // 150 + (100+50)/2
		t.Fatalf("prediction = %v ok=%v", got, ok)
	}
	// Window drops old moves: a stationary user stops predicting.
	m2 := NewMomentum(2)
	m2.Observe(vp(0, 0))
	m2.Observe(vp(100, 0))
	m2.Observe(vp(100, 0))
	m2.Observe(vp(100, 0))
	if _, ok := m2.Predict(); ok {
		t.Fatal("stationary user should yield no prediction")
	}
}

func TestMomentumDiagonal(t *testing.T) {
	m := NewMomentum(4)
	for i := 0; i <= 3; i++ {
		m.Observe(vp(float64(i)*10, float64(i)*20))
	}
	got, ok := m.Predict()
	if !ok || got.MinX != 40 || got.MinY != 80 {
		t.Fatalf("diagonal prediction = %v", got)
	}
}

func TestSemanticPredictor(t *testing.T) {
	// Density field: dense on the left half (x<500), sparse right.
	field := func(r geom.Rect) (float64, bool) {
		if r.MinX < 0 {
			return 0, false // unobserved
		}
		if r.Center().X < 500 {
			return 1.0, true
		}
		return 0.1, true
	}
	s := NewSemantic(field)
	if _, ok := s.Predict(); ok {
		t.Fatal("no observations, no prediction")
	}
	// User has been viewing dense regions.
	s.Observe(vp(100, 200))
	s.Observe(vp(200, 200))
	got, ok := s.Predict()
	if !ok {
		t.Fatal("expected prediction")
	}
	// From (200,200): candidates at x=300 (dense), x=100 (dense),
	// y±100 at x=200 (dense). All dense except... all are dense, so
	// any is acceptable; it must at least be a dense one.
	if d, _ := field(got); d != 1.0 {
		t.Fatalf("predicted sparse region %v", got)
	}
	// Now from the dense/sparse boundary the predictor prefers the
	// dense side.
	s2 := NewSemantic(field)
	s2.Observe(vp(350, 200))
	got2, ok := s2.Predict()
	if !ok {
		t.Fatal("expected prediction")
	}
	if got2.Center().X >= 500 {
		t.Fatalf("picked sparse neighbor %v", got2)
	}
}

func TestSemanticUnobservedNeighbors(t *testing.T) {
	field := func(r geom.Rect) (float64, bool) { return 0, false }
	s := NewSemantic(field)
	s.Observe(vp(0, 0))
	if _, ok := s.Predict(); ok {
		t.Fatal("all neighbors unobserved: no prediction")
	}
}

// fakeFetcher records each PrefetchBoxes call: its layers and box.
type fakeFetcher struct {
	calls  int
	layers []int
	boxes  []geom.Rect
	fail   bool
}

func (f *fakeFetcher) PrefetchBoxes(layers []int, box geom.Rect) error {
	f.calls++
	f.layers = append([]int(nil), layers...)
	if f.fail {
		return errors.New("boom")
	}
	f.boxes = append(f.boxes, box)
	return nil
}

// TestPrefetcherUsesBatchFetcher: one prediction is one multi-layer
// call, whatever the layer count.
func TestPrefetcherUsesBatchFetcher(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	ff := &fakeFetcher{}
	p := NewPrefetcher(NewMomentum(3), ff, []int{0, 1, 2}, bounds)
	p.OnPan(vp(0, 500))
	p.OnPan(vp(100, 500))
	if ff.calls != 1 || len(ff.boxes) != 1 {
		t.Fatalf("calls = %d, boxes = %d, want one multi-layer call", ff.calls, len(ff.boxes))
	}
	if len(ff.layers) != 3 {
		t.Fatalf("batched layers = %v", ff.layers)
	}
	if p.Issued != 3 {
		t.Fatalf("Issued = %d, want one per layer", p.Issued)
	}
	// A failing batched prefetch counts one error for the whole call.
	ff.fail = true
	p.OnPan(vp(200, 500))
	if p.Errs != 1 {
		t.Fatalf("Errs = %d", p.Errs)
	}
}

func TestPrefetcher(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}
	ff := &fakeFetcher{}
	p := NewPrefetcher(NewMomentum(3), ff, []int{0}, bounds)
	p.Inflate = 0.5
	p.OnPan(vp(0, 500))
	if p.Issued != 0 {
		t.Fatal("first pan should not prefetch")
	}
	p.OnPan(vp(100, 500))
	if p.Issued != 1 || len(ff.boxes) != 1 {
		t.Fatalf("issued = %d", p.Issued)
	}
	// Predicted location is vp(200,500) inflated by 50%.
	box := ff.boxes[0]
	if box.Center() != (geom.Point{X: 250, Y: 550}) {
		t.Fatalf("prefetch box = %v", box)
	}
	if box.W() != 150 {
		t.Fatalf("inflation missing: %v", box)
	}
}

func TestPrefetcherClampsAndCountsErrors(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 500, MaxY: 500}
	ff := &fakeFetcher{}
	p := NewPrefetcher(NewMomentum(2), ff, []int{0, 1}, bounds)
	// Movement heading off-canvas: prefetch box must stay inside.
	p.OnPan(vp(300, 0))
	p.OnPan(vp(400, 0))
	for _, b := range ff.boxes {
		if !bounds.Contains(b) {
			t.Fatalf("prefetch box %v escapes canvas", b)
		}
	}
	if p.Issued != 2 { // two layers
		t.Fatalf("issued = %d", p.Issued)
	}
	// Errors are counted, not fatal.
	ff.fail = true
	p.OnPan(vp(500, 0))
	if p.Errs == 0 {
		t.Fatal("errors not counted")
	}
}

type recordingTileFetcher struct {
	calls []struct {
		layer int
		size  float64
		tiles []geom.TileID
	}
	fail bool
}

func (r *recordingTileFetcher) PrefetchTiles(li int, size float64, tiles []geom.TileID) error {
	r.calls = append(r.calls, struct {
		layer int
		size  float64
		tiles []geom.TileID
	}{li, size, tiles})
	if r.fail {
		return fmt.Errorf("boom")
	}
	return nil
}

func TestTilePrefetcherWarmsPredictedTiles(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 4096, MaxY: 2048}
	f := &recordingTileFetcher{}
	p := NewTilePrefetcher(NewMomentum(3), f, []int{0, 1}, 256, bounds)

	vp := geom.RectXYWH(0, 0, 512, 512)
	p.OnPan(vp) // first observation: no prediction yet
	if len(f.calls) != 0 {
		t.Fatalf("prefetch before a prediction: %d calls", len(f.calls))
	}
	p.OnPan(vp.Translate(256, 0)) // velocity established
	if len(f.calls) != 2 {
		t.Fatalf("calls = %d, want one per layer", len(f.calls))
	}
	if p.Issued != 2 || p.Errs != 0 || p.Tiles == 0 {
		t.Fatalf("stats = %+v", p)
	}
	// The predicted viewport is one step further right; its tiles must
	// cover x in [512, 1024).
	want := geom.ViewportTiles(vp.Translate(512, 0), 256, bounds.W(), bounds.H())
	got := f.calls[0].tiles
	if len(got) != len(want) {
		t.Fatalf("tiles = %v, want %v", got, want)
	}
	if f.calls[0].size != 256 || f.calls[0].layer != 0 || f.calls[1].layer != 1 {
		t.Fatalf("calls = %+v", f.calls)
	}
}

func TestTilePrefetcherCountsErrors(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 4096, MaxY: 2048}
	f := &recordingTileFetcher{fail: true}
	p := NewTilePrefetcher(NewMomentum(2), f, []int{0}, 256, bounds)
	vp := geom.RectXYWH(0, 0, 512, 512)
	p.OnPan(vp)
	p.OnPan(vp.Translate(300, 0))
	if p.Issued != 1 || p.Errs != 1 {
		t.Fatalf("stats = issued %d errs %d", p.Issued, p.Errs)
	}
}

func TestTilePrefetcherClampsToCanvas(t *testing.T) {
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}
	f := &recordingTileFetcher{}
	p := NewTilePrefetcher(NewMomentum(2), f, []int{0}, 256, bounds)
	// Panning left from the edge predicts a viewport off-canvas; the
	// prefetch clamps to the canvas and still requests valid tiles.
	vp := geom.RectXYWH(512, 0, 512, 512)
	p.OnPan(vp)
	p.OnPan(geom.RectXYWH(0, 0, 512, 512))
	for _, call := range f.calls {
		for _, tid := range call.tiles {
			if tid.Col < 0 || tid.Row < 0 {
				t.Fatalf("off-canvas tile %+v", tid)
			}
		}
	}
}
