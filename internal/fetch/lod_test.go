package fetch

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// buildLODApp is buildPointsApp with the layer declared "lod": "auto".
func buildLODApp(t testing.TB, n int) (*sqldb.DB, *spec.CompiledApp) {
	t.Helper()
	return lodApp(t, workload.Uniform(n, 8192, 4096, 7), 1)
}

// lodApp loads d's points, in order, into a points table and compiles an
// app with one auto-LOD dot layer of the given radius over d's canvas.
func lodApp(tb testing.TB, d *workload.Dataset, radius float64) (*sqldb.DB, *spec.CompiledApp) {
	tb.Helper()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		tb.Fatal(err)
	}
	for i := range d.Points {
		p := &d.Points[i]
		if err := db.InsertRow("points", storage.Row{storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val)}); err != nil {
			tb.Fatal(err)
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	app := &spec.App{
		Name: "pts",
		Canvases: []spec.Canvas{{
			ID: "main", W: d.CanvasW, H: d.CanvasH,
			Transforms: []spec.Transform{{
				ID:    "ptsTrans",
				Query: "SELECT * FROM points",
				Columns: []spec.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "ptsTrans",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", Radius: radius},
				Renderer:    "dots",
				LOD:         "auto",
			}},
		}},
		InitialCanvas: "main", InitialX: d.CanvasW / 2, InitialY: d.CanvasH / 2,
		ViewportW: 1024, ViewportH: 1024,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		tb.Fatal(err)
	}
	return db, ca
}

func TestLODPyramidBuild(t *testing.T) {
	const n = 20000
	db, ca := buildLODApp(t, n)
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{
		LODRowBudget: 256, LODBaseCell: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pl.LOD
	if p == nil {
		t.Fatal("auto-LOD layer built no pyramid")
	}
	// 8192x4096 at cell 64 is 128*64 = 8192 cells; halving per level,
	// the first level with <= 256 full-grid cells is cell 512 (16*8).
	if len(p.Levels) != 4 {
		t.Fatalf("levels = %d (%+v), want 4", len(p.Levels), p.Levels)
	}
	if p.SumCol != "val" {
		t.Fatalf("SumCol = %q, want val (first non-coordinate float)", p.SumCol)
	}

	// Brute-force level 0 for comparison.
	type agg struct {
		count int64
		sum   float64
		repID int64
	}
	want := map[[2]int]*agg{}
	var valSum float64
	err = db.ScanTable("points", func(row storage.Row) bool {
		cx, cy := row[1].AsFloat(), row[2].AsFloat()
		k := [2]int{int(cx / 64), int(cy / 64)}
		valSum += row[3].AsFloat()
		a, ok := want[k]
		if !ok {
			want[k] = &agg{count: 1, sum: row[3].AsFloat(), repID: row[0].AsInt()}
			return true
		}
		a.count++
		a.sum += row[3].AsFloat()
		if id := row[0].AsInt(); id < a.repID {
			a.repID = id
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	for li, lv := range p.Levels {
		res, err := db.Query("SELECT * FROM " + lv.Table)
		if err != nil {
			t.Fatalf("level %d: %v", li, err)
		}
		if int64(len(res.Rows)) != lv.Cells {
			t.Fatalf("level %d: %d rows, recorded Cells = %d", li, len(res.Rows), lv.Cells)
		}
		sch, err := db.Table(lv.Table)
		if err != nil {
			t.Fatal(err)
		}
		countIdx := sch.Schema().ColIndex("lod_count")
		sumIdx := sch.Schema().ColIndex("lod_sum")
		if countIdx < 0 || sumIdx < 0 {
			t.Fatalf("level %d: aggregate columns missing from %v", li, sch.Schema())
		}
		var total int64
		var sum float64
		for _, row := range res.Rows {
			total += row[countIdx].AsInt()
			sum += row[sumIdx].AsFloat()
		}
		// Every level partitions the full dataset.
		if total != n {
			t.Fatalf("level %d: counts sum to %d, want %d", li, total, n)
		}
		if math.Abs(sum-valSum) > 1e-6*math.Abs(valSum)+1e-9 {
			t.Fatalf("level %d: sums total %g, want %g", li, sum, valSum)
		}
	}

	// Level 0 cells match the brute force exactly (count, sum, rep id),
	// and the rep row is a real member of the cell.
	res, err := db.Query("SELECT * FROM " + p.Levels[0].Table)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("level 0: %d cells, brute force %d", len(res.Rows), len(want))
	}
	sch, _ := db.Table(p.Levels[0].Table)
	countIdx := sch.Schema().ColIndex("lod_count")
	sumIdx := sch.Schema().ColIndex("lod_sum")
	for _, row := range res.Rows {
		cx, cy := row[1].AsFloat(), row[2].AsFloat()
		k := [2]int{int(cx / 64), int(cy / 64)}
		a, ok := want[k]
		if !ok {
			t.Fatalf("cell %v not in brute force (rep outside its cell?)", k)
		}
		if row[countIdx].AsInt() != a.count {
			t.Fatalf("cell %v count = %d, want %d", k, row[countIdx].AsInt(), a.count)
		}
		if math.Abs(row[sumIdx].AsFloat()-a.sum) > 1e-9*math.Abs(a.sum)+1e-9 {
			t.Fatalf("cell %v sum = %g, want %g", k, row[sumIdx].AsFloat(), a.sum)
		}
		if row[0].AsInt() != a.repID {
			t.Fatalf("cell %v rep id = %d, want min id %d", k, row[0].AsInt(), a.repID)
		}
	}
}

func TestLODLevelForAndWindowSQL(t *testing.T) {
	db, ca := buildLODApp(t, 20000)
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{
		LODRowBudget: 256, LODBaseCell: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	canvas := pl.CanvasRect()
	// A viewport-sized window affords raw rows at this density
	// (20000/(8192*4096) * 1024^2 ≈ 625 > 256 — actually over budget,
	// so pick a smaller window for the raw case).
	small := geom.RectXYWH(1000, 1000, 256, 256)
	if lvl := pl.LODLevelFor(small); lvl != -1 {
		t.Fatalf("small window level = %d, want -1 (raw)", lvl)
	}
	// The full canvas must route to some pyramid level whose query
	// returns at most RowBudget rows, no matter the dataset size.
	lvl := pl.LODLevelFor(canvas)
	if lvl < 0 {
		t.Fatalf("full-canvas window routed to raw rows")
	}
	sql, args := pl.LODWindowSQL(lvl, canvas)
	plan, err := db.Query("EXPLAIN "+sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Rows[0][0].S, "RTree Window Scan") {
		t.Fatalf("pyramid window not using the level R-tree: %v", plan.Rows)
	}
	res, err := db.Query(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 256 {
		t.Fatalf("full-canvas pyramid query returned %d rows, want 1..256", len(res.Rows))
	}
	// Zoom monotonicity: growing windows never route to a finer level.
	prev := -1
	for _, scale := range []float64{0.05, 0.1, 0.25, 0.5, 1} {
		w := geom.RectXYWH(0, 0, canvas.W()*scale, canvas.H()*scale)
		l := pl.LODLevelFor(w)
		if l < prev {
			t.Fatalf("level went finer as the window grew: %d after %d at scale %g", l, prev, scale)
		}
		prev = l
	}
}

func TestLODEmptyLayer(t *testing.T) {
	db, ca := buildLODApp(t, 0)
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.LOD != nil {
		t.Fatal("empty layer should skip the pyramid (raw queries are free)")
	}
	if lvl := pl.LODLevelFor(pl.CanvasRect()); lvl != -1 {
		t.Fatalf("level = %d, want -1", lvl)
	}
}

// levelRows returns a table's rows in heap order, each copied.
func levelRows(t *testing.T, db *sqldb.DB, table string) []storage.Row {
	t.Helper()
	var rows []storage.Row
	if err := db.ScanTable(table, func(row storage.Row) bool {
		rows = append(rows, slices.Clone(row))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestLODPyramidDeterministic builds the same pyramid twice and wants
// bit-identical level tables, then checks every coarser level against a
// brute-force fold of the level below it: a parent's count is its
// children's total and its representative is the heaviest child's
// (ties to the smaller id), whatever order the children are visited in.
// Two cluster nodes over the same data must serve the same bytes for
// one LOD key.
func TestLODPyramidDeterministic(t *testing.T) {
	const n = 20000
	opts := Options{LODRowBudget: 256, LODBaseCell: 64}
	var (
		builds [2][][]storage.Row
		pl     *PhysicalLayer
		schema storage.Schema
	)
	for b := range builds {
		db, ca := buildLODApp(t, n)
		var err error
		if pl, err = Materialize(context.Background(), db, ca, 0, 0, opts); err != nil {
			t.Fatal(err)
		}
		for _, lv := range pl.LOD.Levels {
			builds[b] = append(builds[b], levelRows(t, db, lv.Table))
		}
		tb, err := db.Table(pl.LOD.Levels[0].Table)
		if err != nil {
			t.Fatal(err)
		}
		schema = tb.Schema()
	}
	for li := range builds[0] {
		a, b := builds[0][li], builds[1][li]
		if len(a) != len(b) {
			t.Fatalf("level %d: %d rows, then %d", li, len(a), len(b))
		}
		diff := 0
		for i := range a {
			ea, err := storage.EncodeRow(nil, schema, a[i])
			if err != nil {
				t.Fatal(err)
			}
			eb, err := storage.EncodeRow(nil, schema, b[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ea, eb) {
				diff++
			}
		}
		if diff > 0 {
			t.Errorf("level %d: %d of %d rows differ between two builds of the same data", li, diff, len(a))
		}
	}

	xi, yi := schema.ColIndex("x"), schema.ColIndex("y")
	countIdx := schema.ColIndex("lod_count")
	cell0 := pl.LOD.Levels[0].Cell
	cols0 := int(math.Ceil(pl.CanvasW / cell0))
	rows0 := int(math.Ceil(pl.CanvasH / cell0))
	// cellOf places a level row by its representative: the rep's level-0
	// cell, shifted up to level li.
	cellOf := func(row storage.Row, li int) [2]int {
		c := clampInt(int(row[xi].AsFloat()/cell0), 0, cols0-1)
		r := clampInt(int(row[yi].AsFloat()/cell0), 0, rows0-1)
		return [2]int{c >> li, r >> li}
	}
	type ref struct{ count, best, repID int64 }
	for li := 1; li < len(builds[0]); li++ {
		want := map[[2]int]*ref{}
		for _, row := range builds[0][li-1] {
			k := cellOf(row, li-1)
			k = [2]int{k[0] >> 1, k[1] >> 1}
			cnt, id := row[countIdx].AsInt(), row[0].AsInt()
			w, ok := want[k]
			if !ok {
				want[k] = &ref{count: cnt, best: cnt, repID: id}
				continue
			}
			w.count += cnt
			if cnt > w.best || (cnt == w.best && id < w.repID) {
				w.best, w.repID = cnt, id
			}
		}
		got := builds[0][li]
		if len(got) != len(want) {
			t.Fatalf("level %d: %d cells, the fold of level %d has %d", li, len(got), li-1, len(want))
		}
		bad := 0
		for _, row := range got {
			w := want[cellOf(row, li)]
			if w == nil || row[countIdx].AsInt() != w.count || row[0].AsInt() != w.repID {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("level %d: %d of %d cells disagree with the heaviest-child fold of level %d", li, bad, len(got), li-1)
		}
	}
}

// TestLODSparseCanvasMemoryBounded builds a pyramid over a few thousand
// points on a 2^22 x 2^22 canvas: at base cell 64 that is 2^32 grid
// cells, so a builder sized by the canvas rather than by its non-empty
// cells would allocate gigabytes.
func TestLODSparseCanvasMemoryBounded(t *testing.T) {
	const n = 4000
	db, ca := lodApp(t, workload.Uniform(n, 1<<22, 1<<22, 11), 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{LODBaseCell: 64})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if pl.LOD == nil || len(pl.LOD.Levels) == 0 {
		t.Fatal("no pyramid built")
	}
	var total int64
	if err := db.ScanTable(pl.LOD.Levels[0].Table, func(row storage.Row) bool {
		total += row[4].AsInt()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("level 0 counts %d rows, want %d", total, n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d levels, %d level-0 cells, %.1f MiB allocated", len(pl.LOD.Levels), pl.LOD.Levels[0].Cells, float64(alloc)/(1<<20))
	if alloc > 64<<20 {
		t.Fatalf("build allocated %.1f MiB, want < 64 MiB", float64(alloc)/(1<<20))
	}
}

// TestLODOutOfCanvasRule pins the pyramid's admission rule: a row counts
// iff its rendered box (point ± radius) intersects the canvas, edges
// inclusive. Each edge gets three probes in cells of their own: one
// whose box overlaps the canvas, one whose box touches the edge and one
// whose box misses it by half a unit.
func TestLODOutOfCanvasRule(t *testing.T) {
	const w, h, radius = 1024, 1024, 2
	d := &workload.Dataset{CanvasW: w, CanvasH: h}
	counted := map[int64]bool{}
	probe := func(x, y float64, counts bool) {
		id := int64(len(d.Points) + 1)
		d.Points = append(d.Points, workload.Point{ID: id, X: x, Y: y, Val: float64(id)})
		counted[id] = counts
	}
	for i, off := range []float64{radius - 0.5, radius, radius + 0.5} {
		in := off <= radius
		along := 32 + 64*float64(i) // a separate base cell per probe
		probe(-off, along, in)      // left
		probe(w+off, along, in)     // right
		probe(along+256, -off, in)  // bottom
		probe(along+256, h+off, in) // top
	}
	db, ca := lodApp(t, d, radius)
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{LODRowBudget: 4, LODBaseCell: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wantCount int64
	var wantSum float64
	for id, in := range counted {
		if in {
			wantCount++
			wantSum += float64(id)
		}
	}
	for li, lv := range pl.LOD.Levels {
		var count int64
		var sum float64
		ids := map[int64]bool{}
		for _, row := range levelRows(t, db, lv.Table) {
			count += row[4].AsInt()
			sum += row[5].AsFloat()
			ids[row[0].AsInt()] = true
		}
		if count != wantCount || sum != wantSum {
			t.Fatalf("level %d counts %d rows summing %g, want %d summing %g", li, count, sum, wantCount, wantSum)
		}
		if li > 0 {
			continue
		}
		// Every counted probe is alone in its level-0 cell, so it
		// represents one; no dropped probe may.
		for id, in := range counted {
			if ids[id] != in {
				t.Errorf("probe %d at %+v: represented %v, counted %v", id, d.Points[id-1], ids[id], in)
			}
		}
	}
}

// BenchmarkPyramidBuild is one pyramid build over 50k uniform points,
// from the raw table's point R-tree (which clusters its heap) through
// the one-pass scan, the in-place folds, the level appends and the
// level R-trees.
func BenchmarkPyramidBuild(b *testing.B) {
	d := workload.Uniform(50000, 8192, 4096, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, ca := lodApp(b, d, 1)
		b.StartTimer()
		pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if pl.LOD == nil {
			b.Fatal("no pyramid built")
		}
	}
}
