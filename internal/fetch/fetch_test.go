package fetch

import (
	"context"
	"sort"
	"strings"
	"testing"

	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

func TestSchemeNames(t *testing.T) {
	cases := map[string]Granularity{
		"dbox":              DBoxExact,
		"dbox 50%":          DBox50,
		"tile spatial 1024": TileSpatial1024,
		"tile mapping 256":  TileMapping256,
		"dbox adaptive":     {Kind: "dbox", Adaptive: true},
	}
	for want, g := range cases {
		if g.Name() != want {
			t.Errorf("Name = %q want %q", g.Name(), want)
		}
	}
	if len(PaperSchemes()) != 8 {
		t.Fatalf("paper schemes = %d", len(PaperSchemes()))
	}
}

func TestKeys(t *testing.T) {
	k1 := TileKeyOf("layerA", 1024, geom.TileID{Col: 3, Row: 7})
	k2 := TileKeyOf("layerA", 1024, geom.TileID{Col: 7, Row: 3})
	if k1 == k2 {
		t.Fatal("tile keys must distinguish col/row")
	}
	b1 := BoxKeyOf("layerA", geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10})
	b2 := BoxKeyOf("layerA", geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 20})
	if b1 == b2 {
		t.Fatal("box keys must encode the rect")
	}
}

func TestBoxFor(t *testing.T) {
	canvas := geom.Rect{MinX: 0, MinY: 0, MaxX: 100000, MaxY: 10000}
	vp := geom.RectXYWH(5000, 5000, 1000, 1000)

	exact := BoxFor(DBoxExact, vp, canvas, 0)
	if exact != vp {
		t.Fatalf("exact box = %v", exact)
	}
	half := BoxFor(DBox50, vp, canvas, 0)
	if half.W() != 1500 || half.H() != 1500 || half.Center() != vp.Center() {
		t.Fatalf("50%% box = %v", half)
	}
	// Clamped at the canvas edge: still contains the viewport.
	edgeVP := geom.RectXYWH(0, 0, 1000, 1000)
	edge := BoxFor(DBox50, edgeVP, canvas, 0)
	if !edge.Contains(edgeVP) {
		t.Fatalf("clamped box %v must contain viewport %v", edge, edgeVP)
	}
	if edge.MinX < 0 || edge.MinY < 0 {
		t.Fatalf("box leaves canvas: %v", edge)
	}
}

func TestBoxForAdaptive(t *testing.T) {
	canvas := geom.Rect{MinX: 0, MinY: 0, MaxX: 100000, MaxY: 100000}
	vp := geom.RectXYWH(5000, 5000, 1000, 1000)
	g := Granularity{Kind: "dbox", Design: "spatial", Inflate: 1.0, Adaptive: true, RowBudget: 2000}

	// Sparse region: density low enough that the full inflation fits
	// the budget.
	sparse := BoxFor(g, vp, canvas, 0.0001) // expect 100 rows/viewport
	if sparse.W() != 2000 {
		t.Fatalf("sparse adaptive box = %v", sparse)
	}
	// Dense region: 0.01 pts/px² = 10k rows per viewport > budget, so
	// the box shrinks to the bare viewport.
	dense := BoxFor(g, vp, canvas, 0.01)
	if dense.W() != 1000 {
		t.Fatalf("dense adaptive box = %v", dense)
	}
	// Unknown density falls back to the configured inflation.
	unknown := BoxFor(g, vp, canvas, 0)
	if unknown.W() != 2000 {
		t.Fatalf("unknown-density box = %v", unknown)
	}
}

func TestNeedNewBox(t *testing.T) {
	box := geom.RectXYWH(0, 0, 3000, 3000)
	if NeedNewBox(box, geom.RectXYWH(1000, 1000, 1000, 1000)) {
		t.Fatal("contained viewport must not refetch")
	}
	if !NeedNewBox(box, geom.RectXYWH(2500, 0, 1000, 1000)) {
		t.Fatal("escaping viewport must refetch")
	}
	if !NeedNewBox(geom.Rect{}, geom.RectXYWH(0, 0, 10, 10)) {
		t.Fatal("zero box must refetch")
	}
}

// buildPointsApp loads a small point dataset and compiles a separable
// single-layer app over it.
func buildPointsApp(t *testing.T, n int) (*sqldb.DB, *spec.CompiledApp) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	d := workload.Uniform(n, 8192, 4096, 7)
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
				ID:    "ptsTrans",
				Query: "SELECT * FROM points",
				Columns: []spec.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "ptsTrans",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", Radius: 1},
				Renderer:    "dots",
			}},
		}},
		InitialCanvas: "main", InitialX: 4096, InitialY: 2048,
		ViewportW: 1024, ViewportH: 1024,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	return db, ca
}

func TestMaterializeSeparable(t *testing.T) {
	db, ca := buildPointsApp(t, 3000)
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{
		BuildSpatial: true,
		TileSizes:    []float64{1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Separable || pl.Table != "points" {
		t.Fatalf("physical = %+v", pl)
	}
	// The window query must use the R-tree.
	sql, args := pl.WindowSQL(geom.RectXYWH(1000, 1000, 1024, 1024))
	plan, err := db.Query("EXPLAIN "+sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Rows[0][0].S, "RTree Window Scan") {
		t.Fatalf("separable window not using rtree: %v", plan.Rows)
	}
	// Result matches a brute-force filter.
	res, err := db.Query(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	window := geom.RectXYWH(1000, 1000, 1024, 1024)
	want := 0
	err = db.ScanTable("points", func(row storage.Row) bool {
		box := geom.RectAround(geom.Point{X: row[1].AsFloat(), Y: row[2].AsFloat()}, 1)
		if box.Intersects(window) {
			want++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != want || want == 0 {
		t.Fatalf("window rows = %d want %d", len(res.Rows), want)
	}
}

func TestTileMappingMatchesSpatial(t *testing.T) {
	db, ca := buildPointsApp(t, 2000)
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{
		BuildSpatial: true,
		TileSizes:    []float64{1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tid := range []geom.TileID{{Col: 0, Row: 0}, {Col: 3, Row: 2}, {Col: 7, Row: 3}} {
		sSQL, sArgs := pl.TileSQLSpatial(tid, 1024)
		sRes, err := db.Query(sSQL, sArgs...)
		if err != nil {
			t.Fatal(err)
		}
		mSQL, mArgs, err := pl.TileSQLMapping(tid, 1024)
		if err != nil {
			t.Fatal(err)
		}
		mRes, err := db.Query(mSQL, mArgs...)
		if err != nil {
			t.Fatal(err)
		}
		ids := func(res *sqldb.Result, idCol int) []int64 {
			var out []int64
			for _, r := range res.Rows {
				out = append(out, r[idCol].AsInt())
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		s, m := ids(sRes, 0), ids(mRes, 0)
		if len(s) == 0 {
			t.Fatalf("tile %v: empty spatial result — bad test geometry", tid)
		}
		if len(s) != len(m) {
			t.Fatalf("tile %v: spatial %d rows, mapping %d rows", tid, len(s), len(m))
		}
		for i := range s {
			if s[i] != m[i] {
				t.Fatalf("tile %v: id mismatch at %d: %d vs %d", tid, i, s[i], m[i])
			}
		}
		// The mapping plan must use the tile_id index and an INL join.
		plan, err := db.Query("EXPLAIN "+mSQL, mArgs...)
		if err != nil {
			t.Fatal(err)
		}
		text := ""
		for _, r := range plan.Rows {
			text += r[0].S + "\n"
		}
		if !strings.Contains(text, "Eq Scan") || !strings.Contains(text, "Index Nested Loop") {
			t.Fatalf("mapping plan:\n%s", text)
		}
	}
	// Unknown tile size errors.
	if _, _, err := pl.TileSQLMapping(geom.TileID{}, 512); err == nil {
		t.Fatal("missing mapping table must error")
	}
}

func TestMaterializeFunctional(t *testing.T) {
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE sales (region TEXT, amount DOUBLE, idx INT)"); err != nil {
		t.Fatal(err)
	}
	for i, amt := range []float64{10, 40, 25} {
		if err := db.InsertRow("sales", storage.Row{
			storage.Str([]string{"east", "west", "north"}[i]), storage.F64(amt), storage.I64(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("bars")
	// Non-separable placement: bar chart layout where x depends on the
	// row index and height on the amount (like the paper's pie chart
	// example, the placement is not a raw attribute).
	reg.RegisterPlacement("barLayout", func(r storage.Row) geom.Rect {
		i := r[2].AsFloat()
		return geom.Rect{MinX: i * 100, MinY: 0, MaxX: i*100 + 80, MaxY: r[1].AsFloat() * 10}
	})
	reg.RegisterTransform("double", func(r storage.Row) storage.Row {
		out := append(storage.Row(nil), r...)
		out[1] = storage.F64(r[1].AsFloat() * 2)
		return out
	})
	app := &spec.App{
		Name: "bars",
		Canvases: []spec.Canvas{{
			ID: "c", W: 1000, H: 1000,
			Transforms: []spec.Transform{{
				ID: "t", Query: "SELECT * FROM sales", TransformFunc: "double",
				Columns: []spec.ColumnSpec{
					{Name: "region", Type: "text"},
					{Name: "amount", Type: "double"},
					{Name: "idx", Type: "int"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "t",
				Placement:   &spec.Placement{Func: "barLayout"},
				Renderer:    "bars",
			}},
		}},
		InitialCanvas: "c", InitialX: 500, InitialY: 500,
		ViewportW: 100, ViewportH: 100,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{BuildSpatial: true, TileSizes: []float64{512}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Separable {
		t.Fatal("should be non-separable")
	}
	// Window over the tall west bar only (amount 40*2*10 = 800 high,
	// x in [100,180]).
	sql, args := pl.WindowSQL(geom.RectXYWH(110, 500, 10, 10))
	res, err := db.Query(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("window rows = %d", len(res.Rows))
	}
	// region column is schema position 1 (after kid).
	if res.Rows[0][1].S != "west" {
		t.Fatalf("wrong bar: %v", res.Rows[0])
	}
	// Transform applied: amount doubled.
	if res.Rows[0][2].AsFloat() != 80 {
		t.Fatalf("transform not applied: %v", res.Rows[0])
	}
	// Mapping design works on materialized layers too.
	mSQL, mArgs, err := pl.TileSQLMapping(geom.TileID{Col: 0, Row: 0}, 512)
	if err != nil {
		t.Fatal(err)
	}
	mRes, err := db.Query(mSQL, mArgs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(mRes.Rows) == 0 {
		t.Fatal("mapping tile empty")
	}
}

func TestMaterializeStaticLegend(t *testing.T) {
	db := sqldb.NewDB()
	reg := spec.NewRegistry()
	reg.RegisterRenderer("legend")
	reg.RegisterRenderer("dots")
	app := &spec.App{
		Name: "leg",
		Canvases: []spec.Canvas{{
			ID: "c", W: 100, H: 100,
			Transforms: []spec.Transform{{ID: "empty"}},
			Layers: []spec.Layer{{
				TransformID: "empty", Static: true, Renderer: "legend",
			}},
		}},
		InitialCanvas: "c", InitialX: 50, InitialY: 50,
		ViewportW: 10, ViewportH: 10,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Materialize(context.Background(), db, ca, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Static || pl.Table != "" {
		t.Fatalf("legend physical = %+v", pl)
	}
}

func TestMaterializeErrors(t *testing.T) {
	db, ca := buildPointsApp(t, 10)
	// Break the query.
	ca.Spec.Canvases[0].Transforms[0].Query = "SELECT * FROM missing_table"
	if _, err := Materialize(context.Background(), db, ca, 0, 0, Options{}); err == nil {
		t.Fatal("missing table must fail")
	}
	ca.Spec.Canvases[0].Transforms[0].Query = "not sql"
	if _, err := Materialize(context.Background(), db, ca, 0, 0, Options{}); err == nil {
		t.Fatal("bad sql must fail")
	}
	// Separable columns that don't exist in the base table.
	db2, ca2 := buildPointsApp(t, 10)
	ca2.Spec.Canvases[0].Layers[0].Placement.XCol = "nope"
	if _, err := Materialize(context.Background(), db2, ca2, 0, 0, Options{}); err == nil {
		t.Fatal("missing separable column must fail")
	}
}

func TestTilesNeeded(t *testing.T) {
	tiles := TilesNeeded(geom.RectXYWH(100, 100, 1000, 1000), 256, 8192, 4096)
	if len(tiles) != 25 {
		t.Fatalf("tiles = %d want 25", len(tiles))
	}
}
