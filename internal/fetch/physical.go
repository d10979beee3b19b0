package fetch

import (
	"context"
	"fmt"
	"strings"

	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
)

// PhysicalLayer describes how one canvas layer is stored in the DBMS:
// which table holds its objects, how bounding boxes are derived, and
// which auxiliary structures (spatial index, tuple–tile mapping tables)
// exist. It is the output of the backend's precomputation phase
// ("based on the developer specification, the backend server then
// builds indexes and performs necessary precomputation").
type PhysicalLayer struct {
	App      string
	CanvasID string
	LayerIdx int

	// Table is the data table: the base table for separable layers,
	// or the materialized layer table otherwise.
	Table string
	// IDCol is the unique integer id column used in mapping joins.
	IDCol string
	// Schema is the data table's full schema.
	Schema storage.Schema

	// Separable placement parameters (§3.2): canvas position =
	// (XCol*XScale, YCol*YScale), objects rendered with half-extent
	// Radius. For non-separable layers the materialized table carries
	// explicit bbox columns instead.
	Separable      bool
	XCol, YCol     string
	XScale, YScale float64
	Radius         float64

	// BBoxCols name the bbox columns (materialized layers) or the
	// degenerate point-box columns (separable layers).
	BBoxCols [4]string

	// TileMaps maps tile size to the (tile_id, tuple_id) mapping table
	// name, when the tuple–tile design was precomputed.
	TileMaps map[float64]string

	// LOD is the layer's auto-LOD aggregation pyramid; nil when the
	// layer serves raw rows at every zoom.
	LOD *LODPyramid

	CanvasW, CanvasH float64
	Static           bool
}

// Options configures precomputation.
type Options struct {
	// BuildSpatial builds the bbox R-tree (database design 2, §3.1).
	BuildSpatial bool
	// TileSizes lists the tile sizes to precompute tuple–tile mapping
	// tables for (database design 1, §3.1). Each table's tile_id column
	// gets a B-tree, as in the paper's experiments.
	TileSizes []float64

	// LODRowBudget bounds the rows a window query against an auto-LOD
	// layer should scan at any zoom (0 = 4096).
	LODRowBudget int
}

// CanvasRect returns the layer's canvas extent.
func (pl *PhysicalLayer) CanvasRect() geom.Rect {
	return geom.Rect{MinX: 0, MinY: 0, MaxX: pl.CanvasW, MaxY: pl.CanvasH}
}

// RowBox computes the canvas-space bounding box of one data row.
func (pl *PhysicalLayer) RowBox(row storage.Row) (geom.Rect, error) {
	if pl.Separable {
		xi := pl.Schema.ColIndex(pl.XCol)
		yi := pl.Schema.ColIndex(pl.YCol)
		if xi < 0 || yi < 0 {
			return geom.Rect{}, fmt.Errorf("fetch: separable columns %q/%q missing", pl.XCol, pl.YCol)
		}
		p := geom.Point{X: row[xi].AsFloat() * pl.XScale, Y: row[yi].AsFloat() * pl.YScale}
		return geom.RectAround(p, pl.Radius), nil
	}
	var f [4]float64
	for i, col := range pl.BBoxCols {
		ci := pl.Schema.ColIndex(col)
		if ci < 0 {
			return geom.Rect{}, fmt.Errorf("fetch: bbox column %q missing", col)
		}
		f[i] = row[ci].AsFloat()
	}
	return geom.Rect{MinX: f[0], MinY: f[1], MaxX: f[2], MaxY: f[3]}, nil
}

// WindowSQL builds the spatial-design query answering "all objects
// whose canvas bbox intersects window", with its arguments. For
// separable layers the window is translated into raw-attribute space
// (divide by scale, pad by radius) so the base table's point index
// answers it without precomputation — the §3.2 separability
// optimization.
func (pl *PhysicalLayer) WindowSQL(window geom.Rect) (string, []storage.Value) {
	var w geom.Rect
	if pl.Separable {
		w = geom.Rect{
			MinX: (window.MinX - pl.Radius) / pl.XScale,
			MinY: (window.MinY - pl.Radius) / pl.YScale,
			MaxX: (window.MaxX + pl.Radius) / pl.XScale,
			MaxY: (window.MaxY + pl.Radius) / pl.YScale,
		}
	} else {
		w = window
	}
	sql := fmt.Sprintf(
		"SELECT * FROM %s WHERE INTERSECTS(%s, %s, %s, %s, ?, ?, ?, ?)",
		pl.Table, pl.BBoxCols[0], pl.BBoxCols[1], pl.BBoxCols[2], pl.BBoxCols[3])
	args := []storage.Value{
		storage.F64(w.MinX), storage.F64(w.MinY), storage.F64(w.MaxX), storage.F64(w.MaxY),
	}
	return sql, args
}

// TileSQLSpatial answers a tile request with the spatial design: a
// window query over the tile's rectangle.
func (pl *PhysicalLayer) TileSQLSpatial(id geom.TileID, size float64) (string, []storage.Value) {
	return pl.WindowSQL(id.TileRect(size))
}

// TileSQLMapping answers a tile request with the tuple–tile design:
// "tile queries are answered by joining these two tables on the
// tuple_id column".
func (pl *PhysicalLayer) TileSQLMapping(id geom.TileID, size float64) (string, []storage.Value, error) {
	mt, ok := pl.TileMaps[size]
	if !ok {
		return "", nil, fmt.Errorf("fetch: no tile mapping table for size %g on %s", size, pl.Table)
	}
	cols := geom.TileCols(pl.CanvasW, size)
	sql := fmt.Sprintf(
		"SELECT r.* FROM %s m JOIN %s r ON m.tuple_id = r.%s WHERE m.tile_id = ?",
		mt, pl.Table, pl.IDCol)
	return sql, []storage.Value{storage.I64(id.TileKey(cols))}, nil
}

// Materialize performs the backend precomputation for one layer of a
// compiled app: for non-separable layers it executes the transform
// query, applies the transform and placement functions, and stores the
// result in a materialized table with bbox columns; for separable
// layers it reuses the base table. It then builds the requested
// indexes and mapping tables, and — for layers declaring "lod": "auto"
// — the aggregation pyramid. Cancelling ctx aborts the build between
// row batches; server precompute cancels it when a sibling layer's
// build fails so doomed work stops early.
func Materialize(ctx context.Context, db *sqldb.DB, ca *spec.CompiledApp, canvasIdx, layerIdx int, opts Options) (*PhysicalLayer, error) {
	app := ca.Spec
	c := app.Canvases[canvasIdx]
	l := c.Layers[layerIdx]
	tr, ok := c.Transform(l.TransformID)
	if !ok {
		return nil, fmt.Errorf("fetch: layer references unknown transform %q", l.TransformID)
	}
	pl := &PhysicalLayer{
		App:      app.Name,
		CanvasID: c.ID,
		LayerIdx: layerIdx,
		CanvasW:  c.W,
		CanvasH:  c.H,
		Static:   l.Static,
		TileMaps: map[float64]string{},
	}
	if tr.Query == "" {
		// Static data-less layer (legend): nothing to precompute.
		pl.Static = true
		return pl, nil
	}

	if l.Placement.Separable() {
		return materializeSeparable(ctx, db, ca, pl, tr, l, opts)
	}
	if l.LOD == "auto" {
		// The compiler rejects this; recheck for hand-built specs.
		return nil, fmt.Errorf("fetch: lod \"auto\" requires a separable placement")
	}
	return materializeFunctional(ctx, db, ca, canvasIdx, layerIdx, pl, tr, opts)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
}

// materializeSeparable skips the copy: it validates the base table,
// ensures a point R-tree on (xCol, yCol) exists, and derives tile
// mappings directly from the base table when requested.
func materializeSeparable(ctx context.Context, db *sqldb.DB, ca *spec.CompiledApp, pl *PhysicalLayer, tr *spec.Transform, l spec.Layer, opts Options) (*PhysicalLayer, error) {
	st, err := sqldb.Parse(tr.Query)
	if err != nil {
		return nil, fmt.Errorf("fetch: layer query: %w", err)
	}
	sel, ok := st.(*sqldb.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("fetch: layer query must be a SELECT")
	}
	base, err := db.Table(sel.From.Table)
	if err != nil {
		return nil, err
	}
	p := l.Placement
	pl.Separable = true
	pl.Table = base.Name()
	pl.Schema = base.Schema()
	pl.XCol, pl.YCol = p.XCol, p.YCol
	pl.XScale, pl.YScale = p.XScale, p.YScale
	if pl.XScale == 0 {
		pl.XScale = 1
	}
	if pl.YScale == 0 {
		pl.YScale = 1
	}
	pl.Radius = p.Radius
	pl.IDCol = pl.Schema[0].Name
	pl.BBoxCols = [4]string{p.XCol, p.YCol, p.XCol, p.YCol}
	if pl.Schema.ColIndex(p.XCol) < 0 || pl.Schema.ColIndex(p.YCol) < 0 {
		return nil, fmt.Errorf("fetch: separable columns %q/%q not in table %q", p.XCol, p.YCol, pl.Table)
	}

	if opts.BuildSpatial || l.LOD == "auto" {
		// An auto-LOD layer answers its zoomed-in windows with raw
		// rows through this point R-tree, and the pyramid build scans
		// the heap it clusters, so auto-LOD forces it even when the
		// serving design would not.
		idxName := fmt.Sprintf("kyrix_%s_xy", sanitize(pl.Table))
		sql := fmt.Sprintf("CREATE INDEX %s ON %s USING RTREE (%s, %s, %s, %s)",
			idxName, pl.Table, p.XCol, p.YCol, p.XCol, p.YCol)
		if _, err := db.Exec(sql); ignoreExists(err) != nil {
			return nil, err
		}
	}
	if err := buildTileMaps(ctx, db, pl, opts); err != nil {
		return nil, err
	}
	if l.LOD == "auto" {
		if err := buildLOD(ctx, db, pl, opts); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// materializeFunctional runs the transform query, applies the
// registered transform and placement functions row by row, and stores
// payload + bbox in a fresh table.
func materializeFunctional(ctx context.Context, db *sqldb.DB, ca *spec.CompiledApp, canvasIdx, layerIdx int, pl *PhysicalLayer, tr *spec.Transform, opts Options) (*PhysicalLayer, error) {
	fns := ca.LayerFuncs[canvasIdx][layerIdx]
	if fns.Placement == nil {
		return nil, fmt.Errorf("fetch: non-separable layer needs a placement function")
	}
	res, err := db.Query(tr.Query)
	if err != nil {
		return nil, fmt.Errorf("fetch: layer query: %w", err)
	}
	// Declared output schema + kyrix id + bbox columns.
	schema := storage.Schema{{Name: "kid", Type: storage.TInt64}}
	for _, cs := range tr.Columns {
		ct, err := cs.ColType()
		if err != nil {
			return nil, err
		}
		schema = append(schema, storage.Column{Name: cs.Name, Type: ct})
	}
	for _, b := range [4]string{"kminx", "kminy", "kmaxx", "kmaxy"} {
		schema = append(schema, storage.Column{Name: b, Type: storage.TFloat64})
	}

	table := fmt.Sprintf("layer_%s_%s_%d", sanitize(pl.App), sanitize(pl.CanvasID), layerIdx)
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE TABLE %s (", table)
	for i, col := range schema {
		if i > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "%s %s", col.Name, col.Type)
	}
	ddl.WriteString(")")
	if _, err := db.Exec(ddl.String()); err != nil {
		return nil, err
	}

	canvas := geom.Rect{MinX: 0, MinY: 0, MaxX: pl.CanvasW, MaxY: pl.CanvasH}
	for i, row := range res.Rows {
		if i%1024 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		out := row
		if fns.Transform != nil {
			out = fns.Transform(row)
		}
		if len(out) != len(tr.Columns) {
			return nil, fmt.Errorf("fetch: transform produced %d columns, declared %d", len(out), len(tr.Columns))
		}
		box := fns.Placement(out)
		if !box.Valid() {
			return nil, fmt.Errorf("fetch: placement produced invalid box %s for row %d", box, i)
		}
		if !canvas.Intersects(box) {
			return nil, fmt.Errorf("fetch: placement box %s for row %d misses canvas %s", box, i, canvas)
		}
		full := make(storage.Row, 0, len(schema))
		full = append(full, storage.I64(int64(i)))
		full = append(full, out...)
		full = append(full,
			storage.F64(box.MinX), storage.F64(box.MinY),
			storage.F64(box.MaxX), storage.F64(box.MaxY))
		if err := db.InsertRow(table, full); err != nil {
			return nil, err
		}
	}

	pl.Table = table
	pl.Schema = schema
	pl.IDCol = "kid"
	pl.BBoxCols = [4]string{"kminx", "kminy", "kmaxx", "kmaxy"}

	if _, err := db.Exec(fmt.Sprintf(
		"CREATE INDEX kyrix_%s_kid ON %s USING BTREE (kid)", sanitize(table), table)); err != nil {
		return nil, err
	}
	if opts.BuildSpatial {
		if _, err := db.Exec(fmt.Sprintf(
			"CREATE INDEX kyrix_%s_bbox ON %s USING RTREE (kminx, kminy, kmaxx, kmaxy)",
			sanitize(table), table)); err != nil {
			return nil, err
		}
	}
	if err := buildTileMaps(ctx, db, pl, opts); err != nil {
		return nil, err
	}
	return pl, nil
}

// buildTileMaps precomputes the (tile_id, tuple_id) tables: "Each
// record in this table corresponds to a tuple that overlaps a tile.
// Kyrix backend uses placement functions specified by developers to
// precompute the second table."
func buildTileMaps(ctx context.Context, db *sqldb.DB, pl *PhysicalLayer, opts Options) error {
	if len(opts.TileSizes) == 0 {
		return nil
	}
	idIdx := pl.Schema.ColIndex(pl.IDCol)
	if idIdx < 0 {
		return fmt.Errorf("fetch: id column %q missing", pl.IDCol)
	}
	for _, size := range opts.TileSizes {
		// Mapping tables are per canvas layer, not per base table: the
		// same base table can back layers on differently scaled
		// canvases, whose tile coverage differs.
		mt := fmt.Sprintf("map_%s_%s_%d_tiles_%d",
			sanitize(pl.Table), sanitize(pl.CanvasID), pl.LayerIdx, int(size))
		if _, err := db.Exec(fmt.Sprintf(
			"CREATE TABLE %s (tile_id INT, tuple_id INT)", mt)); err != nil {
			return err
		}
		cols := geom.TileCols(pl.CanvasW, size)
		var scanErr error
		scanned := 0
		err := db.ScanTable(pl.Table, func(row storage.Row) bool {
			if scanned++; scanned%1024 == 0 && ctx.Err() != nil {
				scanErr = ctx.Err()
				return false
			}
			box, err := pl.RowBox(row)
			if err != nil {
				scanErr = err
				return false
			}
			for _, tid := range geom.CoveringTiles(box, size, pl.CanvasW, pl.CanvasH) {
				if err := db.InsertRow(mt, storage.Row{
					storage.I64(tid.TileKey(cols)), storage.I64(row[idIdx].AsInt()),
				}); err != nil {
					scanErr = err
					return false
				}
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return err
		}
		if _, err := db.Exec(fmt.Sprintf(
			"CREATE INDEX kyrix_%s_tid ON %s USING BTREE (tile_id)", sanitize(mt), mt)); err != nil {
			return err
		}
		pl.TileMaps[size] = mt
	}
	// The mapping join also needs the data table indexed on its id.
	_, err := pl.EnsureIDIndex(db)
	return err
}

// EnsureIDIndex gives the layer's data table a B-tree on its id column
// unless a point index on it already exists, reporting whether it built
// one. Two callers need `id = ?` answered without a scan: the mapping
// design's join, at precompute, and the first /update a server sees —
// not server.New, because a deployment that never updates should not
// pay a second pass over the heap, nor hold the index.
func (pl *PhysicalLayer) EnsureIDIndex(db *sqldb.DB) (built bool, err error) {
	t, err := db.Table(pl.Table)
	if err != nil {
		return false, err
	}
	if t.HasPointIndex(pl.IDCol) {
		return false, nil
	}
	sql := fmt.Sprintf("CREATE INDEX kyrix_%s_id ON %s USING BTREE (%s)", sanitize(pl.Table), pl.Table, pl.IDCol)
	if _, err := db.Exec(sql); err != nil {
		// Two layers over one table may race here; the loser's work is done.
		return false, ignoreExists(err)
	}
	return true, nil
}

func ignoreExists(err error) error {
	if err != nil && strings.Contains(err.Error(), "already exists") {
		return nil
	}
	return err
}
