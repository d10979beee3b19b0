package fetch

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"kyrix/internal/geom"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
)

// Auto-LOD aggregation pyramid (the Kyrix-S direction): a layer
// declaring "lod": "auto" gets per-zoom-level materialized tables of
// grid-cell aggregates — count, a sum, the cell's canvas extent, and
// one representative raw row per cell — each indexed by an R-tree over
// the extent columns. A window query routed to the level whose cell
// size matches the window's zoom scans at most ~RowBudget cells, so
// zoomed-out viewports stop touching O(dataset) rows.

// lodAggColumns are the aggregate columns appended AFTER the layer's
// base schema in every level table. Appending (never prepending or
// renaming) keeps the base schema's positional contracts intact: the id
// stays row[0], the separable x/y columns keep their indexes, and a
// frontend decoding the self-describing payload needs no changes.
var lodAggColumns = []storage.Column{
	{Name: "lod_count", Type: storage.TInt64},
	{Name: "lod_sum", Type: storage.TFloat64},
	{Name: "lod_minx", Type: storage.TFloat64},
	{Name: "lod_miny", Type: storage.TFloat64},
	{Name: "lod_maxx", Type: storage.TFloat64},
	{Name: "lod_maxy", Type: storage.TFloat64},
}

// LODLevel is one materialized pyramid level.
type LODLevel struct {
	// Table is the level's materialized table (base schema + aggregate
	// columns, R-tree indexed on the extent columns).
	Table string
	// Cell is the level's grid cell size in canvas units.
	Cell float64
	// Cells counts the materialized (non-empty) cells.
	Cells int64
}

// LODPyramid describes a layer's aggregation pyramid.
type LODPyramid struct {
	// RowBudget is the bounded-row target: a window query should scan
	// at most about this many rows at any zoom.
	RowBudget int
	// Density is the layer's raw rows per square canvas unit at build
	// time — the level-selection rule's estimate of what a raw query
	// over a window would scan.
	Density float64
	// SumCol names the base column lod_sum aggregates (the first float
	// column that is not a placement coordinate; "" sums nothing).
	SumCol string
	// Levels holds the pyramid finest-first: Levels[i].Cell doubles
	// with i, so higher levels cover the same window with 4x fewer
	// cells.
	Levels []LODLevel
}

// LODLevelFor applies the level-selection rule for one window: raw rows
// (-1) while the density estimate says the window affords them, else
// the finest level whose cell count over the window fits the budget,
// else the coarsest level. The rule depends only on the window and the
// build-time pyramid, so every node of a cluster — and a cache key's
// producer and consumer — resolve the same window to the same level.
func (pl *PhysicalLayer) LODLevelFor(window geom.Rect) int {
	p := pl.LOD
	if p == nil || len(p.Levels) == 0 {
		return -1
	}
	area := window.W() * window.H()
	if area <= 0 || p.Density*area <= float64(p.RowBudget) {
		return -1
	}
	for i, lv := range p.Levels {
		cells := (window.W()/lv.Cell + 1) * (window.H()/lv.Cell + 1)
		if cells <= float64(p.RowBudget) {
			return i
		}
	}
	return len(p.Levels) - 1
}

// LODWindowSQL builds the window query against one pyramid level. The
// extent columns are canvas-space, so the window needs no separable
// translation or radius padding (cell extents already include the
// member rows' rendered extents).
func (pl *PhysicalLayer) LODWindowSQL(level int, window geom.Rect) (string, []storage.Value) {
	lv := pl.LOD.Levels[level]
	sql := fmt.Sprintf(
		"SELECT * FROM %s WHERE INTERSECTS(lod_minx, lod_miny, lod_maxx, lod_maxy, ?, ?, ?, ?)",
		lv.Table)
	args := []storage.Value{
		storage.F64(window.MinX), storage.F64(window.MinY),
		storage.F64(window.MaxX), storage.F64(window.MaxY),
	}
	return sql, args
}

// lodCell is one pyramid cell, keyed by the Morton (Z-order) code of its
// grid column and row at its level. A level is a slice of cells sorted
// by key, and the (up to four) children of a parent cell are the
// adjacent run sharing key>>2. The representative is held by RID: the
// level row is built from its stored tuple bytes.
type lodCell struct {
	key    uint64
	count  int64
	sum    float64
	ext    geom.Rect
	repID  int64
	repRID storage.RID
}

// buildLOD materializes the aggregation pyramid for a separable layer in
// one pass over the raw table's heap:
//
//   - A row counts iff its rendered box (its canvas point padded by the
//     layer radius) intersects the canvas, edges inclusive. A counted
//     row whose point lies just outside the canvas joins the nearest
//     edge cell.
//   - Level 0 aggregates the counted rows per cell of side baseCell:
//     count, sum, extent (the union of the rendered boxes) and the
//     member with the smallest id as representative (the first scanned
//     on a tie).
//   - Each coarser level folds the previous one's sorted cells in place,
//     one linear pass over runs of equal key>>2, in key order: counts
//     and sums add, extents union, and the heaviest child's
//     representative represents the parent (ties to the smaller id).
//     Level 0 sums in heap order, so equal heaps build bit-identical
//     pyramids.
//
// Each level row is the representative's stored tuple followed by the
// aggregate columns, appended straight into the level's heap; the
// level's R-tree is built afterwards. Beyond the heap the build holds
// O(non-empty cells), never O(canvas area).
func buildLOD(ctx context.Context, db *sqldb.DB, pl *PhysicalLayer, opts Options) error {
	budget := opts.LODRowBudget
	if budget <= 0 {
		budget = 4096
	}
	baseCell := opts.LODBaseCell
	if baseCell <= 0 {
		baseCell = 64
	}
	for _, col := range pl.Schema {
		if strings.HasPrefix(col.Name, "lod_") {
			return fmt.Errorf("fetch: auto-LOD layer %s: base column %q collides with the lod_ aggregate namespace", pl.Table, col.Name)
		}
	}
	t, err := db.Table(pl.Table)
	if err != nil {
		return err
	}
	n := t.RowCount()
	if n == 0 {
		return nil // nothing to aggregate; raw queries are already free
	}

	// Plan the levels: cell size doubles per level until a full-canvas
	// window fits the budget, so zooming all the way out still scans a
	// bounded cell count.
	gridCells := func(cell float64) float64 {
		return math.Ceil(pl.CanvasW/cell) * math.Ceil(pl.CanvasH/cell)
	}
	var cells []float64
	for c := baseCell; len(cells) == 0 || gridCells(cells[len(cells)-1]) > float64(budget); c *= 2 {
		cells = append(cells, c)
		if len(cells) >= 24 {
			break // defensive cap; 64 * 2^24 out-sizes any real canvas
		}
	}

	p := &LODPyramid{
		RowBudget: budget,
		Density:   float64(n) / (pl.CanvasW * pl.CanvasH),
	}
	tables := make([]string, len(cells))
	for li := range cells {
		tables[li] = fmt.Sprintf("lod_%s_%s_%d_%d", sanitize(pl.App), sanitize(pl.CanvasID), pl.LayerIdx, li)
		if err := createLODTable(db, tables[li], pl.Schema); err != nil {
			return err
		}
	}
	// The raw table's read lock is held from the scan to the last level
	// row, so every representative RID stays valid.
	err = db.ViewHeap(pl.Table, func(h *storage.HeapFile) error {
		level, sumCol, err := lodLevel0(ctx, h, pl, cells[0])
		if err != nil {
			return err
		}
		p.SumCol = sumCol
		src := h.Cursor()
		defer src.Close()
		for li := range cells {
			if li > 0 {
				level = foldLODLevel(level)
			}
			if err := writeLODLevel(ctx, db, tables[li], &src, level); err != nil {
				return err
			}
			p.Levels = append(p.Levels, LODLevel{Table: tables[li], Cell: cells[li], Cells: int64(len(level))})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, table := range tables {
		if _, err := db.Exec(fmt.Sprintf(
			"CREATE INDEX kyrix_%s_ext ON %s USING RTREE (lod_minx, lod_miny, lod_maxx, lod_maxy)",
			sanitize(table), table)); err != nil {
			return err
		}
	}
	pl.LOD = p
	return nil
}

// lodLevel0 scans h once, decoding each tuple into one reused row, and
// returns the level-0 cells sorted by key, with the name of the column
// lod_sum aggregates (the first float column that is not a placement
// coordinate; "" sums nothing).
func lodLevel0(ctx context.Context, h *storage.HeapFile, pl *PhysicalLayer, cell float64) ([]lodCell, string, error) {
	schema := h.Schema()
	xi := schema.ColIndex(pl.XCol)
	yi := schema.ColIndex(pl.YCol)
	idIdx := schema.ColIndex(pl.IDCol)
	if xi < 0 || yi < 0 || idIdx < 0 {
		return nil, "", fmt.Errorf("fetch: auto-LOD layer %s: placement/id columns missing", pl.Table)
	}
	sumIdx, sumCol := -1, ""
	for i, col := range schema {
		if col.Type == storage.TFloat64 && col.Name != pl.XCol && col.Name != pl.YCol {
			sumIdx, sumCol = i, col.Name
			break
		}
	}
	cols := math.Ceil(pl.CanvasW / cell)
	rows := math.Ceil(pl.CanvasH / cell)
	if cols > 1<<32 || rows > 1<<32 {
		return nil, "", fmt.Errorf("fetch: auto-LOD layer %s: %gx%g base cells exceed the 2^32 grid", pl.Table, cols, rows)
	}
	maxCol, maxRow := int(cols)-1, int(rows)-1
	canvas := pl.CanvasRect()

	var level []lodCell
	var at cellIndex // key -> position in level
	row := make(storage.Row, len(schema))
	scanned := 0
	err := h.ScanTuples(func(rid storage.RID, tuple []byte) error {
		if scanned++; scanned%1024 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := storage.DecodeRowInto(tuple, schema, row); err != nil {
			return err
		}
		cx := row[xi].AsFloat() * pl.XScale
		cy := row[yi].AsFloat() * pl.YScale
		box := geom.RectAround(geom.Point{X: cx, Y: cy}, pl.Radius)
		if !canvas.Intersects(box) {
			return nil
		}
		key := morton(uint32(clampInt(int(cx/cell), 0, maxCol)), uint32(clampInt(int(cy/cell), 0, maxRow)))
		id := row[idIdx].AsInt()
		i, fresh := at.find(key, len(level))
		if fresh {
			if len(level) == cap(level) {
				// Double: append grows a large slice by 1.25x, which
				// allocates several times the final level in all.
				level = slices.Grow(level, len(level)+1)
			}
			level = append(level, lodCell{key: key, ext: box, repID: id, repRID: rid})
		}
		c := &level[i]
		c.count++
		c.sum += weightOf(row, sumIdx)
		c.ext = c.ext.Union(box)
		if id < c.repID {
			c.repID, c.repRID = id, rid
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return sortCells(level), sumCol, nil
}

// sortCells sorts cells by key: a least-significant-digit radix sort
// over the key bytes that vary, alternating with one scratch slice. A
// byte-wide pass is a few ms over 10^5..10^6 cells, well under a
// comparison sort of the 80-byte cells.
func sortCells(cells []lodCell) []lodCell {
	var used uint64
	for i := range cells {
		used |= cells[i].key
	}
	src, dst := cells, make([]lodCell, len(cells))
	for shift := 0; shift < 64 && used>>shift != 0; shift += 8 {
		var at [256]int
		for i := range src {
			at[byte(src[i].key>>shift)]++
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for i := range src {
			d := byte(src[i].key >> shift)
			dst[at[d]] = src[i]
			at[d]++
		}
		src, dst = dst, src
	}
	return src
}

// cellIndex maps level-0 cell keys to positions in the level slice:
// open addressing with linear probing over one slice kept at most half
// full. The scan does one probe sequence per row, where a Go map would
// take a lookup and then, for a new cell, an insert.
type cellIndex struct {
	slots []cellSlot
	shift uint // a key's home slot is the top 64-shift bits of its hash
	n     int
}

type cellSlot struct {
	key uint64
	at  int // position + 1; 0 marks an empty slot
}

// find returns key's position, or records next as its position and
// reports true.
func (ix *cellIndex) find(key uint64, next int) (int, bool) {
	if 2*(ix.n+1) > len(ix.slots) {
		ix.grow()
	}
	mask := uint64(len(ix.slots) - 1)
	for s := (key * 0x9E3779B97F4A7C15) >> ix.shift; ; s = (s + 1) & mask {
		switch sl := &ix.slots[s]; {
		case sl.at == 0:
			sl.key, sl.at = key, next+1
			ix.n++
			return next, true
		case sl.key == key:
			return sl.at - 1, false
		}
	}
}

func (ix *cellIndex) grow() {
	old := ix.slots
	if ix.shift == 0 {
		ix.shift = 64 - 10 // 1024 slots
	} else {
		ix.shift--
	}
	ix.slots, ix.n = make([]cellSlot, 1<<(64-ix.shift)), 0
	for _, sl := range old {
		if sl.at != 0 {
			ix.find(sl.key, sl.at-1)
		}
	}
}

// foldLODLevel turns a level's sorted cells into the next coarser
// level's, in place and still sorted: each run of cells sharing key>>2
// becomes one parent.
func foldLODLevel(level []lodCell) []lodCell {
	out := level[:0]
	for i := 0; i < len(level); {
		p := level[i]
		p.key >>= 2
		best := p.count // the heaviest child so far, not the running total
		j := i + 1
		for ; j < len(level) && level[j].key>>2 == p.key; j++ {
			c := &level[j]
			if c.count > best || (c.count == best && c.repID < p.repID) {
				best, p.repID, p.repRID = c.count, c.repID, c.repRID
			}
			p.count += c.count
			p.sum += c.sum
			p.ext = p.ext.Union(c.ext)
		}
		out = append(out, p) // len(out) <= i < j: no unread cell is overwritten
		i = j
	}
	return out
}

// writeLODLevel appends one row per cell to table: the representative's
// tuple bytes, read through src, then the aggregate columns encoded
// into the same reused buffer.
func writeLODLevel(ctx context.Context, db *sqldb.DB, table string, src *storage.Cursor, level []lodCell) error {
	agg := make(storage.Row, len(lodAggColumns))
	var buf []byte
	return db.AppendTuples(table, func(put func([]byte) error) error {
		for i := range level {
			if i%1024 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			c := &level[i]
			rep, err := src.Tuple(c.repRID)
			if err != nil {
				return err
			}
			agg[0], agg[1] = storage.I64(c.count), storage.F64(c.sum)
			agg[2], agg[3] = storage.F64(c.ext.MinX), storage.F64(c.ext.MinY)
			agg[4], agg[5] = storage.F64(c.ext.MaxX), storage.F64(c.ext.MaxY)
			if buf, err = storage.EncodeRow(append(buf[:0], rep...), lodAggColumns, agg); err != nil {
				return err
			}
			if err := put(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// morton interleaves col's bits into the even positions of the key and
// row's into the odd ones, so key>>2 is the key of the parent cell.
func morton(col, row uint32) uint64 { return spreadBits(col) | spreadBits(row)<<1 }

func spreadBits(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

func weightOf(row storage.Row, sumIdx int) float64 {
	if sumIdx < 0 {
		return 0
	}
	return row[sumIdx].AsFloat()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func createLODTable(db *sqldb.DB, table string, base storage.Schema) error {
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE TABLE %s (", table)
	for i, col := range base {
		if i > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "%s %s", col.Name, col.Type)
	}
	for _, col := range lodAggColumns {
		fmt.Fprintf(&ddl, ", %s %s", col.Name, col.Type)
	}
	ddl.WriteString(")")
	_, err := db.Exec(ddl.String())
	return err
}
