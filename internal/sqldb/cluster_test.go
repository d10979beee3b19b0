package sqldb

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kyrix/internal/storage"
)

// The benchmark's density: 1M points on a 131072 × 16384 canvas puts
// about 490 rows in a 1024² window. clusteredPoints keeps that density
// on a canvas sized to n points.
const (
	densityPerUnit2 = 1e6 / (131072.0 * 16384.0)
	windowSide      = 1024.0
)

type testPoint struct {
	id   int64
	x, y float64
}

// clusteredPoints loads n uniform points in id order into pts(id, x, y,
// val, s) at the benchmark's density, builds a BTREE on id (before the
// R-tree, so the clustering rewrite must carry it over) and then the
// R-tree on (x, y, x, y). It returns the inputs and the canvas width;
// the canvas is 16384 high.
func clusteredPoints(tb testing.TB, n int) (*DB, []testPoint, float64) {
	tb.Helper()
	const h = 16384.0
	w := float64(n) / densityPerUnit2 / h
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x DOUBLE, y DOUBLE, val DOUBLE, s TEXT)"); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pts := make([]testPoint, n)
	rows := make([]storage.Row, 0, 4096)
	for i := range pts {
		pts[i] = testPoint{id: int64(i), x: rng.Float64() * w, y: rng.Float64() * h}
		rows = append(rows, storage.Row{storage.I64(pts[i].id), storage.F64(pts[i].x),
			storage.F64(pts[i].y), storage.F64(float64(i)), storage.Str("")})
		if len(rows) == cap(rows) || i == n-1 {
			if err := db.InsertRows("pts", rows); err != nil {
				tb.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	for _, ddl := range []string{
		"CREATE INDEX pts_id ON pts USING BTREE (id)",
		"CREATE INDEX pts_xy ON pts USING RTREE (x, y, x, y)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			tb.Fatal(err)
		}
	}
	return db, pts, w
}

const windowSQL = "SELECT * FROM pts WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?)"

func windowArgs(x, y float64) []storage.Value {
	return []storage.Value{storage.F64(x), storage.F64(y), storage.F64(x + windowSide), storage.F64(y + windowSide)}
}

// sortedIDs returns the id column of rows, sorted.
func sortedIDs(rows []storage.Row) []int64 {
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[0].AsInt()
	}
	slices.Sort(ids)
	return ids
}

// TestRTreeClustersHeap: building a table's first R-tree clusters its
// heap in tree order, so a window's rows share pages (checked through
// DBStats.PagesPinned, which was one pin per row before), every window
// still returns exactly its rows, an index built before the rewrite
// still finds every row, and UPDATE (relocating a row) and DELETE keep
// index and seq scans in agreement.
func TestRTreeClustersHeap(t *testing.T) {
	const n = 200_000
	db, pts, w := clusteredPoints(t, n)
	rng := rand.New(rand.NewSource(11))

	var rows, pins int64
	for q := 0; q < 40; q++ {
		x, y := rng.Float64()*(w-windowSide), rng.Float64()*(16384-windowSide)
		before := db.Stats().PagesPinned
		res := mustQuery(t, db, windowSQL, windowArgs(x, y)...)
		pins += db.Stats().PagesPinned - before
		rows += int64(len(res.Rows))
		var want []int64
		for _, p := range pts {
			if p.x >= x && p.x <= x+windowSide && p.y >= y && p.y <= y+windowSide {
				want = append(want, p.id)
			}
		}
		if got := sortedIDs(res.Rows); !slices.Equal(got, want) {
			t.Fatalf("window (%.0f, %.0f): %d ids, brute force %d", x, y, len(got), len(want))
		}
	}
	perRow := float64(pins) / float64(rows)
	t.Logf("%d rows in 40 windows (%.0f per window), %d pins: %.4f pins/row", rows, float64(rows)/40, pins, perRow)
	if rows < 40*400 {
		t.Fatalf("windows hold %d rows, want the benchmark's density (≈ 490 each)", rows/40)
	}
	if perRow > 0.05 {
		t.Fatalf("%.4f pins per row, want ≤ 0.05: the heap is not clustered on the R-tree", perRow)
	}

	for q := 0; q < 200; q++ {
		p := pts[rng.Intn(n)]
		res := mustQuery(t, db, "SELECT * FROM pts WHERE id = ?", storage.I64(p.id))
		if len(res.Rows) != 1 || res.Rows[0][1].AsFloat() != p.x || res.Rows[0][2].AsFloat() != p.y {
			t.Fatalf("id = %d after clustering: %v", p.id, res.Rows)
		}
	}
	if plan := mustQuery(t, db, "EXPLAIN SELECT * FROM pts WHERE id = 1").Rows[0][0].S; !strings.Contains(plan, "BTree Eq Scan") {
		t.Fatalf("id lookup plan: %s", plan)
	}

	// agree checks the window around p through the R-tree and through a
	// seq scan (range predicates on DOUBLE columns use no index).
	agree := func(p testPoint, what string) {
		t.Helper()
		x, y := p.x-windowSide/2, p.y-windowSide/2
		idx := mustQuery(t, db, windowSQL, windowArgs(x, y)...)
		seq := mustQuery(t, db, "SELECT * FROM pts WHERE x >= ? AND x <= ? AND y >= ? AND y <= ?",
			storage.F64(x), storage.F64(x+windowSide), storage.F64(y), storage.F64(y+windowSide))
		if plan := mustQuery(t, db, "EXPLAIN SELECT * FROM pts WHERE x >= 1 AND x <= 2").Rows[0][0].S; !strings.Contains(plan, "Seq Scan") {
			t.Fatalf("reference query is not a seq scan: %s", plan)
		}
		a, b := sortedIDs(idx.Rows), sortedIDs(seq.Rows)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: index scan %d rows, seq scan %d", what, len(a), len(b))
		}
	}

	// A clustered page is full, so growing a row moves it to a new RID.
	moved := pts[rng.Intn(n)]
	ix := mustTable(t, db, "pts").indexes["pts_id"]
	ridOf := func(id int64) (rid uint64) {
		ix.bt.Lookup(id, func(v uint64) bool { rid = v; return false })
		return rid
	}
	oldRID := ridOf(moved.id)
	long := strings.Repeat("m", 2000)
	mustExec(t, db, "UPDATE pts SET s = ? WHERE id = ?", storage.Str(long), storage.I64(moved.id))
	if ridOf(moved.id) == oldRID {
		t.Fatal("the UPDATE did not relocate the row; the test needs a page without room")
	}
	res := mustQuery(t, db, "SELECT s FROM pts WHERE id = ?", storage.I64(moved.id))
	if len(res.Rows) != 1 || res.Rows[0][0].S != long {
		t.Fatalf("relocated row: %v", res.Rows)
	}
	agree(moved, "after UPDATE")

	gone := pts[rng.Intn(n)]
	if mustExec(t, db, "DELETE FROM pts WHERE id = ?", storage.I64(gone.id)) != 1 {
		t.Fatal("DELETE missed its row")
	}
	agree(gone, "after DELETE")
	if res := mustQuery(t, db, "SELECT COUNT(*) FROM pts"); res.Rows[0][0].AsInt() != n-1 {
		t.Fatalf("COUNT(*) = %v after one DELETE", res.Rows[0][0])
	}
}

func mustTable(t *testing.T, db *DB, name string) *Table {
	t.Helper()
	tbl, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestFailedUpdateKeepsRow: an UPDATE whose new image fits no page
// fails and leaves the row, and its index entries, as they were.
func TestFailedUpdateKeepsRow(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a')")
	mustExec(t, db, "CREATE INDEX t_id ON t USING BTREE (id)")
	if _, err := db.Exec("UPDATE t SET s = ? WHERE id = 1", storage.Str(strings.Repeat("x", 9000))); err == nil {
		t.Fatal("UPDATE to a 9000-byte tuple succeeded")
	}
	for _, sql := range []string{"SELECT * FROM t", "SELECT * FROM t WHERE id = 1"} {
		res := mustQuery(t, db, sql)
		if len(res.Rows) != 1 || res.Rows[0][1].S != "a" {
			t.Fatalf("%s after the failed UPDATE: %v", sql, res.Rows)
		}
	}
}

// BenchmarkWindowQuery runs 1024² windows over 200k id-ordered points
// at the benchmark's density (≈ 490 rows each) on a table clustered on
// its R-tree, reporting the cost and the heap pins per returned row.
func BenchmarkWindowQuery(b *testing.B) {
	db, _, w := clusteredPoints(b, 200_000)
	st, err := Parse(windowSQL)
	if err != nil {
		b.Fatal(err)
	}
	sel := st.(*SelectStmt)
	rng := rand.New(rand.NewSource(3))
	windows := make([][]storage.Value, 256)
	for i := range windows {
		windows[i] = windowArgs(rng.Float64()*(w-windowSide), rng.Float64()*(16384-windowSide))
	}
	before := db.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SelectInto(sel, windows[i%len(windows)], func(storage.Row, []byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := db.Stats()
	rows := float64(after.RowsOut - before.RowsOut)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.PagesPinned-before.PagesPinned)/rows, "pins/row")
}
