package sqldb

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"kyrix/internal/storage"
)

// dump returns every row of a table as sorted strings — the state two
// databases are compared by.
func dump(t *testing.T, db *DB, table string) []string {
	t.Helper()
	var out []string
	if err := db.ScanTable(table, func(row storage.Row) bool {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomTwins builds the same random table twice: once with a random
// subset of BTREE/RTREE indexes (all of them on trial 0; built over
// the loaded table on even trials, maintained by the inserts on odd
// ones), once with none.
func randomTwins(t *testing.T, trial int) (rng *rand.Rand, indexed, plain *DB, kinds []string, n int) {
	const ddl = "CREATE TABLE t (id INT, grp INT, x DOUBLE, y DOUBLE, tag TEXT)"
	rng = rand.New(rand.NewSource(int64(100 + trial)))
	indexed, plain = NewDB(), NewDB()
	mustExec(t, indexed, ddl)
	mustExec(t, plain, ddl)
	for _, ix := range []string{
		"CREATE INDEX t_id ON t USING BTREE (id)",
		"CREATE INDEX t_id2 ON t USING BTREE (id)",
		"CREATE INDEX t_grp ON t USING BTREE (grp)",
		"CREATE INDEX t_grp_b ON t USING BTREE (grp)",
		"CREATE INDEX t_xy ON t USING RTREE (x, y, x, y)",
	} {
		if rng.Intn(2) == 0 || trial == 0 { // trial 0: all of them
			kinds = append(kinds, ix)
		}
	}
	// Half the trials index a loaded table (bulk load), half an empty
	// one (incremental inserts).
	before := trial%2 == 0
	if !before {
		for _, ix := range kinds {
			mustExec(t, indexed, ix)
		}
	}
	n = 300 + rng.Intn(300)
	for i := 0; i < n; i++ {
		row := storage.Row{
			storage.I64(int64(i)), storage.I64(int64(rng.Intn(12))),
			storage.F64(rng.Float64() * 1000), storage.F64(rng.Float64() * 1000), storage.Str("t"),
		}
		for _, db := range []*DB{indexed, plain} {
			if err := db.InsertRow("t", append(storage.Row(nil), row...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if before {
		for _, ix := range kinds {
			mustExec(t, indexed, ix)
		}
	}
	return rng, indexed, plain, kinds, n
}

// TestIndexedDMLMatchesSeqScan is the differential plan test: a table
// with a random subset of BTREE/RTREE indexes and an unindexed twin
// take the same random statements — point, range and INTERSECTS
// predicates; updates that change the indexed column itself or grow a
// row until it relocates to a new RID — and must report the same affected
// counts and hold the same rows after every one. The twin can only scan
// sequentially, so it is the forced-seq-scan oracle; probing SELECTs
// through the indexes afterwards catch an index left pointing at a stale
// RID or key.
func TestIndexedDMLMatchesSeqScan(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng, indexed, plain, kinds, n := randomTwins(t, trial)

		nextID := int64(n)
		for step := 0; step < 120; step++ {
			id := storage.I64(int64(rng.Intn(n + 50)))
			lo := int64(rng.Intn(n))
			span := storage.I64(lo + int64(rng.Intn(20)))
			wx, wy := rng.Float64()*900, rng.Float64()*900
			win := []storage.Value{storage.F64(wx), storage.F64(wy), storage.F64(wx + 80), storage.F64(wy + 80)}
			var sql string
			var args []storage.Value
			switch rng.Intn(11) {
			case 0:
				sql, args = "UPDATE t SET x = x + 1 WHERE id = ?", []storage.Value{id}
			case 1: // the indexed column itself
				sql, args = "UPDATE t SET id = id + 1000 WHERE id = ?", []storage.Value{id}
			case 2: // many rows onto one key
				sql, args = "UPDATE t SET id = ? WHERE id >= ? AND id <= ?", []storage.Value{id, storage.I64(lo), span}
			case 3: // the row outgrows its page slot: delete + reinsert at a new RID
				sql, args = "UPDATE t SET tag = ? WHERE id = ?", []storage.Value{storage.Str(strings.Repeat("g", 200+rng.Intn(3000))), id}
			case 4:
				sql, args = "UPDATE t SET grp = grp + 1, tag = ? WHERE grp = ?", []storage.Value{storage.Str(strings.Repeat("w", rng.Intn(600))), storage.I64(int64(rng.Intn(12)))}
			case 5: // moves rows under the spatial index
				sql, args = "UPDATE t SET x = x + 50, y = y - 50 WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?)", win
			case 6:
				sql, args = "DELETE FROM t WHERE id = ?", []storage.Value{id}
			case 7:
				sql, args = "DELETE FROM t WHERE id BETWEEN ? AND ?", []storage.Value{storage.I64(lo), span}
			case 8:
				sql, args = "DELETE FROM t WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?) AND grp < 6", win
			case 9:
				sql, args = "UPDATE t SET y = y + 1 WHERE id > ? AND grp = ?", []storage.Value{storage.I64(lo), storage.I64(int64(rng.Intn(12)))}
			default:
				sql = "INSERT INTO t VALUES (?, ?, ?, ?, 'new')"
				args = []storage.Value{storage.I64(nextID), storage.I64(int64(rng.Intn(12))), storage.F64(rng.Float64() * 1000), storage.F64(rng.Float64() * 1000)}
				nextID++
			}
			na, erra := indexed.Exec(sql, args...)
			nb, errb := plain.Exec(sql, args...)
			if (erra != nil) != (errb != nil) || na != nb {
				t.Fatalf("trial %d step %d %q %v: indexed (%d, %v) vs seq scan (%d, %v) [indexes %v]", trial, step, sql, args, na, erra, nb, errb, kinds)
			}
			if !sameRows(dump(t, indexed, "t"), dump(t, plain, "t")) {
				t.Fatalf("trial %d step %d %q %v: tables diverged [indexes %v]", trial, step, sql, args, kinds)
			}
		}
		// The indexes still answer like a scan.
		for probe := 0; probe < 40; probe++ {
			id := storage.I64(int64(rng.Intn(n + 1100)))
			wx, wy := rng.Float64()*900, rng.Float64()*900
			for _, q := range []struct {
				sql  string
				args []storage.Value
			}{
				{"SELECT * FROM t WHERE id = ?", []storage.Value{id}},
				{"SELECT * FROM t WHERE id >= ? AND id < ?", []storage.Value{id, storage.I64(id.I + 30)}},
				{"SELECT * FROM t WHERE grp = ?", []storage.Value{storage.I64(int64(probe % 13))}},
				{"SELECT * FROM t WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?)", []storage.Value{storage.F64(wx), storage.F64(wy), storage.F64(wx + 120), storage.F64(wy + 120)}},
			} {
				ra, rb := mustQuery(t, indexed, q.sql, q.args...), mustQuery(t, plain, q.sql, q.args...)
				if len(ra.Rows) != len(rb.Rows) {
					t.Fatalf("trial %d probe %q %v: %d rows through the index, %d by scan [indexes %v]", trial, q.sql, q.args, len(ra.Rows), len(rb.Rows), kinds)
				}
			}
		}
	}
}

// TestExecChanges: the row images ExecChanges reports are what the
// statement did — per kind of statement, past the limit, and when the
// statement fails part-way with the earlier rows already changed.
func TestExecChanges(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE p (id INT, x DOUBLE, val DOUBLE)")
	n, ch, err := db.ExecChanges(10, "INSERT INTO p VALUES (1, 1, 0), (2, 2, 0), (3, 3, 0), (4, 4, 0), (5, 5, 0)")
	if err != nil || n != 5 || ch.Table != "p" || len(ch.Rows) != 5 || ch.Rows[2].Old != nil || ch.Rows[2].New[0].AsInt() != 3 {
		t.Fatalf("INSERT: n=%d err=%v changes=%+v", n, err, ch)
	}
	n, ch, err = db.ExecChanges(10, "UPDATE p SET val = x * 10 WHERE id >= 4")
	if err != nil || n != 2 || len(ch.Rows) != 2 {
		t.Fatalf("UPDATE: n=%d err=%v changes=%+v", n, err, ch)
	}
	for _, rc := range ch.Rows {
		if rc.Old[2].AsFloat() != 0 || rc.New[2].AsFloat() != rc.New[1].AsFloat()*10 || rc.Old[0] != rc.New[0] {
			t.Fatalf("UPDATE image pair %v -> %v", rc.Old, rc.New)
		}
	}
	n, ch, err = db.ExecChanges(10, "DELETE FROM p WHERE id = 5")
	if err != nil || n != 1 || len(ch.Rows) != 1 || ch.Rows[0].New != nil || ch.Rows[0].Old[2].AsFloat() != 50 {
		t.Fatalf("DELETE: n=%d err=%v changes=%+v", n, err, ch)
	}
	if _, ch, err = db.ExecChanges(10, "UPDATE p SET val = 1 WHERE id = 99"); err != nil || ch.Touched() {
		t.Fatalf("no-match UPDATE: err=%v changes=%+v", err, ch)
	}
	if _, ch, err = db.ExecChanges(2, "UPDATE p SET val = 7"); err != nil || !ch.Truncated || ch.Rows != nil || !ch.Touched() {
		t.Fatalf("past the limit: err=%v changes=%+v", err, ch)
	}
	if _, ch, err = db.ExecChanges(10, "CREATE INDEX p_id ON p USING BTREE (id)"); err != nil || !ch.DDL || ch.Table != "p" {
		t.Fatalf("DDL: err=%v changes=%+v", err, ch)
	}
	if _, ch, err = db.ExecChanges(10, "UPDATE nope SET val = 1"); err == nil || ch.Touched() {
		t.Fatalf("unknown table: err=%v changes=%+v", err, ch)
	}

	// Fails evaluating the third matching row (x = 3): rows 1 and 2 are
	// already rewritten, stay rewritten, and are reported.
	n, ch, err = db.ExecChanges(10, "UPDATE p SET val = 1 / (x - ?) WHERE id <= 4", storage.F64(3))
	if err == nil || n != 0 {
		t.Fatalf("division by zero on the third row: n=%d err=%v", n, err)
	}
	if len(ch.Rows) != 2 || ch.Rows[0].New[0].AsInt() != 1 || ch.Rows[1].New[0].AsInt() != 2 || !ch.Touched() {
		t.Fatalf("partial UPDATE reported %+v", ch.Rows)
	}
	res := mustQuery(t, db, "SELECT id, val FROM p ORDER BY id")
	got := fmt.Sprint(res.Rows)
	if want := "[[1 -0.5] [2 -1] [3 7] [4 7]]"; got != want {
		t.Fatalf("table after the failed statement: %s, want %s", got, want)
	}
}

// TestIDIndexFootprint reports what the id index — the one structure an
// update-serving node holds that a read-only one does not — costs per
// row, building included: the sorted pair array is the only copy made.
func TestIDIndexFootprint(t *testing.T) {
	const n = 200_000
	db := NewDB()
	mustExec(t, db, "CREATE TABLE p (id INT, x DOUBLE, y DOUBLE, val DOUBLE)")
	for i := 0; i < n; i++ {
		if err := db.InsertRow("p", storage.Row{storage.I64(int64(i)), storage.F64(1), storage.F64(2), storage.F64(3)}); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() (live, total uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.TotalAlloc
	}
	live0, total0 := heap()
	mustExec(t, db, "CREATE INDEX p_id ON p USING BTREE (id)")
	live1, total1 := heap()
	resident := float64(live1-live0) / n
	// Everything allocated while building, garbage included; the heap
	// scan decodes rows into one reused buffer, so this is the index.
	allocated := float64(total1-total0) / n
	t.Logf("id index over %d rows: %.1f B/row resident, %.1f B/row allocated while building", n, resident, allocated)
	if resident > 20 || allocated > 24 {
		t.Fatalf("id index costs %.1f B/row resident, %.1f B/row allocated; want ≈16 with no second copy", resident, allocated)
	}
	res := mustQuery(t, db, "EXPLAIN SELECT * FROM p WHERE id = 7")
	if !strings.Contains(res.Rows[0][0].S, "BTree Eq Scan") {
		t.Fatalf("plan: %v", res.Rows)
	}
}
