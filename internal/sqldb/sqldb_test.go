package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"kyrix/internal/storage"
)

func mustExec(t *testing.T, db *DB, sql string, args ...storage.Value) int64 {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...storage.Value) *Result {
	t.Helper()
	res, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res
}

// pointsDB builds the paper's record-table shape: id, x, y and a bbox.
func pointsDB(t *testing.T, n int) *DB {
	t.Helper()
	db := NewDB()
	mustExec(t, db, `CREATE TABLE records (
		id INT, x DOUBLE, y DOUBLE,
		minx DOUBLE, miny DOUBLE, maxx DOUBLE, maxy DOUBLE)`)
	for i := 0; i < n; i++ {
		x, y := float64(i%100)*10, float64(i/100)*10
		if err := db.InsertRow("records", storage.Row{
			storage.I64(int64(i)), storage.F64(x), storage.F64(y),
			storage.F64(x - 1), storage.F64(y - 1), storage.F64(x + 1), storage.F64(y + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b DOUBLE, c TEXT, d BOOL)")
	n := mustExec(t, db, "INSERT INTO t VALUES (1, 2.5, 'x', TRUE), (2, 3.5, 'y', FALSE)")
	if n != 2 {
		t.Fatalf("inserted %d", n)
	}
	res := mustQuery(t, db, "SELECT * FROM t")
	if len(res.Rows) != 2 || len(res.Cols) != 4 {
		t.Fatalf("result %dx%d", len(res.Rows), len(res.Cols))
	}
	if res.Cols[0] != "a" || res.Cols[3] != "d" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if res.Rows[0][2].S != "x" || res.Rows[1][3].B {
		t.Fatalf("values wrong: %v", res.Rows)
	}
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err == nil {
		t.Fatal("duplicate table must fail")
	}
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS t (a INT)")
	if _, err := db.Exec("CREATE TABLE u (a INT, a DOUBLE)"); err == nil {
		t.Fatal("duplicate column must fail")
	}
	if _, err := db.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Fatal("insert into missing table must fail")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('str')"); err == nil {
		t.Fatal("type mismatch must fail")
	}
}

func TestDropTable(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Query("SELECT * FROM t"); err == nil {
		t.Fatal("query after drop must fail")
	}
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Fatal("double drop must fail")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS t")
}

func TestWhereOperators(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),(5,'e')")
	cases := []struct {
		where string
		want  int
	}{
		{"a = 3", 1},
		{"a != 3", 4},
		{"a < 3", 2},
		{"a <= 3", 3},
		{"a > 3", 2},
		{"a >= 3", 3},
		{"a BETWEEN 2 AND 4", 3},
		{"NOT a = 3", 4},
		{"a = 1 OR a = 5", 2},
		{"a > 1 AND a < 5", 3},
		{"a + 1 = 3", 1},
		{"a * 2 >= 8", 2},
		{"a - 1 = 0", 1},
		{"a / 2 = 2", 2}, // integer division: a=4 -> 2, a=5 -> 2
		{"s = 'c'", 1},
		{"s != 'c'", 4},
		{"3 < a", 2}, // flipped operand order
		{"TRUE", 5},
		{"FALSE", 0},
	}
	for _, c := range cases {
		res := mustQuery(t, db, "SELECT * FROM t WHERE "+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if _, err := db.Query("SELECT a / 0 FROM t"); err == nil {
		t.Fatal("integer division by zero must fail")
	}
	if _, err := db.Query("SELECT a / 0.0 FROM t"); err == nil {
		t.Fatal("float division by zero must fail")
	}
}

func TestParams(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (?, ?), (?, ?)",
		storage.I64(1), storage.Str("one"), storage.I64(2), storage.Str("two"))
	res := mustQuery(t, db, "SELECT s FROM t WHERE a = ?", storage.I64(2))
	if len(res.Rows) != 1 || res.Rows[0][0].S != "two" {
		t.Fatalf("param query = %v", res.Rows)
	}
	if _, err := db.Query("SELECT * FROM t WHERE a = ?"); err == nil {
		t.Fatal("missing arg must fail")
	}
}

func TestProjectionAliases(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (3, 4)")
	res := mustQuery(t, db, "SELECT a + b AS total, a * b product, a FROM t")
	if res.Cols[0] != "total" || res.Cols[1] != "product" || res.Cols[2] != "a" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if res.Rows[0][0].AsInt() != 7 || res.Rows[0][1].AsInt() != 12 {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestOrderByLimit(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (3,1),(1,2),(2,3),(5,4),(4,5)")
	res := mustQuery(t, db, "SELECT a FROM t ORDER BY a DESC LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("limit: %d rows", len(res.Rows))
	}
	for i, want := range []int64{5, 4, 3} {
		if res.Rows[i][0].AsInt() != want {
			t.Fatalf("order desc: %v", res.Rows)
		}
	}
	res = mustQuery(t, db, "SELECT a FROM t ORDER BY a")
	if res.Rows[0][0].AsInt() != 1 || res.Rows[4][0].AsInt() != 5 {
		t.Fatalf("order asc: %v", res.Rows)
	}
	// Multi-key: equal first key falls through to second.
	mustExec(t, db, "CREATE TABLE u (k INT, v INT)")
	mustExec(t, db, "INSERT INTO u VALUES (1,9),(1,7),(0,8)")
	res = mustQuery(t, db, "SELECT k, v FROM u ORDER BY k, v DESC")
	if res.Rows[0][0].AsInt() != 0 || res.Rows[1][1].AsInt() != 9 || res.Rows[2][1].AsInt() != 7 {
		t.Fatalf("multi-key order: %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (g INT, v DOUBLE)")
	mustExec(t, db, "INSERT INTO t VALUES (1,10),(1,20),(2,5),(2,15),(2,40)")
	res := mustQuery(t, db, "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t")
	row := res.Rows[0]
	if row[0].AsInt() != 5 || row[1].AsFloat() != 90 || row[2].AsFloat() != 18 ||
		row[3].AsFloat() != 5 || row[4].AsFloat() != 40 {
		t.Fatalf("aggregates = %v", row)
	}
	// GROUP BY.
	res = mustQuery(t, db, "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY g ORDER BY g")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsInt() != 2 || res.Rows[0][2].AsFloat() != 30 {
		t.Fatalf("group 1 = %v", res.Rows[0])
	}
	if res.Rows[1][0].AsInt() != 2 || res.Rows[1][1].AsInt() != 3 || res.Rows[1][2].AsFloat() != 60 {
		t.Fatalf("group 2 = %v", res.Rows[1])
	}
	// Aggregate over empty input: one row of zeros.
	mustExec(t, db, "CREATE TABLE empty (v INT)")
	res = mustQuery(t, db, "SELECT COUNT(*), SUM(v) FROM empty")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("empty aggregate = %v", res.Rows)
	}
	// COUNT(col) and aggregate with WHERE.
	res = mustQuery(t, db, "SELECT COUNT(v) FROM t WHERE g = 2")
	if res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("count with where = %v", res.Rows)
	}
}

func TestIndexSelectionExplain(t *testing.T) {
	db := pointsDB(t, 1000)
	mustExec(t, db, "CREATE INDEX idx_id ON records USING BTREE (id)")
	mustExec(t, db, "CREATE INDEX idx_bbox ON records USING RTREE (minx, miny, maxx, maxy)")

	expectPlan := func(sql, want string, args ...storage.Value) {
		t.Helper()
		res := mustQuery(t, db, "EXPLAIN "+sql, args...)
		joined := ""
		for _, r := range res.Rows {
			joined += r[0].S + "\n"
		}
		if !strings.Contains(joined, want) {
			t.Errorf("EXPLAIN %s:\n%swant fragment %q", sql, joined, want)
		}
	}
	expectPlan("SELECT * FROM records WHERE id = 5", "BTree Eq Scan")
	expectPlan("SELECT * FROM records WHERE id BETWEEN 5 AND 10", "BTree Range Scan")
	expectPlan("SELECT * FROM records WHERE id >= 5", "BTree Range Scan")
	expectPlan("SELECT * FROM records WHERE x = 5", "Seq Scan")
	expectPlan("SELECT * FROM records WHERE INTERSECTS(minx, miny, maxx, maxy, 0, 0, 50, 50)",
		"RTree Window Scan")
	expectPlan("SELECT * FROM records WHERE INTERSECTS(minx, miny, maxx, maxy, ?, ?, ?, ?)",
		"RTree Window Scan",
		storage.F64(0), storage.F64(0), storage.F64(50), storage.F64(50))
}

func TestIndexScanResultsMatchSeqScan(t *testing.T) {
	db := pointsDB(t, 2000)
	seq := mustQuery(t, db, "SELECT id FROM records WHERE INTERSECTS(minx, miny, maxx, maxy, 100, 100, 300, 300)")
	mustExec(t, db, "CREATE INDEX idx_bbox ON records USING RTREE (minx, miny, maxx, maxy)")
	idx := mustQuery(t, db, "SELECT id FROM records WHERE INTERSECTS(minx, miny, maxx, maxy, 100, 100, 300, 300)")
	if len(seq.Rows) == 0 {
		t.Fatal("empty oracle result — bad test window")
	}
	seen := map[int64]bool{}
	for _, r := range seq.Rows {
		seen[r[0].AsInt()] = true
	}
	if len(idx.Rows) != len(seq.Rows) {
		t.Fatalf("rtree scan %d rows, seq %d", len(idx.Rows), len(seq.Rows))
	}
	for _, r := range idx.Rows {
		if !seen[r[0].AsInt()] {
			t.Fatalf("rtree returned id %d not in seq scan", r[0].AsInt())
		}
	}
}

func TestCreateIndexValidation(t *testing.T) {
	db := pointsDB(t, 10)
	if _, err := db.Exec("CREATE INDEX i ON records USING BTREE (x)"); err == nil {
		t.Fatal("btree on DOUBLE must fail")
	}
	if _, err := db.Exec("CREATE INDEX i ON records USING BTREE (id, x)"); err == nil {
		t.Fatal("btree with two columns must fail")
	}
	if _, err := db.Exec("CREATE INDEX i ON records USING RTREE (minx, miny)"); err == nil {
		t.Fatal("rtree with two columns must fail")
	}
	if _, err := db.Exec("CREATE INDEX i ON records USING BTREE (missing)"); err == nil {
		t.Fatal("index on missing column must fail")
	}
	mustExec(t, db, "CREATE INDEX i ON records USING BTREE (id)")
	if _, err := db.Exec("CREATE INDEX i ON records USING BTREE (id)"); err == nil {
		t.Fatal("duplicate index name must fail")
	}
}

// TestCreateIndexUsingHashRefused: the B-tree is the one point index.
// USING HASH is a parse error naming the kinds that exist, and the
// table is left without an index.
func TestCreateIndexUsingHashRefused(t *testing.T) {
	db := pointsDB(t, 10)
	const ddl = "CREATE INDEX i ON records USING HASH (id)"
	if _, err := Parse(ddl); err == nil {
		t.Fatal("USING HASH parsed")
	}
	_, err := db.Exec(ddl)
	if err == nil || !strings.Contains(err.Error(), `expected BTREE or RTREE, got "HASH"`) {
		t.Fatalf("USING HASH: err = %v, want the BTREE/RTREE parse error", err)
	}
	tbl, err := db.Table("records")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tbl.indexes); n != 0 || tbl.HasPointIndex("id") {
		t.Fatalf("refused DDL left %d indexes (point index on id: %v)", n, tbl.HasPointIndex("id"))
	}
}

func TestJoin(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE records (id INT, val TEXT)")
	mustExec(t, db, "CREATE TABLE tiles (tile_id INT, tuple_id INT)")
	mustExec(t, db, "INSERT INTO records VALUES (1,'a'),(2,'b'),(3,'c')")
	mustExec(t, db, "INSERT INTO tiles VALUES (100,1),(100,3),(200,2)")

	// Hash join (no index).
	res := mustQuery(t, db,
		"SELECT r.val FROM tiles t JOIN records r ON t.tuple_id = r.id WHERE t.tile_id = 100 ORDER BY val")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "a" || res.Rows[1][0].S != "c" {
		t.Fatalf("hash join = %v", res.Rows)
	}

	// INL join once the index exists; same answer, different plan.
	mustExec(t, db, "CREATE INDEX idx_rid ON records USING BTREE (id)")
	plan := mustQuery(t, db,
		"EXPLAIN SELECT r.val FROM tiles t JOIN records r ON t.tuple_id = r.id WHERE t.tile_id = 100")
	text := ""
	for _, r := range plan.Rows {
		text += r[0].S + "\n"
	}
	if !strings.Contains(text, "Index Nested Loop Join") {
		t.Fatalf("expected INL join:\n%s", text)
	}
	res = mustQuery(t, db,
		"SELECT r.val FROM tiles t JOIN records r ON t.tuple_id = r.id WHERE t.tile_id = 100 ORDER BY val")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "a" || res.Rows[1][0].S != "c" {
		t.Fatalf("inl join = %v", res.Rows)
	}

	// Qualified star.
	res = mustQuery(t, db,
		"SELECT r.* FROM tiles t JOIN records r ON t.tuple_id = r.id WHERE t.tile_id = 200")
	if len(res.Cols) != 2 || res.Cols[0] != "id" || len(res.Rows) != 1 || res.Rows[0][1].S != "b" {
		t.Fatalf("qualified star = %v %v", res.Cols, res.Rows)
	}

	// Join with reversed ON order.
	res = mustQuery(t, db,
		"SELECT r.val FROM tiles t JOIN records r ON r.id = t.tuple_id WHERE t.tile_id = 200")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "b" {
		t.Fatalf("reversed ON = %v", res.Rows)
	}
}

func TestSelfJoinAliases(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INT, parent INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0), (2, 1), (3, 1)")
	res := mustQuery(t, db,
		"SELECT a.id, b.id FROM t a JOIN t b ON b.parent = a.id ORDER BY b.id")
	if len(res.Rows) != 2 {
		t.Fatalf("self join = %v", res.Rows)
	}
	if res.Rows[0][0].AsInt() != 1 || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("self join rows = %v", res.Rows)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE a (id INT)")
	mustExec(t, db, "CREATE TABLE b (id INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1)")
	mustExec(t, db, "INSERT INTO b VALUES (1)")
	if _, err := db.Query("SELECT id FROM a JOIN b ON a.id = b.id"); err == nil {
		t.Fatal("ambiguous column must fail")
	}
}

func TestUpdate(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INT, v INT, tag TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10, ''), (2, 20, ''), (3, 30, '')")
	mustExec(t, db, "CREATE INDEX idx ON t USING BTREE (v)")
	n := mustExec(t, db, "UPDATE t SET v = v + 100, tag = 'bumped' WHERE id >= 2")
	if n != 2 {
		t.Fatalf("updated %d", n)
	}
	res := mustQuery(t, db, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].AsInt() != 10 {
		t.Fatal("non-matching row changed")
	}
	// The index must reflect new values: query via the indexed column.
	res = mustQuery(t, db, "SELECT id FROM t WHERE v = 120")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("index after update = %v", res.Rows)
	}
	res = mustQuery(t, db, "SELECT id FROM t WHERE v = 20")
	if len(res.Rows) != 0 {
		t.Fatal("stale index entry after update")
	}
	// Growing update that forces row relocation (text grows a lot).
	mustExec(t, db, "UPDATE t SET tag = ? WHERE id = 3", storage.Str(strings.Repeat("z", 500)))
	res = mustQuery(t, db, "SELECT tag FROM t WHERE id = 3")
	if len(res.Rows[0][0].S) != 500 {
		t.Fatal("relocating update lost data")
	}
}

func TestDelete(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (id INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1,1),(2,2),(3,3),(4,4)")
	mustExec(t, db, "CREATE INDEX idx ON t USING BTREE (id)")
	n := mustExec(t, db, "DELETE FROM t WHERE v > 2")
	if n != 2 {
		t.Fatalf("deleted %d", n)
	}
	res := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("count after delete = %v", res.Rows)
	}
	// Index no longer returns deleted rows.
	res = mustQuery(t, db, "SELECT * FROM t WHERE id = 3")
	if len(res.Rows) != 0 {
		t.Fatal("stale index entry after delete")
	}
	// Delete everything.
	mustExec(t, db, "DELETE FROM t")
	res = mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatal("full delete failed")
	}
}

func TestIntersectsWithoutIndex(t *testing.T) {
	db := pointsDB(t, 500)
	res := mustQuery(t, db,
		"SELECT COUNT(*) FROM records WHERE INTERSECTS(minx, miny, maxx, maxy, 0, 0, 100, 100)")
	if res.Rows[0][0].AsInt() == 0 {
		t.Fatal("fallback INTERSECTS evaluation returned nothing")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"CREATE TABLE t (a BADTYPE)",
		"CREATE INDEX ON t USING BTREE (a)",
		"CREATE INDEX i ON t USING SPLAY (a)",
		"INSERT INTO t VALUES",
		"INSERT INTO t VALUES (1",
		"SELECT * FROM t LIMIT abc",
		"SELECT * FROM t trailing junk (",
		"SELECT COUNT() FROM t",
		"SELECT INTERSECTS(a, b) FROM t",
		"SELECT 'unterminated FROM t",
		"UPDATE t SET WHERE a = 1",
		"DELETE t WHERE a = 1",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseComments(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT) -- trailing comment")
	mustExec(t, db, "INSERT INTO t VALUES (1); ")
	res := mustQuery(t, db, "SELECT a -- pick a\nFROM t")
	if len(res.Rows) != 1 {
		t.Fatal("comment handling broke query")
	}
}

func TestStringEscapes(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ('it''s')")
	res := mustQuery(t, db, "SELECT s FROM t WHERE s = 'it''s'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "it's" {
		t.Fatalf("escape = %v", res.Rows)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := pointsDB(t, 1000)
	mustExec(t, db, "CREATE INDEX idx_bbox ON records USING RTREE (minx, miny, maxx, maxy)")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				x := rng.Float64() * 900
				_, err := db.Query(
					"SELECT COUNT(*) FROM records WHERE INTERSECTS(minx, miny, maxx, maxy, ?, ?, ?, ?)",
					storage.F64(x), storage.F64(0), storage.F64(x+100), storage.F64(100))
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_, err := db.Exec("UPDATE records SET x = x WHERE id = ?", storage.I64(int64(i)))
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsCounted(t *testing.T) {
	db := pointsDB(t, 100)
	mustQuery(t, db, "SELECT * FROM records")
	st := db.Stats()
	if st.Selects != 1 || st.RowsScanned != 100 || st.RowsOut != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTableNames(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE zeta (a INT)")
	mustExec(t, db, "CREATE TABLE alpha (a INT)")
	names := db.TableNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestOrderByOnAggregateOutput(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (g INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1,5),(2,50),(3,20)")
	res := mustQuery(t, db, "SELECT g, SUM(v) AS total FROM t GROUP BY g ORDER BY total DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].AsInt() != 2 || res.Rows[1][0].AsInt() != 3 {
		t.Fatalf("agg order = %v", res.Rows)
	}
}

func BenchmarkParse(b *testing.B) {
	sql := "SELECT r.id, r.x FROM tiles t JOIN records r ON t.tuple_id = r.id WHERE t.tile_id = ? ORDER BY r.id LIMIT 100"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExplainFormat(t *testing.T) {
	db := pointsDB(t, 10)
	res := mustQuery(t, db, "EXPLAIN SELECT * FROM records WHERE id = 1 ORDER BY x LIMIT 5")
	if res.Cols[0] != "plan" || len(res.Rows) < 2 {
		t.Fatalf("explain = %v %v", res.Cols, res.Rows)
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&sb, r[0].S)
	}
	for _, want := range []string{"Seq Scan", "Sort", "Limit 5"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("explain missing %q:\n%s", want, sb.String())
		}
	}
}
