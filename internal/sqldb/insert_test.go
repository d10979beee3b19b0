package sqldb

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"kyrix/internal/storage"
)

// TestInsertRowsBasics: InsertRow coerces a value into its column's
// type.
func TestInsertRowsBasics(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b DOUBLE)")
	if err := db.InsertRow("t", storage.Row{storage.I64(1), storage.F64(1.5)}); err != nil {
		t.Fatal(err)
	}
	// int coerced into the DOUBLE column
	if err := db.InsertRow("t", storage.Row{storage.I64(2), storage.I64(3)}); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, "SELECT * FROM t ORDER BY a")
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	if res.Rows[1][1].Kind != storage.TFloat64 || res.Rows[1][1].F != 3 {
		t.Fatalf("insert did not coerce int into DOUBLE column: %v", res.Rows[1][1])
	}
}

// TestInsertRowCountsInserts: every insert path counts DBStats.Inserts
// — InsertRow (what dataset loaders call) as well as SQL INSERT and
// AppendTuples — and a refused row counts nothing.
func TestInsertRowCountsInserts(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b DOUBLE)")
	for i := 0; i < 3; i++ {
		if err := db.InsertRow("t", storage.Row{storage.I64(int64(i)), storage.F64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InsertRow("t", storage.Row{storage.I64(9)}); err == nil {
		t.Fatal("wrong arity must fail")
	}
	if got := db.Stats().Inserts; got != 3 {
		t.Fatalf("after 3 InsertRow calls Inserts = %d, want 3", got)
	}
	mustExec(t, db, "INSERT INTO t VALUES (10, 1.5), (11, 2.5)")
	schema := storage.Schema{{Name: "a", Type: storage.TInt64}, {Name: "b", Type: storage.TFloat64}}
	tuple, err := storage.EncodeRow(nil, schema, storage.Row{storage.I64(12), storage.F64(3.5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendTuples("t", func(put func([]byte) error) error { return put(tuple) }); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Inserts; got != 6 {
		t.Fatalf("Inserts = %d, want 6 (3 InsertRow + 2 INSERT + 1 AppendTuples)", got)
	}
}

// TestInsertRowsErrors: InsertRow refuses a missing table, a wrong
// arity and an uncoercible value without inserting anything.
func TestInsertRowsErrors(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b DOUBLE)")
	if err := db.InsertRow("missing", storage.Row{storage.I64(1), storage.F64(2)}); err == nil {
		t.Fatal("missing table must fail")
	}
	if err := db.InsertRow("t", storage.Row{storage.I64(3)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if err := db.InsertRow("t", storage.Row{storage.Str("nope"), storage.F64(2)}); err == nil {
		t.Fatal("type mismatch must fail")
	}
	if res := mustQuery(t, db, "SELECT * FROM t"); len(res.Rows) != 0 {
		t.Fatalf("refused rows left %d rows behind", len(res.Rows))
	}
}

func TestInsertRowIndexVisibility(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b DOUBLE)")
	mustExec(t, db, "CREATE INDEX t_a ON t USING BTREE (a)")
	for i := 0; i < 100; i++ {
		if err := db.InsertRow("t", storage.Row{storage.I64(int64(i)), storage.F64(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	plan := mustQuery(t, db, "EXPLAIN SELECT * FROM t WHERE a = ?", storage.I64(42))
	var joined strings.Builder
	for _, r := range plan.Rows {
		joined.WriteString(r[0].S)
		joined.WriteString("\n")
	}
	if !strings.Contains(joined.String(), "BTree Eq Scan") {
		t.Fatalf("equality probe not using the index:\n%s", joined.String())
	}
	res := mustQuery(t, db, "SELECT * FROM t WHERE a = ?", storage.I64(42))
	if len(res.Rows) != 1 || res.Rows[0][1].F != 42 {
		t.Fatalf("index lookup after InsertRow: %v", res.Rows)
	}
}

// TestInsertRowConcurrentLoaders: several goroutines load disjoint rows
// with InsertRow while readers scan. Run under -race it proves the
// path is safe; the final count proves no row was lost or duplicated.
func TestInsertRowConcurrentLoaders(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b DOUBLE)")
	const (
		writers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := int64(w*perW + i)
				if err := db.InsertRow("t", storage.Row{storage.I64(id), storage.F64(float64(id))}); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := db.Query("SELECT COUNT(*) FROM t"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res := mustQuery(t, db, "SELECT COUNT(*) FROM t")
	if got := res.Rows[0][0].AsInt(); got != writers*perW {
		t.Fatalf("count = %d, want %d", got, writers*perW)
	}
}

func TestAppendTuples(t *testing.T) {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, s TEXT, b DOUBLE)")
	schema := storage.Schema{{Name: "a", Type: storage.TInt64}, {Name: "s", Type: storage.TString}, {Name: "b", Type: storage.TFloat64}}
	var buf []byte
	err := db.AppendTuples("t", func(put func([]byte) error) error {
		for i := 0; i < 3; i++ {
			var err error
			buf, err = storage.EncodeRow(buf[:0], schema, storage.Row{
				storage.I64(int64(i)), storage.Str(fmt.Sprint("r", i)), storage.F64(float64(i) / 2),
			})
			if err != nil {
				return err
			}
			if err := put(buf); err != nil { // put copies: buf is reused
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, "SELECT * FROM t ORDER BY a")
	if len(res.Rows) != 3 || res.Rows[2][1].S != "r2" || res.Rows[2][2].F != 1 {
		t.Fatalf("appended rows read back as %v", res.Rows)
	}
	if got := db.Stats().Inserts; got != 3 {
		t.Fatalf("Inserts stat = %d, want 3", got)
	}

	// A tuple that is not exactly one row of the schema is refused.
	good := buf
	for _, bad := range [][]byte{good[:len(good)-1], append(slices.Clone(good), 0)} {
		if err := db.AppendTuples("t", func(put func([]byte) error) error { return put(bad) }); err == nil {
			t.Fatalf("malformed tuple of %d bytes (want %d) accepted", len(bad), len(good))
		}
	}
	// The entry point maintains no index, so an indexed table is refused
	// before fill runs.
	mustExec(t, db, "CREATE INDEX t_a ON t USING BTREE (a)")
	called := false
	err = db.AppendTuples("t", func(put func([]byte) error) error { called = true; return nil })
	if err == nil || called {
		t.Fatalf("indexed table: err = %v, fill called = %v; want a refusal before fill", err, called)
	}
	if res := mustQuery(t, db, "SELECT * FROM t"); len(res.Rows) != 3 {
		t.Fatalf("refused appends left %d rows, want 3", len(res.Rows))
	}
}
