package sqldb

import (
	"errors"
	"fmt"
	"sort"

	"kyrix/internal/storage"
)

// Query parses and executes a SELECT (or EXPLAIN SELECT), returning a
// materialized result. args fill '?' placeholders in order.
func (db *DB) Query(sql string, args ...storage.Value) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires SELECT; use Exec for %T", st)
	}
	return db.RunSelect(sel, args...)
}

// RunSelect executes an already-parsed SELECT and collects its output.
// Servers that issue the same statement shape repeatedly can cache the
// parse.
func (db *DB) RunSelect(sel *SelectStmt, args ...storage.Value) (*Result, error) {
	res := &Result{}
	// Row copies are carved out of slabs, 64 rows to an allocation.
	var slab []storage.Value
	var err error
	res.Cols, err = db.SelectInto(sel, args, func(row storage.Row, _ []byte) error {
		if len(slab) < len(row) {
			slab = make([]storage.Value, 64*len(row))
		}
		res.Rows = append(res.Rows, append(slab[:0:len(row)], row...))
		slab = slab[len(row):]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SelectInto executes an already-parsed SELECT, pushing each output row
// to emit as the executor produces it (see RowFunc for what emit may do
// with it), and returns the output column names.
func (db *DB) SelectInto(sel *SelectStmt, args []storage.Value, emit RowFunc) ([]string, error) {
	plan, err := db.planSelect(sel, args)
	if err != nil {
		return nil, err
	}
	// Read-lock every involved table in name order (deadlock-free),
	// once per distinct table.
	tables := map[string]*Table{plan.base.name: plan.base}
	for _, jc := range plan.joins {
		tables[jc.table.name] = jc.table
	}
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tables[n].mu.RLock()
	}
	defer func() {
		for i := len(names) - 1; i >= 0; i-- {
			tables[names[i]].mu.RUnlock()
		}
	}()
	db.bump(func(s *DBStats) { s.Selects++ })
	return plan.cols, db.executeSelect(plan, emit)
}

// Exec parses and executes a DDL or DML statement, returning the number
// of affected rows (0 for DDL).
func (db *DB) Exec(sql string, args ...storage.Value) (int64, error) {
	return db.exec(nil, sql, args)
}

// RowChange is one row a statement touched: Old is nil for an inserted
// row, New for a deleted one.
type RowChange struct {
	Old, New storage.Row
}

// Changes is what one statement touched, for callers that keep state
// derived from the tables (the server's payload caches) and want to
// repair only that much of it.
type Changes struct {
	// Table is the statement's target table.
	Table string
	// DDL marks CREATE/DROP statements: no row images, but anything
	// derived from the catalog may have moved.
	DDL bool
	// Rows holds the image pairs of every touched row in execution order
	// — including the rows a statement changed before it failed, which
	// stay changed (statements are not atomic).
	Rows []RowChange
	// Truncated reports that more rows were touched than the caller's
	// limit; Rows is then nil and only "many" is known.
	Truncated bool

	limit int
}

// Touched reports whether the statement left anything changed.
func (c *Changes) Touched() bool { return c.DDL || c.Truncated || len(c.Rows) > 0 }

// target notes which table the statement is about to change (nil-safe,
// like record: plain Exec keeps nothing).
func (c *Changes) target(table string, ddl bool) {
	if c != nil {
		c.Table, c.DDL = table, ddl
	}
}

// record notes one touched row.
func (c *Changes) record(old, new storage.Row) {
	switch {
	case c == nil || c.Truncated:
	case len(c.Rows) >= c.limit:
		c.Rows, c.Truncated = nil, true
	default:
		c.Rows = append(c.Rows, RowChange{Old: old, New: new})
	}
}

// ExecChanges is Exec that also reports what the statement touched,
// keeping at most limit row images (a statement over a whole table
// should not be held in memory twice to say "everything"). Changes is
// meaningful on error too: a statement that fails on its third row has
// still changed the rows it reports.
func (db *DB) ExecChanges(limit int, sql string, args ...storage.Value) (int64, Changes, error) {
	ch := Changes{limit: limit}
	n, err := db.exec(&ch, sql, args)
	return n, ch, err
}

func (db *DB) exec(ch *Changes, sql string, args []storage.Value) (int64, error) {
	st, err := Parse(sql)
	if err != nil {
		return 0, err
	}
	n, err := db.execStmt(st, args, ch)
	if err != nil {
		return 0, err
	}
	return n, nil
}

func (db *DB) execStmt(st Statement, args []storage.Value, ch *Changes) (int64, error) {
	switch st := st.(type) {
	case *CreateTableStmt:
		ch.target(st.Name, true)
		return 0, db.createTable(st)
	case *CreateIndexStmt:
		ch.target(st.Table, true)
		return 0, db.createIndex(st)
	case *DropTableStmt:
		ch.target(st.Name, true)
		return 0, db.dropTable(st)
	case *InsertStmt:
		ch.target(st.Table, false)
		return db.execInsert(st, args, ch)
	case *UpdateStmt:
		ch.target(st.Table, false)
		return db.execUpdate(st, args, ch)
	case *DeleteStmt:
		ch.target(st.Table, false)
		return db.execDelete(st, args, ch)
	case *SelectStmt:
		return 0, fmt.Errorf("sqldb: Exec cannot run SELECT; use Query")
	}
	return 0, fmt.Errorf("sqldb: unsupported statement %T", st)
}

func (db *DB) execInsert(st *InsertStmt, args []storage.Value, ch *Changes) (int64, error) {
	t, err := db.Table(st.Table)
	if err != nil {
		return 0, err
	}
	// Evaluate rows before taking the lock; inserts are literal/param
	// expressions with no column references.
	rows := make([]storage.Row, 0, len(st.Rows))
	for _, exprs := range st.Rows {
		if len(exprs) != len(t.schema) {
			return 0, fmt.Errorf("sqldb: INSERT arity %d != table arity %d", len(exprs), len(t.schema))
		}
		row := make(storage.Row, len(exprs))
		for i, e := range exprs {
			ce, err := compileExpr(e, nil, args)
			if err != nil {
				return 0, err
			}
			v, err := ce.eval(nil)
			if err != nil {
				return 0, err
			}
			row[i], err = coerce(v, t.schema[i].Type)
			if err != nil {
				return 0, err
			}
		}
		rows = append(rows, row)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		rid, err := t.heap.Insert(row)
		if err != nil {
			return 0, err
		}
		t.indexInsert(rid, row)
		ch.record(nil, row)
	}
	db.inserts.Add(int64(len(rows)))
	return int64(len(rows)), nil
}

// ScanTable streams every live row of a table to fn in RID order —
// the tree's search order once the table is clustered on an R-tree —
// without materializing the result. The row passed to fn is reused;
// copy to retain. Returning false stops the scan. It is the bulk path
// for precomputation passes over millions of rows.
func (db *DB) ScanTable(table string, fn func(row storage.Row) bool) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.heap.Scan(func(_ storage.RID, row storage.Row) bool { return fn(row) })
}

// ViewHeap calls fn with table's heap under the table's read lock: no
// write and no clustering rewrite runs until fn returns, so the RIDs fn
// reads stay valid for all of it. fn must only read h, and must not
// query table again (the read lock is not reentrant).
func (db *DB) ViewHeap(table string, fn func(h *storage.HeapFile) error) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return fn(t.heap)
}

// AppendTuples bulk-loads pre-encoded tuples into table under one hold
// of its write lock: fill calls put once per tuple, in the heap's tuple
// format for the table's schema (see storage.EncodeRow), and put copies
// it. It maintains no index, so it refuses a table that has one: load
// first, then CREATE INDEX, which bulk-loads.
func (db *DB) AppendTuples(table string, fill func(put func(tuple []byte) error) error) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.indexes) > 0 {
		return fmt.Errorf("sqldb: append tuples: table %q has indexes", table)
	}
	var n int64
	err = fill(func(tuple []byte) error {
		if err := storage.CheckTuple(tuple, t.schema); err != nil {
			return fmt.Errorf("sqldb: append tuples to %q: %w", table, err)
		}
		if _, err := t.heap.InsertBytes(tuple); err != nil {
			return err
		}
		n++
		return nil
	})
	db.inserts.Add(n)
	return err
}

// InsertRow is the fast bulk-load path used by dataset generators: it
// bypasses SQL parsing but maintains indexes identically to INSERT.
func (db *DB) InsertRow(table string, row storage.Row) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	if len(row) != len(t.schema) {
		return fmt.Errorf("sqldb: row arity %d != table arity %d", len(row), len(t.schema))
	}
	for i := range row {
		row[i], err = coerce(row[i], t.schema[i].Type)
		if err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid, err := t.heap.Insert(row)
	if err != nil {
		return err
	}
	t.indexInsert(rid, row)
	db.inserts.Add(1)
	return nil
}

// matchingRIDs collects (rid, row-copy) pairs satisfying where, using
// an index when one applies, and counts the heap pages it pinned.
// Caller holds at least a read lock on t.
func (db *DB) matchingRIDs(t *Table, tname string, where Expr, args []storage.Value) ([]storage.RID, []storage.Row, error) {
	bs := makeBindings(binding{name: tname, schema: t.schema})
	conjuncts := splitAnd(where)
	sc := chooseScan(t, tname, conjuncts, args)
	if sc.usedConjunct >= 0 {
		conjuncts = append(conjuncts[:sc.usedConjunct:sc.usedConjunct], conjuncts[sc.usedConjunct+1:]...)
	}
	var filters []compiledExpr
	for _, c := range conjuncts {
		ce, err := compileExpr(c, bs, args)
		if err != nil {
			return nil, nil, err
		}
		filters = append(filters, ce)
	}
	var rids []storage.RID
	var rows []storage.Row
	row := make(storage.Row, len(t.schema))
	pins, err := sc.run(t, func(rid storage.RID, tuple []byte) error {
		if err := storage.DecodeRowInto(tuple, t.schema, row); err != nil {
			return err
		}
		for _, f := range filters {
			v, err := f.eval(row)
			if err != nil {
				return err
			}
			if !truth(v) {
				return nil
			}
		}
		rids = append(rids, rid)
		rows = append(rows, append(storage.Row(nil), row...))
		return nil
	})
	db.bump(func(s *DBStats) { s.PagesPinned += pins })
	return rids, rows, err
}

func (db *DB) execUpdate(st *UpdateStmt, args []storage.Value, ch *Changes) (int64, error) {
	t, err := db.Table(st.Table)
	if err != nil {
		return 0, err
	}
	bs := makeBindings(binding{name: st.Table, schema: t.schema})
	type setPlan struct {
		col int
		ce  compiledExpr
	}
	var sets []setPlan
	for _, sc := range st.Set {
		col := t.schema.ColIndex(sc.Column)
		if col < 0 {
			return 0, fmt.Errorf("sqldb: no column %q in %q", sc.Column, st.Table)
		}
		ce, err := compileExpr(sc.Value, bs, args)
		if err != nil {
			return 0, err
		}
		sets = append(sets, setPlan{col: col, ce: ce})
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rids, rows, err := db.matchingRIDs(t, st.Table, st.Where, args)
	if err != nil {
		return 0, err
	}
	for i, rid := range rids {
		oldRow := rows[i]
		newRow := append(storage.Row(nil), oldRow...)
		for _, sp := range sets {
			v, err := sp.ce.eval(oldRow)
			if err != nil {
				return int64(i), err
			}
			newRow[sp.col], err = coerce(v, t.schema[sp.col].Type)
			if err != nil {
				return int64(i), err
			}
		}
		// Recorded before the heap is touched: whichever step below fails,
		// the row is reported as changed.
		ch.record(oldRow, newRow)
		newRID, err := t.relocate(rid, newRow)
		if err != nil {
			return int64(i), err
		}
		t.indexDelete(rid, oldRow)
		t.indexInsert(newRID, newRow)
	}
	db.bump(func(s *DBStats) { s.Updates += int64(len(rids)) })
	return int64(len(rids)), nil
}

// relocate stores newRow as the row at rid: in place when its page has
// room, else as a new tuple (the row moves to the returned RID) before
// the old one is deleted. On error the heap is as it was, so the row's
// index entries, which the caller changes only on success, still match
// it.
func (t *Table) relocate(rid storage.RID, newRow storage.Row) (storage.RID, error) {
	err := t.heap.Update(rid, newRow)
	if err != storage.ErrPageFull {
		return rid, err
	}
	newRID, err := t.heap.Insert(newRow)
	if err != nil {
		return rid, err
	}
	if err := t.heap.Delete(rid); err != nil {
		// Take the copy back out; the old tuple is still there.
		return rid, errors.Join(err, t.heap.Delete(newRID))
	}
	return newRID, nil
}

func (db *DB) execDelete(st *DeleteStmt, args []storage.Value, ch *Changes) (int64, error) {
	t, err := db.Table(st.Table)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rids, rows, err := db.matchingRIDs(t, st.Table, st.Where, args)
	if err != nil {
		return 0, err
	}
	for i, rid := range rids {
		ch.record(rows[i], nil)
		if err := t.heap.Delete(rid); err != nil {
			return int64(i), err
		}
		t.indexDelete(rid, rows[i])
	}
	db.bump(func(s *DBStats) { s.Deletes += int64(len(rids)) })
	return int64(len(rids)), nil
}
