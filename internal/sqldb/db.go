package sqldb

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"kyrix/internal/storage"
	"kyrix/internal/wal"
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
// meaningful on error too: a statement that fails on its third row, or
// whose WAL append fails after it was applied, has still changed the
// rows it reports.
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
	if db.shouldLog(st) {
		if err := db.logToWAL(sql, args); err != nil {
			return n, fmt.Errorf("sqldb: statement applied but WAL append failed: %w", err)
		}
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
	db.bump(func(s *DBStats) { s.Inserts += int64(len(rows)) })
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
	return nil
}

// InsertRows appends a batch of rows under one lock acquisition — the
// concurrent bulk-load path for precompute passes that build tables
// from several goroutines at once: each caller coerces its batch
// outside the lock, then holds the table's write lock once per batch
// instead of once per row. Rows are coerced in place.
func (db *DB) InsertRows(table string, rows []storage.Row) error {
	if len(rows) == 0 {
		return nil
	}
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(t.schema) {
			return fmt.Errorf("sqldb: row arity %d != table arity %d", len(row), len(t.schema))
		}
		for i := range row {
			row[i], err = coerce(row[i], t.schema[i].Type)
			if err != nil {
				return err
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		rid, err := t.heap.Insert(row)
		if err != nil {
			return err
		}
		t.indexInsert(rid, row)
	}
	db.bump(func(s *DBStats) { s.Inserts += int64(len(rows)) })
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

// --- WAL integration (the §4 update model) ---

type walRecord struct {
	SQL  string     `json:"sql"`
	Args []walValue `json:"args,omitempty"`
}

type walValue struct {
	Kind storage.ColType `json:"k"`
	I    int64           `json:"i,omitempty"`
	F    float64         `json:"f,omitempty"`
	S    string          `json:"s,omitempty"`
	B    bool            `json:"b,omitempty"`
}

// walState is set while a WAL is attached; replaying suppresses
// re-logging during recovery.
type walState struct {
	log       *wal.Log
	replaying bool
}

// AttachWAL opens (or creates) a logical redo log at path, replays any
// committed statements into this database, and logs every subsequent
// DDL/DML statement. Call before loading data when recovering.
func (db *DB) AttachWAL(path string) error {
	log, err := wal.Open(path)
	if err != nil {
		return err
	}
	db.mu.Lock()
	db.walSt = &walState{log: log, replaying: true}
	db.mu.Unlock()
	err = log.Replay(func(_ wal.LSN, payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("sqldb: corrupt WAL record: %w", err)
		}
		args := make([]storage.Value, len(rec.Args))
		for i, a := range rec.Args {
			args[i] = storage.Value{Kind: a.Kind, I: a.I, F: a.F, S: a.S, B: a.B}
		}
		st, err := Parse(rec.SQL)
		if err != nil {
			return err
		}
		_, err = db.execStmt(st, args, nil)
		return err
	})
	db.mu.Lock()
	db.walSt.replaying = false
	db.mu.Unlock()
	return err
}

// DetachWAL stops logging and closes the log.
func (db *DB) DetachWAL() error {
	db.mu.Lock()
	st := db.walSt
	db.walSt = nil
	db.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.log.Close()
}

func (db *DB) shouldLog(st Statement) bool {
	db.mu.RLock()
	ws := db.walSt
	db.mu.RUnlock()
	if ws == nil || ws.replaying {
		return false
	}
	switch st.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt, *CreateTableStmt, *CreateIndexStmt, *DropTableStmt:
		return true
	}
	return false
}

func (db *DB) logToWAL(sql string, args []storage.Value) error {
	db.mu.RLock()
	ws := db.walSt
	db.mu.RUnlock()
	if ws == nil {
		return nil
	}
	rec := walRecord{SQL: sql}
	for _, a := range args {
		rec.Args = append(rec.Args, walValue{Kind: a.Kind, I: a.I, F: a.F, S: a.S, B: a.B})
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = ws.log.Append(payload)
	return err
}
