package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kyrix/internal/btree"
	"kyrix/internal/geom"
	"kyrix/internal/rtree"
	"kyrix/internal/storage"
)

// DB is an embedded relational database: a catalog of tables, each a
// heap file plus secondary indexes. Safe for concurrent use; readers of
// a table proceed in parallel, writers are exclusive per table.
type DB struct {
	mu         sync.RWMutex
	tables     map[string]*Table
	poolFrames int

	statsMu sync.Mutex
	stats   DBStats
	// inserts is DBStats.Inserts, kept apart so that InsertRow, the
	// per-row bulk-load path, counts without taking statsMu.
	inserts atomic.Int64
}

// DBStats counts executed statements, for the experiment reports.
type DBStats struct {
	Selects     int64
	Inserts     int64
	Updates     int64
	Deletes     int64
	RowsScanned int64
	RowsOut     int64
	// PagesPinned counts heap page pins taken to read rows: one per page
	// a seq scan reads, one per change of page in an index fetch.
	PagesPinned int64
}

// Option configures a DB.
type Option func(*DB)

// WithPoolFrames sets the per-table buffer pool capacity in pages.
// The default (8192 frames = 64 MB per table) keeps the working set of
// the laptop-scale experiments resident, standing in for the paper's
// 32 GB instance.
func WithPoolFrames(frames int) Option {
	return func(db *DB) { db.poolFrames = frames }
}

// NewDB creates an empty database.
func NewDB(opts ...Option) *DB {
	db := &DB{tables: make(map[string]*Table), poolFrames: 8192}
	for _, o := range opts {
		o(db)
	}
	return db
}

// Stats returns a snapshot of execution counters.
func (db *DB) Stats() DBStats {
	db.statsMu.Lock()
	s := db.stats
	db.statsMu.Unlock()
	s.Inserts = db.inserts.Load()
	return s
}

func (db *DB) bump(f func(*DBStats)) {
	db.statsMu.Lock()
	f(&db.stats)
	db.statsMu.Unlock()
}

// Table is a named heap file with secondary indexes.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  storage.Schema
	heap    *storage.HeapFile
	indexes map[string]*Index
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() storage.Schema { return t.schema }

// RowCount returns the number of live rows.
func (t *Table) RowCount() int64 { return t.heap.Count() }

// Index is a secondary index over one table.
type Index struct {
	Name string
	Kind IndexKind
	Cols []string
	pos  []int // column positions in the table schema

	bt *btree.Tree
	rt *rtree.Tree
}

// Len returns the number of indexed entries.
func (ix *Index) Len() int {
	switch ix.Kind {
	case IndexBTree:
		return ix.bt.Len()
	case IndexRTree:
		return ix.rt.Len()
	}
	return 0
}

// HasPointIndex reports whether a BTREE index on col exists — what the
// planner needs to answer `col = ?` without a scan.
func (t *Table) HasPointIndex(col string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.btreeOn(col) != nil
}

// btreeOn returns t's BTREE index on col, or nil. When several cover
// col the smallest name wins, so a plan never depends on map order.
// Caller holds t.mu.
func (t *Table) btreeOn(col string) *Index {
	var best *Index
	for _, ix := range t.indexes {
		if ix.Kind == IndexBTree && ix.Cols[0] == col && (best == nil || ix.Name < best.Name) {
			best = ix
		}
	}
	return best
}

// Table returns the named table, or an error.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqldb: no such table %q", name)
	}
	return t, nil
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (db *DB) createTable(st *CreateTableStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[st.Name]; exists {
		if st.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqldb: table %q already exists", st.Name)
	}
	seen := map[string]bool{}
	for _, c := range st.Schema {
		if seen[c.Name] {
			return fmt.Errorf("sqldb: duplicate column %q in table %q", c.Name, st.Name)
		}
		seen[c.Name] = true
	}
	bp := storage.NewBufferPool(storage.NewMemDisk(), db.poolFrames)
	heap, err := storage.NewHeapFile(bp, st.Schema)
	if err != nil {
		return err
	}
	db.tables[st.Name] = &Table{
		name:    st.Name,
		schema:  st.Schema,
		heap:    heap,
		indexes: make(map[string]*Index),
	}
	return nil
}

func (db *DB) dropTable(st *DropTableStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[st.Name]; !ok {
		if st.IfExists {
			return nil
		}
		return fmt.Errorf("sqldb: no such table %q", st.Name)
	}
	delete(db.tables, st.Name)
	return nil
}

func (db *DB) createIndex(st *CreateIndexStmt) error {
	t, err := db.Table(st.Table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.indexes[st.Name]; exists {
		return fmt.Errorf("sqldb: index %q already exists on %q", st.Name, st.Table)
	}
	switch st.Kind {
	case IndexBTree:
		if len(st.Columns) != 1 {
			return fmt.Errorf("sqldb: BTREE index takes exactly one column")
		}
	case IndexRTree:
		if len(st.Columns) != 4 {
			return fmt.Errorf("sqldb: RTREE index takes exactly four columns (minx, miny, maxx, maxy)")
		}
	}
	ix := &Index{Name: st.Name, Kind: st.Kind, Cols: st.Columns}
	for _, col := range st.Columns {
		pos := t.schema.ColIndex(col)
		if pos < 0 {
			return fmt.Errorf("sqldb: no column %q in table %q", col, st.Table)
		}
		ct := t.schema[pos].Type
		switch st.Kind {
		case IndexBTree:
			if ct != storage.TInt64 {
				return fmt.Errorf("sqldb: BTREE index requires an INT column, %q is %s", col, ct)
			}
		case IndexRTree:
			if ct != storage.TFloat64 && ct != storage.TInt64 {
				return fmt.Errorf("sqldb: RTREE index requires numeric columns, %q is %s", col, ct)
			}
		}
		ix.pos = append(ix.pos, pos)
	}
	// Build: bulk-load the tree (the precomputation phase inserts
	// millions of rows before indexing).
	if ix.Kind != IndexRTree {
		err = ix.build(t.heap)
	} else {
		clustered := t.hasRTree()
		items := make([]rtree.Item, 0, t.heap.Count())
		err = t.heap.Scan(func(rid storage.RID, row storage.Row) bool {
			items = append(items, rtree.Item{Box: ix.rowBox(row), Val: rid.Pack()})
			return true
		})
		if err == nil {
			ix.rt = rtree.BulkLoad(items)
			if !clustered {
				err = db.cluster(t, items)
			}
		}
	}
	if err != nil {
		return err
	}
	t.indexes[st.Name] = ix
	return nil
}

// hasRTree reports whether t already has an R-tree index. Caller holds
// t.mu.
func (t *Table) hasRTree() bool {
	for _, ix := range t.indexes {
		if ix.Kind == IndexRTree {
			return true
		}
	}
	return false
}

// cluster gives t's first R-tree the table's physical order, the way
// PostgreSQL's CLUSTER does for a GiST index: it rewrites the heap in
// items order (the new tree's search order, see rtree.BulkLoad), points
// each item at its row's new RID, and rebuilds every other index over
// the new RIDs. A window's rows then share a handful of adjacent pages.
// A seq scan of a clustered table runs in tree order, not insertion
// order. Caller holds t.mu exclusively and has not yet entered the new
// index into t.indexes.
func (db *DB) cluster(t *Table, items []rtree.Item) error {
	rids := make([]storage.RID, len(items))
	for i, it := range items {
		rids[i] = storage.UnpackRID(it.Val)
	}
	heap, err := t.heap.Rewrite(storage.NewBufferPool(storage.NewMemDisk(), db.poolFrames), rids)
	if err != nil {
		return err
	}
	// Rebuild into copies, so a failure leaves the table as it was.
	rebuilt := make(map[string]*Index, len(t.indexes))
	for name, ix := range t.indexes {
		nix := *ix
		if err := nix.build(heap); err != nil {
			return err
		}
		rebuilt[name] = &nix
	}
	for i, rid := range rids {
		items[i].Val = rid.Pack()
	}
	t.heap, t.indexes = heap, rebuilt
	return nil
}

// build fills a BTREE index from every row of h.
func (ix *Index) build(h *storage.HeapFile) error {
	// Sized once so the pair array the leaves will slice is the only
	// copy ever made.
	entries := make([]btree.Entry, 0, h.Count())
	err := h.Scan(func(rid storage.RID, row storage.Row) bool {
		entries = append(entries, btree.Entry{Key: row[ix.pos[0]].AsInt(), Val: rid.Pack()})
		return true
	})
	if err == nil {
		ix.bt = btree.BulkLoad(entries)
	}
	return err
}

func (ix *Index) rowBox(row storage.Row) geom.Rect {
	return geom.Rect{
		MinX: row[ix.pos[0]].AsFloat(),
		MinY: row[ix.pos[1]].AsFloat(),
		MaxX: row[ix.pos[2]].AsFloat(),
		MaxY: row[ix.pos[3]].AsFloat(),
	}
}

// indexInsert adds row (at rid) to every index. Caller holds t.mu.
func (t *Table) indexInsert(rid storage.RID, row storage.Row) {
	for _, ix := range t.indexes {
		switch ix.Kind {
		case IndexBTree:
			ix.bt.Insert(row[ix.pos[0]].AsInt(), rid.Pack())
		case IndexRTree:
			ix.rt.Insert(ix.rowBox(row), rid.Pack())
		}
	}
}

// indexDelete removes row (at rid) from every index. Caller holds t.mu.
func (t *Table) indexDelete(rid storage.RID, row storage.Row) {
	for _, ix := range t.indexes {
		switch ix.Kind {
		case IndexBTree:
			ix.bt.Delete(row[ix.pos[0]].AsInt(), rid.Pack())
		case IndexRTree:
			ix.rt.Delete(ix.rowBox(row), rid.Pack())
		}
	}
}

// coerce validates/adapts v to column type ct (int<->float widening
// only).
func coerce(v storage.Value, ct storage.ColType) (storage.Value, error) {
	switch ct {
	case storage.TInt64:
		switch v.Kind {
		case storage.TInt64:
			return v, nil
		case storage.TFloat64:
			return storage.I64(int64(v.F)), nil
		}
	case storage.TFloat64:
		switch v.Kind {
		case storage.TFloat64:
			return v, nil
		case storage.TInt64:
			return storage.F64(float64(v.I)), nil
		}
	case storage.TString:
		if v.Kind == storage.TString {
			return v, nil
		}
	case storage.TBool:
		if v.Kind == storage.TBool {
			return v, nil
		}
	}
	return storage.Value{}, fmt.Errorf("sqldb: cannot store %s value into %s column", v.Kind, ct)
}
