package sqldb

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"kyrix/internal/rtree"
	"kyrix/internal/storage"
)

// A SELECT executes as one push pipeline:
//
//	scan → join* → filter → [aggregate | sort] → limit → project → emit
//
// The scan pins one heap page at a time, decodes the tuple into a row
// buffer it reuses for every tuple, and pushes that buffer down the
// chain; each join appends the inner table's columns into a wider
// buffer of its own, the projection evaluates into a third. A row is
// valid only for the duration of the push, so nothing is copied unless
// somebody keeps it.
//
// One page at a time holds for index scans too. They fetch every hit
// through a storage.Cursor, which keeps the last page pinned and pins
// again only when a hit is on another page; over a table clustered on
// its R-tree (see DB.cluster) a window's rows cost a handful of pins,
// not one each.
//
// The one rule for materialising: an operator copies rows only when it
// cannot emit its first output before it has seen its last input — the
// build side of a hash join, an aggregate, an ORDER BY. Everything else
// streams, and a LIMIT (or an emit function returning Stop) ends the
// scan at the row that satisfied it.
//
// SELECT * over a single table has an identity projection, which is
// skipped; the emitted row is then an unmodified heap tuple, and emit is
// also handed the tuple's stored bytes on the still-pinned page.
//
// While a row is being pushed, the page it came from stays pinned — one
// pin per table in the join chain (an index-nested-loop join's cursor
// holds its page between outer rows), so a table's buffer pool needs at
// least as many frames as the statement names it.

// Result is a fully materialized query result.
type Result struct {
	Cols []string
	Rows []storage.Row
}

// RowFunc receives one output row of a SELECT. row is the executor's
// buffer, valid only during the call: copy it to keep it. tuple is
// non-nil when row is an unmodified heap tuple; it is then the tuple's
// stored bytes — storage.EncodeRow of row under the table's schema —
// aliasing a pinned page, to be neither kept nor written. A RowFunc runs
// under the statement's table read locks and must not call back into
// the database. Returning Stop ends the statement without error; any
// other error aborts it.
type RowFunc func(row storage.Row, tuple []byte) error

// Stop is returned by a RowFunc that has seen enough.
var Stop = errors.New("sqldb: stop")

// run drives the access path over t, calling visit with the RID and
// stored bytes of every tuple it yields while the tuple's page is
// pinned, and returns the heap pages it pinned. The first error visit
// returns ends the scan and is returned.
func (sc scanChoice) run(t *Table, visit func(rid storage.RID, tuple []byte) error) (pins int64, err error) {
	if sc.kind == "seq" {
		return scanPages(t.heap, visit)
	}
	cur := t.heap.Cursor()
	defer cur.Close()
	fetch := func(packed uint64) bool {
		rid := storage.UnpackRID(packed)
		var tuple []byte
		if tuple, err = cur.Tuple(rid); err == nil {
			err = visit(rid, tuple)
		}
		return err == nil
	}
	switch sc.kind {
	case "btree-eq":
		sc.index.bt.Lookup(sc.eqKey, fetch)
	case "hash-eq":
		sc.index.hi.Lookup(sc.eqKey, fetch)
	case "btree-range":
		sc.index.bt.AscendRange(sc.lo, sc.hi, func(_ int64, v uint64) bool { return fetch(v) })
	case "rtree":
		sc.index.rt.Search(sc.window, func(it rtree.Item) bool { return fetch(it.Val) })
	default:
		return 0, fmt.Errorf("sqldb: unknown scan kind %q", sc.kind)
	}
	return cur.Pins(), err
}

// scanPages is h.ScanTuples, also returning the pages it pinned (those
// it read a tuple from: ScanTuples pins each page once).
func scanPages(h *storage.HeapFile, visit func(rid storage.RID, tuple []byte) error) (pins int64, err error) {
	last := storage.InvalidPageID
	err = h.ScanTuples(func(rid storage.RID, tuple []byte) error {
		if rid.Page != last {
			last, pins = rid.Page, pins+1
		}
		return visit(rid, tuple)
	})
	return pins, err
}

// stmtCounts accumulates one statement's counters; they reach DBStats
// in one db.bump when it ends.
type stmtCounts struct {
	scanned, pins int64
}

// joinOp returns the operator joining each outer row (outerWidth
// columns) with the inner table per the chosen strategy and pushing the
// concatenation to next, and the function that ends it once the outer
// scan is done. A hash join materialises its build side here, before
// the first outer row arrives; an index-nested-loop join fetches its
// hits through one cursor, which done closes.
func joinOp(jc joinChoice, outerWidth int, n *stmtCounts, next RowFunc) (RowFunc, func(), error) {
	inner := jc.table
	combined := make(storage.Row, outerWidth+len(inner.schema))
	innerRow := combined[outerWidth:]
	switch jc.kind {
	case "inl":
		cur := inner.heap.Cursor()
		var ferr error
		lookup := func(packed uint64) bool {
			var tuple []byte
			if tuple, ferr = cur.Tuple(storage.UnpackRID(packed)); ferr != nil {
				return false
			}
			if ferr = storage.DecodeRowInto(tuple, inner.schema, innerRow); ferr != nil {
				return false
			}
			n.scanned++
			ferr = next(combined, nil)
			return ferr == nil
		}
		done := func() {
			cur.Close()
			n.pins += cur.Pins()
		}
		return func(orow storage.Row, _ []byte) error {
			copy(combined, orow)
			key := orow[jc.outerIdx].AsInt()
			ferr = nil
			if jc.index.Kind == IndexBTree {
				jc.index.bt.Lookup(key, lookup)
			} else {
				jc.index.hi.Lookup(key, lookup)
			}
			return ferr
		}, done, nil
	case "hash":
		build := make(map[int64][]storage.Row)
		row := make(storage.Row, len(inner.schema))
		pins, err := scanPages(inner.heap, func(_ storage.RID, tuple []byte) error {
			if err := storage.DecodeRowInto(tuple, inner.schema, row); err != nil {
				return err
			}
			n.scanned++
			key := row[jc.innerIdx].AsInt()
			build[key] = append(build[key], append(storage.Row(nil), row...))
			return nil
		})
		n.pins += pins
		if err != nil {
			return nil, nil, err
		}
		return func(orow storage.Row, _ []byte) error {
			copy(combined, orow)
			for _, irow := range build[orow[jc.outerIdx].AsInt()] {
				copy(innerRow, irow)
				if err := next(combined, nil); err != nil {
					return err
				}
			}
			return nil
		}, func() {}, nil
	}
	return nil, nil, fmt.Errorf("sqldb: unknown join kind %q", jc.kind)
}

// filterOp passes on the rows every residual conjunct accepts.
func filterOp(filters []compiledExpr, next RowFunc) RowFunc {
	return func(row storage.Row, tuple []byte) error {
		for _, f := range filters {
			v, err := f.eval(row)
			if err != nil {
				return err
			}
			if !truth(v) {
				return nil
			}
		}
		return next(row, tuple)
	}
}

// projectOp evaluates the SELECT items into its own buffer. A nil projs
// is the identity: rows (and their tuple bytes) pass through untouched.
func projectOp(projs []compiledExpr, next RowFunc) RowFunc {
	if projs == nil {
		return next
	}
	out := make(storage.Row, len(projs))
	return func(row storage.Row, _ []byte) error {
		for i, ce := range projs {
			v, err := ce.eval(row)
			if err != nil {
				return err
			}
			out[i] = v
		}
		return next(out, nil)
	}
}

// limitOp stops the statement once limit rows have gone to next.
func limitOp(limit int64, next RowFunc) RowFunc {
	if limit < 0 {
		return next
	}
	n := int64(0)
	return func(row storage.Row, tuple []byte) error {
		if n >= limit {
			return Stop
		}
		if err := next(row, tuple); err != nil {
			return err
		}
		if n++; n == limit {
			return Stop
		}
		return nil
	}
}

// selectPlan holds all decisions for one SELECT, built before any data
// is touched so EXPLAIN shares the exact logic of execution.
type selectPlan struct {
	st      *SelectStmt
	args    []storage.Value
	base    *Table
	scan    scanChoice
	joins   []joinChoice
	bs      bindings
	filters []compiledExpr // residual WHERE conjuncts over final bindings

	// Output shape (not compiled for EXPLAIN, which runs nothing).
	cols  []string
	projs []compiledExpr // non-aggregate items; nil when they are the identity
	agg   *aggPlan       // aggregate query
	order []orderKey     // ORDER BY over the input bindings (non-aggregate)
}

// planSelect resolves tables, picks access paths and compiles residual
// filters and the output shape.
func (db *DB) planSelect(st *SelectStmt, args []storage.Value) (*selectPlan, error) {
	base, err := db.Table(st.From.Table)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{st: st, args: args, base: base}
	bs := makeBindings(binding{name: st.From.Name(), schema: base.schema})

	conjuncts := splitAnd(st.Where)
	p.scan = chooseScan(base, st.From.Name(), conjuncts, args)
	if p.scan.usedConjunct >= 0 {
		conjuncts = append(conjuncts[:p.scan.usedConjunct:p.scan.usedConjunct],
			conjuncts[p.scan.usedConjunct+1:]...)
	}

	for _, jcAst := range st.Joins {
		inner, err := db.Table(jcAst.Ref.Table)
		if err != nil {
			return nil, err
		}
		jc, err := chooseJoin(jcAst, inner, bs)
		if err != nil {
			return nil, err
		}
		p.joins = append(p.joins, jc)
		parts := make([]binding, len(bs)+1)
		for i, b := range bs {
			parts[i] = binding{name: b.name, schema: b.schema}
		}
		parts[len(bs)] = binding{name: jcAst.Ref.Name(), schema: inner.schema}
		bs = makeBindings(parts...)
	}
	p.bs = bs

	for _, c := range conjuncts {
		ce, err := compileExpr(c, bs, args)
		if err != nil {
			return nil, err
		}
		p.filters = append(p.filters, ce)
	}
	switch {
	case st.Explain:
		p.cols = []string{"plan"}
	case isAggregate(st):
		// ORDER BY over aggregate output references output columns and is
		// resolved against them once they exist.
		p.agg, err = planAggregate(p)
	default:
		if err = planProjection(p); err == nil {
			p.order, err = planOrder(st.OrderBy, bs, args)
		}
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// isAggregate reports whether st groups or calls an aggregate.
func isAggregate(st *SelectStmt) bool {
	if len(st.GroupBy) > 0 {
		return true
	}
	for _, it := range st.Items {
		if !it.Star && containsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// executeSelect runs the pipeline, pushing every output row to emit.
// Caller holds read locks.
func (db *DB) executeSelect(p *selectPlan, emit RowFunc) error {
	var n stmtCounts
	var out int64
	defer func() {
		db.bump(func(s *DBStats) { s.RowsScanned += n.scanned; s.PagesPinned += n.pins; s.RowsOut += out })
	}()
	deliver := func(row storage.Row, tuple []byte) error {
		out++
		return emit(row, tuple)
	}
	var err error
	if p.st.Explain {
		err = pushAll(p.explainRows(), emit)
	} else {
		err = db.pushRows(p, &n, deliver)
	}
	if errors.Is(err, Stop) {
		return nil
	}
	return err
}

// explainRows describes the plan, one operator per row.
func (p *selectPlan) explainRows() []storage.Row {
	lines := []string{p.scan.describe(p.st.From.Name())}
	for _, jc := range p.joins {
		lines = append(lines, jc.desc)
	}
	if len(p.filters) > 0 {
		lines = append(lines, fmt.Sprintf("Filter (%d residual conjuncts)", len(p.filters)))
	}
	if isAggregate(p.st) {
		lines = append(lines, "Aggregate")
	}
	if len(p.st.OrderBy) > 0 {
		lines = append(lines, "Sort")
	}
	if p.st.Limit >= 0 {
		lines = append(lines, fmt.Sprintf("Limit %d", p.st.Limit))
	}
	rows := make([]storage.Row, len(lines))
	for i, l := range lines {
		rows[i] = storage.Row{storage.Str(l)}
	}
	return rows
}

// pushRows assembles the operator chain back to front and runs the scan
// through it.
func (db *DB) pushRows(p *selectPlan, n *stmtCounts, deliver RowFunc) error {
	// next is what the filtered join output feeds; drain runs once that
	// input is exhausted, for the two tails that hold rows back.
	var next RowFunc
	var drain func() error
	switch {
	case p.agg != nil:
		acc := newAggregator(p.agg)
		next = acc.add
		drain = func() error {
			rows, err := acc.rows()
			if err != nil {
				return err
			}
			res := &Result{Cols: p.cols, Rows: rows}
			if err := orderLimitOutput(res, p.st); err != nil {
				return err
			}
			return pushAll(res.Rows, deliver)
		}
	case len(p.order) > 0:
		var kept []storage.Row
		next = func(row storage.Row, _ []byte) error {
			kept = append(kept, append(storage.Row(nil), row...))
			return nil
		}
		drain = func() error {
			if err := orderRows(kept, p.order); err != nil {
				return err
			}
			return pushAll(kept, limitOp(p.st.Limit, projectOp(p.projs, deliver)))
		}
	default:
		next = limitOp(p.st.Limit, projectOp(p.projs, deliver))
	}

	if len(p.filters) > 0 {
		next = filterOp(p.filters, next)
	}
	width := p.bs.width()
	dones := make([]func(), 0, len(p.joins))
	for i := len(p.joins) - 1; i >= 0; i-- {
		width -= len(p.joins[i].table.schema)
		op, done, err := joinOp(p.joins[i], width, n, next)
		if err != nil {
			return err
		}
		next = op
		dones = append(dones, done)
	}
	row := make(storage.Row, len(p.base.schema))
	pins, err := p.scan.run(p.base, func(_ storage.RID, tuple []byte) error {
		if err := storage.DecodeRowInto(tuple, p.base.schema, row); err != nil {
			return err
		}
		n.scanned++
		return next(row, tuple)
	})
	n.pins += pins
	// The joins' cursors must not outlive the scan (a join's cursor
	// holds no pin before the scan's first row reaches it).
	for _, done := range dones {
		done()
	}
	if err != nil || drain == nil {
		return err
	}
	return drain()
}

func pushAll(rows []storage.Row, next RowFunc) error {
	for _, row := range rows {
		if err := next(row, nil); err != nil {
			return err
		}
	}
	return nil
}

// planProjection resolves the SELECT items of a non-aggregate query
// into output column names and expressions over the input bindings.
func planProjection(p *selectPlan) error {
	identity := true
	for _, item := range p.st.Items {
		if item.Star {
			found := item.StarTable == ""
			for _, b := range p.bs {
				if item.StarTable != "" && item.StarTable != b.name {
					continue
				}
				found = true
				for i, col := range b.schema {
					identity = identity && b.offset+i == len(p.projs)
					p.projs = append(p.projs, colExpr{idx: b.offset + i})
					p.cols = append(p.cols, col.Name)
				}
			}
			if !found {
				return fmt.Errorf("sqldb: unknown table %q in %s.*", item.StarTable, item.StarTable)
			}
			continue
		}
		ce, err := compileExpr(item.Expr, p.bs, p.args)
		if err != nil {
			return err
		}
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr)
		}
		identity = false
		p.projs = append(p.projs, ce)
		p.cols = append(p.cols, name)
	}
	if identity && len(p.projs) == p.bs.width() {
		p.projs = nil
	}
	return nil
}

// aggState accumulates one aggregate function.
type aggState struct {
	count int64
	sum   float64
	min   storage.Value
	max   storage.Value
	seen  bool
}

func (a *aggState) add(v storage.Value) {
	a.count++
	a.sum += v.AsFloat()
	if !a.seen || v.Compare(a.min) < 0 {
		a.min = v
	}
	if !a.seen || v.Compare(a.max) > 0 {
		a.max = v
	}
	a.seen = true
}

func (a *aggState) result(fn FuncKind) storage.Value {
	switch fn {
	case FnCount:
		return storage.I64(a.count)
	case FnSum:
		return storage.F64(a.sum)
	case FnAvg:
		if a.count == 0 {
			return storage.F64(0)
		}
		return storage.F64(a.sum / float64(a.count))
	case FnMin:
		if !a.seen {
			return storage.F64(0)
		}
		return a.min
	case FnMax:
		if !a.seen {
			return storage.F64(0)
		}
		return a.max
	}
	return storage.Value{}
}

// aggItem is one select item of an aggregate query.
type aggItem struct {
	isAgg bool
	fn    FuncKind
	arg   compiledExpr // nil for COUNT(*)
	plain compiledExpr // non-aggregate
}

// aggPlan is the compiled shape of an aggregate query.
type aggPlan struct {
	items  []aggItem
	groups []compiledExpr
}

func planAggregate(p *selectPlan) (*aggPlan, error) {
	ap := &aggPlan{}
	for _, item := range p.st.Items {
		if item.Star {
			return nil, fmt.Errorf("sqldb: * not allowed in aggregate query")
		}
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr)
		}
		p.cols = append(p.cols, name)
		if call, ok := item.Expr.(*Call); ok && call.Fn != FnIntersects {
			ai := aggItem{isAgg: true, fn: call.Fn}
			if !call.Star {
				ce, err := compileExpr(call.Args[0], p.bs, p.args)
				if err != nil {
					return nil, err
				}
				ai.arg = ce
			}
			ap.items = append(ap.items, ai)
			continue
		}
		if containsAggregate(item.Expr) {
			return nil, fmt.Errorf("sqldb: aggregates must be top-level select items")
		}
		ce, err := compileExpr(item.Expr, p.bs, p.args)
		if err != nil {
			return nil, err
		}
		ap.items = append(ap.items, aggItem{plain: ce})
	}
	for _, g := range p.st.GroupBy {
		ce, err := compileExpr(g, p.bs, p.args)
		if err != nil {
			return nil, err
		}
		ap.groups = append(ap.groups, ce)
	}
	return ap, nil
}

// aggregator implements hash aggregation with permissive (MySQL-style)
// semantics: non-aggregate select items are evaluated on the first row
// of each group. It keeps one copied row and the running states per
// group, never the input.
type aggregator struct {
	plan   *aggPlan
	groups map[string]*aggGroup
	order  []string
}

type aggGroup struct {
	first storage.Row
	aggs  []aggState
}

func newAggregator(plan *aggPlan) *aggregator {
	return &aggregator{plan: plan, groups: make(map[string]*aggGroup)}
}

func (a *aggregator) add(row storage.Row, _ []byte) error {
	var key strings.Builder
	for _, ce := range a.plan.groups {
		v, err := ce.eval(row)
		if err != nil {
			return err
		}
		fmt.Fprintf(&key, "%d:%s\x00", v.Kind, v.String())
	}
	k := key.String()
	g, ok := a.groups[k]
	if !ok {
		g = &aggGroup{first: append(storage.Row(nil), row...), aggs: make([]aggState, len(a.plan.items))}
		a.groups[k] = g
		a.order = append(a.order, k)
	}
	for i, it := range a.plan.items {
		if !it.isAgg {
			continue
		}
		if it.arg == nil { // COUNT(*)
			g.aggs[i].count++
			continue
		}
		v, err := it.arg.eval(row)
		if err != nil {
			return err
		}
		g.aggs[i].add(v)
	}
	return nil
}

// rows produces one output row per group, in first-seen order.
func (a *aggregator) rows() ([]storage.Row, error) {
	items := a.plan.items
	// A global aggregate (no GROUP BY) over zero rows yields one row.
	if len(a.plan.groups) == 0 && len(a.groups) == 0 {
		a.groups[""] = &aggGroup{aggs: make([]aggState, len(items))}
		a.order = append(a.order, "")
	}
	out := make([]storage.Row, 0, len(a.order))
	for _, k := range a.order {
		g := a.groups[k]
		row := make(storage.Row, len(items))
		for i, it := range items {
			switch {
			case it.isAgg:
				row[i] = g.aggs[i].result(it.fn)
			case g.first == nil:
				row[i] = storage.I64(0)
			default:
				v, err := it.plain.eval(g.first)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// orderKey is one compiled ORDER BY key over the input bindings.
type orderKey struct {
	ce   compiledExpr
	desc bool
}

func planOrder(keys []OrderItem, bs bindings, args []storage.Value) ([]orderKey, error) {
	plans := make([]orderKey, len(keys))
	for i, k := range keys {
		ce, err := compileExpr(k.Expr, bs, args)
		if err != nil {
			return nil, err
		}
		plans[i] = orderKey{ce: ce, desc: k.Desc}
	}
	return plans, nil
}

// orderRows sorts rows in place by the ORDER BY keys.
func orderRows(rows []storage.Row, keys []orderKey) error {
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for _, kp := range keys {
			a, err := kp.ce.eval(rows[i])
			if err != nil {
				sortErr = err
				return false
			}
			b, err := kp.ce.eval(rows[j])
			if err != nil {
				sortErr = err
				return false
			}
			c := a.Compare(b)
			if c == 0 {
				continue
			}
			if kp.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

// orderLimitOutput applies ORDER BY/LIMIT to an aggregate result, with
// keys referencing output column names.
func orderLimitOutput(res *Result, st *SelectStmt) error {
	if len(st.OrderBy) > 0 {
		idxOf := func(name string) int {
			for i, c := range res.Cols {
				if c == name {
					return i
				}
			}
			return -1
		}
		type keyPlan struct {
			idx  int
			desc bool
		}
		var plans []keyPlan
		for _, k := range st.OrderBy {
			ref, ok := k.Expr.(*ColRef)
			if !ok {
				return fmt.Errorf("sqldb: ORDER BY on aggregate output must name an output column")
			}
			i := idxOf(ref.Col)
			if i < 0 {
				return fmt.Errorf("sqldb: ORDER BY column %q not in aggregate output", ref.Col)
			}
			plans = append(plans, keyPlan{idx: i, desc: k.Desc})
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			for _, kp := range plans {
				c := res.Rows[i][kp.idx].Compare(res.Rows[j][kp.idx])
				if c == 0 {
					continue
				}
				if kp.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if st.Limit >= 0 && int64(len(res.Rows)) > st.Limit {
		res.Rows = res.Rows[:st.Limit]
	}
	return nil
}
