package sqldb

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kyrix/internal/rtree"
	"kyrix/internal/storage"
)

// The reference executor: the same plan, run the way SELECTs ran before
// the push pipeline — every operator takes its whole input as a slice of
// copied rows and returns its whole output as another. It shares
// planSelect's decisions (access path, join strategy, residual filters)
// and nothing of the execution, so TestPipelineMatchesMaterialized can
// hold the pipeline to it row for row and counter for counter.

type refStats struct{ scanned, out int64 }

func refScan(t *Table, sc scanChoice, st *refStats) ([]storage.Row, error) {
	var out []storage.Row
	row := make(storage.Row, len(t.schema))
	emit := func() { st.scanned++; out = append(out, append(storage.Row(nil), row...)) }
	var ferr error
	byRID := func(packed uint64) bool {
		if ferr = t.heap.GetInto(storage.UnpackRID(packed), row); ferr != nil {
			return false
		}
		emit()
		return true
	}
	switch sc.kind {
	case "seq":
		ferr = t.heap.Scan(func(_ storage.RID, r storage.Row) bool { copy(row, r); emit(); return true })
	case "btree-eq":
		sc.index.bt.Lookup(sc.eqKey, byRID)
	case "btree-range":
		sc.index.bt.AscendRange(sc.lo, sc.hi, func(_ int64, v uint64) bool { return byRID(v) })
	case "rtree":
		sc.index.rt.Search(sc.window, func(it rtree.Item) bool { return byRID(it.Val) })
	}
	return out, ferr
}

func refJoin(outer []storage.Row, jc joinChoice, st *refStats) ([]storage.Row, error) {
	inner := jc.table
	var out []storage.Row
	combine := func(o, i storage.Row) {
		out = append(out, append(append(make(storage.Row, 0, len(o)+len(i)), o...), i...))
	}
	switch jc.kind {
	case "inl":
		innerRow := make(storage.Row, len(inner.schema))
		for _, orow := range outer {
			var ferr error
			lookup := func(packed uint64) bool {
				if ferr = inner.heap.GetInto(storage.UnpackRID(packed), innerRow); ferr != nil {
					return false
				}
				st.scanned++
				combine(orow, innerRow)
				return true
			}
			jc.index.bt.Lookup(orow[jc.outerIdx].AsInt(), lookup)
			if ferr != nil {
				return nil, ferr
			}
		}
	case "hash":
		build := make(map[int64][]storage.Row)
		if err := inner.heap.Scan(func(_ storage.RID, row storage.Row) bool {
			st.scanned++
			key := row[jc.innerIdx].AsInt()
			build[key] = append(build[key], append(storage.Row(nil), row...))
			return true
		}); err != nil {
			return nil, err
		}
		for _, orow := range outer {
			for _, irow := range build[orow[jc.outerIdx].AsInt()] {
				combine(orow, irow)
			}
		}
	}
	return out, nil
}

func refProject(p *selectPlan, rows []storage.Row) (*Result, error) {
	var ces []compiledExpr
	res := &Result{}
	for _, item := range p.st.Items {
		if item.Star {
			for _, b := range p.bs {
				if item.StarTable != "" && item.StarTable != b.name {
					continue
				}
				for i, col := range b.schema {
					ces = append(ces, colExpr{idx: b.offset + i})
					res.Cols = append(res.Cols, col.Name)
				}
			}
			continue
		}
		ce, err := compileExpr(item.Expr, p.bs, p.args)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr)
		}
		ces = append(ces, ce)
		res.Cols = append(res.Cols, name)
	}
	for _, row := range rows {
		out := make(storage.Row, len(ces))
		for i, ce := range ces {
			v, err := ce.eval(row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func refAggregate(p *selectPlan, rows []storage.Row) (*Result, error) {
	type itemPlan struct {
		isAgg      bool
		fn         FuncKind
		arg, plain compiledExpr
	}
	var items []itemPlan
	res := &Result{}
	for _, item := range p.st.Items {
		name := item.Alias
		if name == "" {
			name = exprName(item.Expr)
		}
		res.Cols = append(res.Cols, name)
		if call, ok := item.Expr.(*Call); ok && call.Fn != FnIntersects {
			ip := itemPlan{isAgg: true, fn: call.Fn}
			if !call.Star {
				ce, err := compileExpr(call.Args[0], p.bs, p.args)
				if err != nil {
					return nil, err
				}
				ip.arg = ce
			}
			items = append(items, ip)
			continue
		}
		ce, err := compileExpr(item.Expr, p.bs, p.args)
		if err != nil {
			return nil, err
		}
		items = append(items, itemPlan{plain: ce})
	}
	type group struct {
		first storage.Row
		aggs  []aggState
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range rows {
		var key strings.Builder
		for _, g := range p.st.GroupBy {
			ce, err := compileExpr(g, p.bs, p.args)
			if err != nil {
				return nil, err
			}
			v, err := ce.eval(row)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&key, "%d:%s\x00", v.Kind, v.String())
		}
		k := key.String()
		g, ok := groups[k]
		if !ok {
			g = &group{first: row, aggs: make([]aggState, len(items))}
			groups[k] = g
			order = append(order, k)
		}
		for i, ip := range items {
			switch {
			case !ip.isAgg:
			case ip.arg == nil:
				g.aggs[i].count++
			default:
				v, err := ip.arg.eval(row)
				if err != nil {
					return nil, err
				}
				g.aggs[i].add(v)
			}
		}
	}
	if len(p.st.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{aggs: make([]aggState, len(items))}
		order = append(order, "")
	}
	for _, k := range order {
		g := groups[k]
		out := make(storage.Row, len(items))
		for i, ip := range items {
			switch {
			case ip.isAgg:
				out[i] = g.aggs[i].result(ip.fn)
			case g.first == nil:
				out[i] = storage.I64(0)
			default:
				v, err := ip.plain.eval(g.first)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// refSelect plans sql like Query does and executes the plan by full
// materialisation at every step.
func refSelect(db *DB, sql string, args ...storage.Value) (*Result, refStats, error) {
	var st refStats
	stmt, err := Parse(sql)
	if err != nil {
		return nil, st, err
	}
	p, err := db.planSelect(stmt.(*SelectStmt), args)
	if err != nil {
		return nil, st, err
	}
	if p.st.Explain {
		return &Result{Cols: []string{"plan"}, Rows: p.explainRows()}, st, nil
	}
	rows, err := refScan(p.base, p.scan, &st)
	for i := 0; err == nil && i < len(p.joins); i++ {
		rows, err = refJoin(rows, p.joins[i], &st)
	}
	if err != nil {
		return nil, st, err
	}
	kept := rows[:0]
	for _, row := range rows {
		ok := true
		for _, f := range p.filters {
			v, err := f.eval(row)
			if err != nil {
				return nil, st, err
			}
			ok = ok && truth(v)
		}
		if ok {
			kept = append(kept, row)
		}
	}
	rows = kept
	var res *Result
	if isAggregate(p.st) {
		if res, err = refAggregate(p, rows); err == nil {
			err = orderLimitOutput(res, p.st)
		}
	} else {
		if err = orderRows(rows, p.order); err == nil {
			if p.st.Limit >= 0 && int64(len(rows)) > p.st.Limit {
				rows = rows[:p.st.Limit]
			}
			res, err = refProject(p, rows)
		}
	}
	if err != nil {
		return nil, st, err
	}
	st.out = int64(len(res.Rows))
	return res, st, nil
}

// TestPipelineMatchesMaterialized: over random tables with random index
// subsets, every SELECT shape returns exactly the reference executor's
// Result — same columns, same rows, same order — and moves DBStats by
// the rows the reference read and produced. The one shape allowed to
// read less is a LIMIT without ORDER BY, which now stops the scan.
func TestPipelineMatchesMaterialized(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng, db, plain, kinds, n := randomTwins(t, trial)
		for _, d := range []*DB{db, plain} {
			mustExec(t, d, "CREATE TABLE u (id INT, grp INT, w DOUBLE, label TEXT)")
			for i := 0; i < 40; i++ {
				mustExec(t, d, "INSERT INTO u VALUES (?, ?, ?, ?)",
					storage.I64(int64(i*7%n)), storage.I64(int64(i%12)), storage.F64(float64(i)/4), storage.Str(fmt.Sprintf("u%d", i)))
			}
		}
		// The indexed twin joins by index nested loop in both directions,
		// the plain one by hash join.
		mustExec(t, db, "CREATE INDEX u_grp ON u USING BTREE (grp)")
		if trial%2 == 0 {
			mustExec(t, db, "CREATE INDEX u_id ON u USING BTREE (id)")
		}
		for probe := 0; probe < 25; probe++ {
			id := storage.I64(int64(rng.Intn(n)))
			grp := storage.I64(int64(rng.Intn(12)))
			wx, wy := rng.Float64()*800, rng.Float64()*800
			win := []storage.Value{storage.F64(wx), storage.F64(wy), storage.F64(wx + 200), storage.F64(wy + 200)}
			for _, q := range []struct {
				sql  string
				args []storage.Value
			}{
				{"SELECT * FROM t WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?)", win},
				{"SELECT * FROM t", nil},
				{"SELECT * FROM t WHERE id = ?", []storage.Value{id}},
				{"SELECT t.* FROM t WHERE grp = ? AND x > 300", []storage.Value{grp}},
				{"SELECT id, x + y AS s, tag, grp * 2 FROM t WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?) AND grp <> ?", append(win[:4:4], grp)},
				{"SELECT x, id FROM t WHERE id >= ? AND id < ? AND y > 100", []storage.Value{id, storage.I64(id.I + 40)}},
				{"SELECT * FROM t JOIN u ON t.id = u.id WHERE u.w > 2", nil},
				{"SELECT u.label, t.x, t.tag FROM u JOIN t ON u.id = t.id WHERE t.grp = ?", []storage.Value{grp}},
				{"SELECT a.id, b.label FROM t a JOIN u b ON a.grp = b.grp WHERE a.id = ?", []storage.Value{id}},
				{"SELECT t.id, u.w, v.label FROM t JOIN u ON t.id = u.id JOIN u v ON u.grp = v.grp WHERE t.x < 500", nil},
				{"SELECT grp, COUNT(*), SUM(x), MIN(y), MAX(tag), AVG(id) FROM t WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?) GROUP BY grp", win},
				{"SELECT COUNT(*), MAX(x) FROM t WHERE id < 0", nil},
				{"SELECT grp, COUNT(*) AS c FROM t GROUP BY grp ORDER BY c DESC, grp LIMIT 5", nil},
				{"SELECT u.grp, SUM(t.x) AS sx FROM t JOIN u ON t.id = u.id GROUP BY u.grp ORDER BY sx", nil},
				{"SELECT id, x FROM t WHERE grp = ? ORDER BY x DESC, id LIMIT 7", []storage.Value{grp}},
				{"SELECT * FROM t WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?) ORDER BY grp, id", win},
				{"SELECT * FROM t ORDER BY y LIMIT 0", nil},
				{"SELECT id FROM t WHERE x > 100 LIMIT 9", nil},
				{"SELECT * FROM t WHERE INTERSECTS(x, y, x, y, ?, ?, ?, ?) LIMIT 3", win},
				{"EXPLAIN SELECT id FROM t JOIN u ON t.id = u.id WHERE t.grp = ? AND u.w > 1 ORDER BY id LIMIT 4", []storage.Value{grp}},
				{"SELECT id / (grp - grp) FROM t WHERE id = ?", []storage.Value{id}}, // fails in the projection
				{"SELECT MAX(id) / (COUNT(*) - COUNT(*)) FROM t", nil},               // rejected by the planner
			} {
				for _, d := range []*DB{db, plain} {
					want, wantStats, wantErr := refSelect(d, q.sql, q.args...)
					before := d.Stats()
					got, err := d.Query(q.sql, q.args...)
					after := d.Stats()
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("trial %d %q %v: pipeline err %v, reference err %v [indexes %v]", trial, q.sql, q.args, err, wantErr, kinds)
					}
					if after.Selects != before.Selects+1 && !strings.Contains(q.sql, "COUNT(*) - COUNT(*)") {
						t.Fatalf("%q: Selects moved by %d", q.sql, after.Selects-before.Selects)
					}
					if err != nil {
						continue
					}
					if !reflect.DeepEqual(got.Cols, want.Cols) {
						t.Fatalf("trial %d %q: cols %v, reference %v", trial, q.sql, got.Cols, want.Cols)
					}
					if len(got.Rows) != len(want.Rows) {
						t.Fatalf("trial %d %q %v: %d rows, reference %d [indexes %v]", trial, q.sql, q.args, len(got.Rows), len(want.Rows), kinds)
					}
					for i := range want.Rows {
						if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
							t.Fatalf("trial %d %q %v row %d: %v, reference %v [indexes %v]", trial, q.sql, q.args, i, got.Rows[i], want.Rows[i], kinds)
						}
					}
					scanned, out := after.RowsScanned-before.RowsScanned, after.RowsOut-before.RowsOut
					stopsEarly := strings.Contains(q.sql, "LIMIT") && !strings.Contains(q.sql, "ORDER BY") && !strings.Contains(q.sql, "EXPLAIN")
					if out != wantStats.out || scanned > wantStats.scanned || (scanned != wantStats.scanned && !stopsEarly) {
						t.Fatalf("trial %d %q: RowsScanned +%d RowsOut +%d, reference %d and %d", trial, q.sql, scanned, out, wantStats.scanned, wantStats.out)
					}
				}
			}
		}
	}
}

// TestEmitStopsOrFails: an emit function that returns Stop ends the
// statement quietly, one that fails ends it with its error, and either
// way no page stays pinned and no table lock stays held. The pool has a
// single frame, so one leaked pin would exhaust it on the next page.
func TestEmitStopsOrFails(t *testing.T) {
	db := NewDB(WithPoolFrames(1))
	mustExec(t, db, "CREATE TABLE big (id INT, x DOUBLE, y DOUBLE, pad TEXT)")
	mustExec(t, db, "CREATE TABLE side (id INT, v DOUBLE)")
	pad := strings.Repeat("p", 500)
	for i := 0; i < 400; i++ {
		mustExec(t, db, "INSERT INTO big VALUES (?, ?, ?, ?)", storage.I64(int64(i)), storage.F64(float64(i)), storage.F64(float64(i%20)), storage.Str(pad))
		mustExec(t, db, "INSERT INTO side VALUES (?, ?)", storage.I64(int64(i)), storage.F64(float64(i)))
	}
	mustExec(t, db, "CREATE INDEX big_xy ON big USING RTREE (x, y, x, y)")
	mustExec(t, db, "CREATE INDEX side_id ON side USING BTREE (id)")
	boom := errors.New("emit failed")
	for _, sql := range []string{
		"SELECT * FROM big",
		"SELECT * FROM big WHERE INTERSECTS(x, y, x, y, 0, 0, 1000, 1000)",
		"SELECT big.id, side.v FROM big JOIN side ON big.id = side.id",
		"SELECT id FROM big ORDER BY x DESC",
		"SELECT y, COUNT(*) FROM big GROUP BY y",
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, ret := range []error{Stop, boom} {
			seen := 0
			cols, err := db.SelectInto(st.(*SelectStmt), nil, func(storage.Row, []byte) error {
				if seen++; seen == 5 {
					return ret
				}
				return nil
			})
			if seen != 5 || len(cols) == 0 {
				t.Fatalf("%q: emit called %d times, cols %v", sql, seen, cols)
			}
			if ret == Stop && err != nil || ret == boom && !errors.Is(err, boom) {
				t.Fatalf("%q: emit returned %v, statement returned %v", sql, ret, err)
			}
			for _, name := range []string{"big", "side"} {
				tbl, _ := db.Table(name)
				if !tbl.mu.TryLock() {
					t.Fatalf("%q after %v: table %s still read-locked", sql, ret, name)
				}
				tbl.mu.Unlock()
			}
			// Every page of both tables through the one frame each has.
			for _, check := range []string{"SELECT COUNT(*) FROM big", "SELECT COUNT(*) FROM side"} {
				if res, err := db.Query(check); err != nil || res.Rows[0][0].AsInt() != 400 {
					t.Fatalf("%q after %v: %q = %v, %v", sql, ret, check, res, err)
				}
			}
		}
	}
}
