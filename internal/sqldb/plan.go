package sqldb

import (
	"fmt"
	"math"

	"kyrix/internal/geom"
	"kyrix/internal/storage"
)

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

// constValue evaluates e when it contains no column references
// (literals, params, arithmetic thereon). ok=false otherwise.
func constValue(e Expr, args []storage.Value) (storage.Value, bool) {
	c, err := compileExpr(e, nil, args)
	if err != nil {
		return storage.Value{}, false
	}
	v, err := c.eval(nil)
	if err != nil {
		return storage.Value{}, false
	}
	return v, true
}

// scanChoice is the chosen access path for the FROM table.
type scanChoice struct {
	kind         string // "seq" | "btree-eq" | "btree-range" | "rtree"
	index        *Index
	eqKey        int64
	lo, hi       int64
	window       geom.Rect
	usedConjunct int // consumed conjunct index, -1 for seq
}

func (sc scanChoice) describe(table string) string {
	switch sc.kind {
	case "btree-eq":
		return fmt.Sprintf("BTree Eq Scan on %s using %s (%s = %d)", table, sc.index.Name, sc.index.Cols[0], sc.eqKey)
	case "btree-range":
		return fmt.Sprintf("BTree Range Scan on %s using %s (%d <= %s <= %d)", table, sc.index.Name, sc.lo, sc.index.Cols[0], sc.hi)
	case "rtree":
		return fmt.Sprintf("RTree Window Scan on %s using %s (window %s)", table, sc.index.Name, sc.window)
	}
	return fmt.Sprintf("Seq Scan on %s", table)
}

// chooseScan picks the best access path for table t given the WHERE
// conjuncts. Preference order mirrors a textbook rule-based optimizer:
// btree equality, spatial window, btree range, seq scan.
func chooseScan(t *Table, tname string, conjuncts []Expr, args []storage.Value) scanChoice {
	best := scanChoice{kind: "seq", usedConjunct: -1}
	score := 0 // higher wins: eq=4, rtree=3, range=2
	for ci, c := range conjuncts {
		if sc, ok := matchEq(t, tname, c, args); ok {
			s := 4
			if s > score {
				sc.usedConjunct = ci
				best, score = sc, s
			}
		}
		if sc, ok := matchIntersects(t, tname, c, args); ok {
			s := 3
			if s > score {
				sc.usedConjunct = ci
				best, score = sc, s
			}
		}
		if sc, ok := matchRange(t, tname, c, args); ok {
			s := 2
			if s > score {
				sc.usedConjunct = ci
				best, score = sc, s
			}
		}
	}
	return best
}

// refOn reports whether e is a ColRef naming a column of binding tname
// on table t, returning the column name.
func refOn(e Expr, t *Table, tname string) (string, bool) {
	ref, ok := e.(*ColRef)
	if !ok {
		return "", false
	}
	if ref.Table != "" && ref.Table != tname {
		return "", false
	}
	if t.schema.ColIndex(ref.Col) < 0 {
		return "", false
	}
	return ref.Col, true
}

// matchEq matches `col = const` (either order) with a btree index on
// col.
func matchEq(t *Table, tname string, e Expr, args []storage.Value) (scanChoice, bool) {
	b, ok := e.(*Binary)
	if !ok || b.Op != OpEq {
		return scanChoice{}, false
	}
	col, colOK := refOn(b.L, t, tname)
	val, valOK := constValue(b.R, args)
	if !colOK || !valOK {
		col, colOK = refOn(b.R, t, tname)
		val, valOK = constValue(b.L, args)
	}
	if !colOK || !valOK {
		return scanChoice{}, false
	}
	if val.Kind != storage.TInt64 && val.Kind != storage.TFloat64 {
		return scanChoice{}, false
	}
	if ix := t.btreeOn(col); ix != nil {
		return scanChoice{kind: "btree-eq", index: ix, eqKey: val.AsInt()}, true
	}
	return scanChoice{}, false
}

// matchRange matches `col >= c`, `col <= c`, `col > c`, `col < c`,
// `col BETWEEN a AND b` with a btree index on col. Strict bounds adjust
// by one (INT columns only).
func matchRange(t *Table, tname string, e Expr, args []storage.Value) (scanChoice, bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	var col string
	switch e := e.(type) {
	case *Between:
		c, ok := refOn(e.E, t, tname)
		if !ok {
			return scanChoice{}, false
		}
		lov, ok1 := constValue(e.Lo, args)
		hiv, ok2 := constValue(e.Hi, args)
		if !ok1 || !ok2 {
			return scanChoice{}, false
		}
		col, lo, hi = c, lov.AsInt(), hiv.AsInt()
	case *Binary:
		op := e.Op
		c, colOK := refOn(e.L, t, tname)
		v, valOK := constValue(e.R, args)
		if !colOK || !valOK {
			// const OP col: flip the operator.
			c, colOK = refOn(e.R, t, tname)
			v, valOK = constValue(e.L, args)
			switch op {
			case OpLt:
				op = OpGt
			case OpLe:
				op = OpGe
			case OpGt:
				op = OpLt
			case OpGe:
				op = OpLe
			}
		}
		if !colOK || !valOK {
			return scanChoice{}, false
		}
		col = c
		switch op {
		case OpGe:
			lo = v.AsInt()
		case OpGt:
			lo = v.AsInt() + 1
		case OpLe:
			hi = v.AsInt()
		case OpLt:
			hi = v.AsInt() - 1
		default:
			return scanChoice{}, false
		}
	default:
		return scanChoice{}, false
	}
	if ix := t.btreeOn(col); ix != nil {
		return scanChoice{kind: "btree-range", index: ix, lo: lo, hi: hi}, true
	}
	return scanChoice{}, false
}

// matchIntersects matches INTERSECTS(c1,c2,c3,c4, e5..e8) where
// c1..c4 are the columns of an RTREE index on t (in index order) and
// e5..e8 are constants.
func matchIntersects(t *Table, tname string, e Expr, args []storage.Value) (scanChoice, bool) {
	call, ok := e.(*Call)
	if !ok || call.Fn != FnIntersects || len(call.Args) != 8 {
		return scanChoice{}, false
	}
	var cols [4]string
	for i := 0; i < 4; i++ {
		c, ok := refOn(call.Args[i], t, tname)
		if !ok {
			return scanChoice{}, false
		}
		cols[i] = c
	}
	var win [4]float64
	for i := 0; i < 4; i++ {
		v, ok := constValue(call.Args[4+i], args)
		if !ok || (v.Kind != storage.TInt64 && v.Kind != storage.TFloat64) {
			return scanChoice{}, false
		}
		win[i] = v.AsFloat()
	}
	for _, ix := range t.indexes {
		if ix.Kind != IndexRTree {
			continue
		}
		if ix.Cols[0] == cols[0] && ix.Cols[1] == cols[1] &&
			ix.Cols[2] == cols[2] && ix.Cols[3] == cols[3] {
			return scanChoice{
				kind:   "rtree",
				index:  ix,
				window: geom.Rect{MinX: win[0], MinY: win[1], MaxX: win[2], MaxY: win[3]},
			}, true
		}
	}
	return scanChoice{}, false
}

// joinChoice is the chosen strategy for one JOIN clause.
type joinChoice struct {
	ref      TableRef
	table    *Table
	kind     string // "inl" (index nested loop) | "hash"
	index    *Index // inl only
	outerIdx int    // flat column index in the current row
	innerIdx int    // column position within the inner table schema
	desc     string
}

// chooseJoin resolves jc.On as outerCol = innerCol and picks INL when
// the inner column has a btree index.
func chooseJoin(jc JoinClause, inner *Table, bs bindings) (joinChoice, error) {
	b, ok := jc.On.(*Binary)
	if !ok || b.Op != OpEq {
		return joinChoice{}, fmt.Errorf("sqldb: JOIN ON must be an equality of two columns")
	}
	lref, lok := b.L.(*ColRef)
	rref, rok := b.R.(*ColRef)
	if !lok || !rok {
		return joinChoice{}, fmt.Errorf("sqldb: JOIN ON must compare two columns")
	}
	innerName := jc.Ref.Name()
	innerBS := makeBindings(binding{name: innerName, schema: inner.schema})
	var outerRef, innerRef *ColRef
	if _, _, err := innerBS.resolve(lref); err == nil && (lref.Table == innerName || lref.Table == "") {
		// l could be inner; check r against outer.
		if _, _, err := bs.resolve(rref); err == nil {
			outerRef, innerRef = rref, lref
		}
	}
	if outerRef == nil {
		if _, _, err := bs.resolve(lref); err == nil {
			if _, _, err := innerBS.resolve(rref); err == nil {
				outerRef, innerRef = lref, rref
			}
		}
	}
	if outerRef == nil {
		return joinChoice{}, fmt.Errorf("sqldb: JOIN ON columns must reference the joined table and a prior table")
	}
	outerIdx, _, err := bs.resolve(outerRef)
	if err != nil {
		return joinChoice{}, err
	}
	innerPos := inner.schema.ColIndex(innerRef.Col)
	out := joinChoice{ref: jc.Ref, table: inner, outerIdx: outerIdx, innerIdx: innerPos, kind: "hash"}
	if ix := inner.btreeOn(innerRef.Col); ix != nil {
		out.kind = "inl"
		out.index = ix
	}
	if out.kind == "inl" {
		out.desc = fmt.Sprintf("Index Nested Loop Join with %s using %s (%s)", innerName, out.index.Name, innerRef.Col)
	} else {
		out.desc = fmt.Sprintf("Hash Join with %s (%s)", innerName, innerRef.Col)
	}
	return out, nil
}
