package sqldb

import (
	"fmt"
	"strconv"

	"kyrix/internal/storage"
)

// Parse parses one SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input starting with %q", p.peek().text)
	}
	return st, nil
}

type parser struct {
	toks   []token
	pos    int
	src    string
	params int
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes a token. It never steps past the EOF token, so a
// statement cut short meets EOF again at the next peek, not the end of
// p.toks.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error at byte %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errf("expected %q, got %q", sym, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.acceptKeyword("EXPLAIN"):
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		sel, ok := st.(*SelectStmt)
		if !ok {
			return nil, p.errf("EXPLAIN supports SELECT only")
		}
		sel.Explain = true
		return sel, nil
	case p.acceptKeyword("CREATE"):
		if p.acceptKeyword("TABLE") {
			return p.createTable()
		}
		if p.acceptKeyword("INDEX") {
			return p.createIndex()
		}
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	case p.acceptKeyword("DROP"):
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		st := &DropTableStmt{}
		if p.acceptKeyword("IF") {
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			st.IfExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Name = name
		return st, nil
	case p.acceptKeyword("INSERT"):
		return p.insert()
	case p.acceptKeyword("UPDATE"):
		return p.update()
	case p.acceptKeyword("DELETE"):
		return p.delete()
	case p.acceptKeyword("SELECT"):
		return p.selectStmt()
	}
	return nil, p.errf("expected statement, got %q", p.peek().text)
}

func (p *parser) createTable() (Statement, error) {
	st := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		// CREATE TABLE IF NOT EXISTS — NOT is a keyword too.
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokKeyword {
			return nil, p.errf("expected column type, got %q", t.text)
		}
		var ct storage.ColType
		switch t.text {
		case "INT":
			ct = storage.TInt64
		case "DOUBLE":
			ct = storage.TFloat64
		case "TEXT":
			ct = storage.TString
		case "BOOL":
			ct = storage.TBool
		default:
			return nil, p.errf("unknown column type %q", t.text)
		}
		st.Schema = append(st.Schema, storage.Column{Name: col, Type: ct})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) createIndex() (Statement, error) {
	st := &CreateIndexStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	st.Table, err = p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("USING"); err != nil {
		return nil, err
	}
	t := p.next()
	switch {
	case t.kind == tokKeyword && t.text == "BTREE":
		st.Kind = IndexBTree
	case t.kind == tokKeyword && t.text == "RTREE":
		st.Kind = IndexRTree
	default:
		return nil, p.errf("expected BTREE or RTREE, got %q", t.text)
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) insert() (Statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) update() (Statement, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, SetClause{Column: col, Value: e})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) delete() (Statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		var err error
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) selectStmt() (Statement, error) {
	st := &SelectStmt{Limit: -1}
	for {
		if p.acceptSymbol("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else if p.peek().kind == tokIdent &&
			p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
			p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
			st.Items = append(st.Items, SelectItem{Star: true, StarTable: p.peek().text})
			p.pos += 3
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.peek().kind == tokIdent {
				item.Alias = p.next().text
			}
			st.Items = append(st.Items, item)
		}
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	st.From = ref
	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		jref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Ref: jref, On: on})
	}
	if p.acceptKeyword("WHERE") {
		st.Where, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokInt {
			return nil, p.errf("expected integer after LIMIT, got %q", t.text)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT: %v", err)
		}
		st.Limit = n
	}
	return st, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmp
//	cmp     := add ((=|!=|<|<=|>|>=) add | BETWEEN add AND add)?
//	add     := mul ((+|-) mul)*
//	mul     := unary ((*|/) unary)*
//	unary   := - unary | primary
//	primary := literal | param | call | colref | ( expr )
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	return p.cmp()
}

func (p *parser) cmp() (Expr, error) {
	l, err := p.add()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.add()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.add()
		if err != nil {
			return nil, err
		}
		return &Between{E: l, Lo: lo, Hi: hi}, nil
	}
	ops := map[string]int{"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}
	if t := p.peek(); t.kind == tokSymbol {
		if op, ok := ops[t.text]; ok {
			p.pos++
			r, err := p.add()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) add() (Expr, error) {
	l, err := p.mul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.mul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpAdd, L: l, R: r}
		case p.acceptSymbol("-"):
			r, err := p.mul()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mul() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpMul, L: l, R: r}
		case p.acceptSymbol("/"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: OpSub, L: &Lit{Val: storage.I64(0)}, R: e}, nil
	}
	return p.primary()
}

var funcKinds = map[string]FuncKind{
	"COUNT": FnCount, "SUM": FnSum, "AVG": FnAvg, "MIN": FnMin,
	"MAX": FnMax, "INTERSECTS": FnIntersects,
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.pos++
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		return &Lit{Val: storage.I64(v)}, nil
	case tokFloat:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		return &Lit{Val: storage.F64(v)}, nil
	case tokString:
		p.pos++
		return &Lit{Val: storage.Str(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			p.pos++
			return &Lit{Val: storage.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Lit{Val: storage.Bool(false)}, nil
		}
		if fn, ok := funcKinds[t.text]; ok {
			p.pos++
			return p.call(fn)
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokSymbol:
		switch t.text {
		case "(":
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "?":
			p.pos++
			e := &Param{Ordinal: p.params}
			p.params++
			return e, nil
		}
	case tokIdent:
		p.pos++
		if p.acceptSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.text, Col: col}, nil
		}
		return &ColRef{Col: t.text}, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

func (p *parser) call(fn FuncKind) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	c := &Call{Fn: fn}
	if fn == FnCount && p.acceptSymbol("*") {
		c.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return c, nil
	}
	if p.acceptSymbol(")") {
		return nil, p.errf("function requires arguments")
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Args = append(c.Args, e)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	want := map[FuncKind]int{FnCount: 1, FnSum: 1, FnAvg: 1, FnMin: 1, FnMax: 1, FnIntersects: 8}
	if n := want[fn]; len(c.Args) != n {
		return nil, p.errf("function takes %d arguments, got %d", n, len(c.Args))
	}
	return c, nil
}
