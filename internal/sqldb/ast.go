package sqldb

import "kyrix/internal/storage"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// CreateTableStmt creates a table.
type CreateTableStmt struct {
	Name        string
	Schema      storage.Schema
	IfNotExists bool
}

// IndexKind selects the index structure.
type IndexKind int

// Index kinds supported by CREATE INDEX ... USING: BTREE is the one
// point index (equality, range and index-nested-loop join probes),
// RTREE the spatial one.
const (
	IndexBTree IndexKind = iota
	IndexRTree
)

func (k IndexKind) String() string {
	switch k {
	case IndexBTree:
		return "BTREE"
	case IndexRTree:
		return "RTREE"
	}
	return "?"
}

// CreateIndexStmt creates an index. BTREE takes one column; RTREE
// takes exactly four (minx, miny, maxx, maxy).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Kind    IndexKind
	Columns []string
}

// DropTableStmt removes a table and its indexes.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// InsertStmt inserts literal rows.
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

// UpdateStmt updates rows matching Where.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr // may be nil
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt deletes rows matching Where.
type DeleteStmt struct {
	Table string
	Where Expr // may be nil
}

// SelectStmt is a (optionally joined, grouped, ordered, limited) query.
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   Expr // may be nil
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int64 // -1 = none
	Explain bool
}

// SelectItem is one projection; Star means "*", optionally qualified
// ("r.*") via StarTable.
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool
	StarTable string
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// Name returns the effective binding name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is INNER JOIN <ref> ON <left> = <right>.
type JoinClause struct {
	Ref TableRef
	On  Expr // parsed equality; planner requires ColRef = ColRef
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// Expr is any scalar expression.
type Expr interface{ expr() }

// Lit is a literal value.
type Lit struct{ Val storage.Value }

// ColRef references a column, optionally qualified by table/alias.
type ColRef struct {
	Table string // "" if unqualified
	Col   string
}

// Param is a '?' placeholder, filled from query args by ordinal.
type Param struct{ Ordinal int }

// BinOp kinds.
const (
	OpEq = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
)

// Binary is a binary operation.
type Binary struct {
	Op   int
	L, R Expr
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// Between is `expr BETWEEN lo AND hi` (inclusive).
type Between struct {
	E, Lo, Hi Expr
}

// FuncKind enumerates built-in functions.
type FuncKind int

// Built-in functions. Aggregates are only legal in a SELECT list.
const (
	FnCount FuncKind = iota
	FnSum
	FnAvg
	FnMin
	FnMax
	FnIntersects
)

// Call is a function call. For FnCount with Star, Args is empty.
type Call struct {
	Fn   FuncKind
	Args []Expr
	Star bool // COUNT(*)
}

func (*Lit) expr()     {}
func (*ColRef) expr()  {}
func (*Param) expr()   {}
func (*Binary) expr()  {}
func (*Not) expr()     {}
func (*Between) expr() {}
func (*Call) expr()    {}
