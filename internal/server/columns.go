package server

import (
	"kyrix/internal/storage"
)

// Columns is a decoded payload held column by column: the form the
// frontend keeps for a box or a tile. A payload's rows are fixed-shape
// marks (an id, coordinates, a few attributes), so a column is one
// typed slice and a decode or a delta apply is a pass per column, not an
// allocation per cell. Decode's rows are a view built from it.
//
// A Columns is never mutated once built; operations that change the row
// set build a new one.
type Columns struct {
	Cols  []string
	Types ColTypes
	// N is the row count.
	N int
	// Data[c] holds column c's N values in the slice its type names.
	Data []Column
	// Text is the byte arena that every TEXT column's values live in.
	Text []byte
}

// Column is one column of a Columns. Its values are in the slice the
// column's type names — Ints (INT), Floats (DOUBLE), Bools (BOOL), or
// Offs (TEXT), where row i's value is Text[Offs[i]:Offs[i+1]] and Offs
// has N+1 entries — and the other slices are nil.
type Column struct {
	Ints   []int64
	Floats []float64
	Bools  []bool
	Offs   []uint32
}

// NewColumns returns a Columns for n rows of the given schema with
// every fixed-width column allocated (zeroed) and every TEXT column's
// offsets allocated: one slab per value kind, so a box costs a handful
// of allocations whatever its row count. The caller fills the values
// and, for TEXT, the offsets and the arena.
func NewColumns(cols []string, types ColTypes, n int) *Columns {
	c := &Columns{Cols: cols, Types: types, N: n, Data: make([]Column, len(types))}
	var ni, nf, nb, nt int
	for _, t := range types {
		switch t {
		case storage.TInt64:
			ni++
		case storage.TFloat64:
			nf++
		case storage.TBool:
			nb++
		case storage.TString:
			nt++
		}
	}
	ints := make([]int64, ni*n)
	floats := make([]float64, nf*n)
	bools := make([]bool, nb*n)
	offs := make([]uint32, nt*(n+1))
	for i, t := range types {
		d := &c.Data[i]
		switch t {
		case storage.TInt64:
			d.Ints, ints = ints[:n:n], ints[n:]
		case storage.TFloat64:
			d.Floats, floats = floats[:n:n], floats[n:]
		case storage.TBool:
			d.Bools, bools = bools[:n:n], bools[n:]
		case storage.TString:
			d.Offs, offs = offs[:n+1:n+1], offs[n+1:]
		}
	}
	return c
}

// Float returns cell (i, col) as storage.Value.AsFloat would: DOUBLE as
// is, INT widened, anything else 0.
func (c *Columns) Float(col, i int) float64 {
	switch c.Types[col] {
	case storage.TFloat64:
		return c.Data[col].Floats[i]
	case storage.TInt64:
		return float64(c.Data[col].Ints[i])
	}
	return 0
}

// Int returns cell (i, col) as storage.Value.AsInt would: INT as is,
// DOUBLE truncated, anything else 0.
func (c *Columns) Int(col, i int) int64 {
	switch c.Types[col] {
	case storage.TInt64:
		return c.Data[col].Ints[i]
	case storage.TFloat64:
		return int64(c.Data[col].Floats[i])
	}
	return 0
}

// AppendRow appends row i's cells to dst as storage values.
func (c *Columns) AppendRow(dst storage.Row, i int) storage.Row {
	for col, t := range c.Types {
		d := &c.Data[col]
		switch t {
		case storage.TInt64:
			dst = append(dst, storage.I64(d.Ints[i]))
		case storage.TFloat64:
			dst = append(dst, storage.F64(d.Floats[i]))
		case storage.TBool:
			dst = append(dst, storage.Bool(d.Bools[i]))
		case storage.TString:
			dst = append(dst, storage.Str(string(c.Text[d.Offs[i]:d.Offs[i+1]])))
		}
	}
	return dst
}

// Response is the row view of c: one slab of cells, carved into rows.
func (c *Columns) Response() *DataResponse {
	nc := len(c.Types)
	dr := &DataResponse{Cols: c.Cols, Types: c.Types, Rows: make([]storage.Row, c.N)}
	cells := make(storage.Row, 0, c.N*nc)
	for i := range dr.Rows {
		cells = c.AppendRow(cells, i)
		dr.Rows[i] = cells[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return dr
}
