// Package storage implements the on-disk substrate of the embedded
// DBMS used by Kyrix: a typed tuple codec, 8 KB slotted pages, pluggable
// disk managers, a second-chance buffer pool with pin counts, and heap
// files addressed by record IDs.
//
// The layering mirrors a classical relational storage engine so that the
// fetching-scheme experiments in the paper (tile joins vs. spatial
// window queries) run against realistic storage costs rather than a map
// lookup.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ColType enumerates the column types supported by the engine.
type ColType uint8

const (
	// TInt64 is a 64-bit signed integer column.
	TInt64 ColType = iota + 1
	// TFloat64 is a 64-bit IEEE-754 column.
	TFloat64
	// TString is a variable-length UTF-8 column.
	TString
	// TBool is a boolean column.
	TBool
)

func (t ColType) String() string {
	switch t {
	case TInt64:
		return "INT"
	case TFloat64:
		return "DOUBLE"
	case TString:
		return "TEXT"
	case TBool:
		return "BOOL"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered list of columns.
type Schema []Column

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Value is a dynamically typed cell. The zero Value is an INT 0; use the
// constructors to build well-formed values.
type Value struct {
	Kind ColType
	I    int64
	F    float64
	S    string
	B    bool
}

// I64 builds an integer value.
func I64(v int64) Value { return Value{Kind: TInt64, I: v} }

// F64 builds a float value.
func F64(v float64) Value { return Value{Kind: TFloat64, F: v} }

// Str builds a string value.
func Str(v string) Value { return Value{Kind: TString, S: v} }

// Bool builds a boolean value.
func Bool(v bool) Value { return Value{Kind: TBool, B: v} }

// Bytes builds a TEXT value holding arbitrary binary data. TString
// cells are length-prefixed raw bytes on disk and on the wire, so they
// carry opaque payloads (encoded tile responses in the persistent tile
// store) as well as UTF-8 text; the bytes are copied in.
func Bytes(v []byte) Value { return Value{Kind: TString, S: string(v)} }

// AsBytes returns a TEXT value's contents as a byte slice (copied, the
// inverse of Bytes). Non-string kinds return nil.
func (v Value) AsBytes() []byte {
	if v.Kind != TString {
		return nil
	}
	return []byte(v.S)
}

// AsFloat coerces numeric values to float64 (integers widen losslessly
// for the magnitudes used here). Non-numeric kinds return 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case TFloat64:
		return v.F
	case TInt64:
		return float64(v.I)
	}
	return 0
}

// AsInt coerces numeric values to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case TInt64:
		return v.I
	case TFloat64:
		return int64(v.F)
	}
	return 0
}

// Equal reports deep equality with numeric cross-kind comparison
// (1 == 1.0 is true, matching SQL semantics).
func (v Value) Equal(o Value) bool {
	if v.Kind == o.Kind {
		switch v.Kind {
		case TInt64:
			return v.I == o.I
		case TFloat64:
			return v.F == o.F
		case TString:
			return v.S == o.S
		case TBool:
			return v.B == o.B
		}
	}
	if v.isNumeric() && o.isNumeric() {
		return v.AsFloat() == o.AsFloat()
	}
	return false
}

// Compare orders two values: -1, 0, +1. Cross-kind numeric comparisons
// use float semantics; comparing incomparable kinds orders by kind so
// sorting stays total.
func (v Value) Compare(o Value) int {
	if v.isNumeric() && o.isNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case TString:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	case TBool:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		}
		return 0
	}
	return 0
}

func (v Value) isNumeric() bool { return v.Kind == TInt64 || v.Kind == TFloat64 }

func (v Value) String() string {
	switch v.Kind {
	case TInt64:
		return fmt.Sprintf("%d", v.I)
	case TFloat64:
		return fmt.Sprintf("%g", v.F)
	case TString:
		return v.S
	case TBool:
		return fmt.Sprintf("%t", v.B)
	}
	return "?"
}

// Row is one tuple's worth of values, ordered by schema.
type Row []Value

// EncodeRow serializes row per schema into buf (appending) and returns
// the extended slice: the heap's tuple format. The encoding is
// schema-directed: fixed 8 bytes for INT/DOUBLE, 1 byte for BOOL, uvarint
// length + bytes for TEXT. A binary wire payload holds the same cells
// column by column instead (the server transposes tuples into it).
func EncodeRow(buf []byte, schema Schema, row Row) ([]byte, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("storage: row arity %d != schema arity %d", len(row), len(schema))
	}
	var tmp [binary.MaxVarintLen64]byte
	for i, col := range schema {
		v := row[i]
		switch col.Type {
		case TInt64:
			binary.LittleEndian.PutUint64(tmp[:8], uint64(v.AsInt()))
			buf = append(buf, tmp[:8]...)
		case TFloat64:
			binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(v.AsFloat()))
			buf = append(buf, tmp[:8]...)
		case TBool:
			b := byte(0)
			if v.B {
				b = 1
			}
			buf = append(buf, b)
		case TString:
			n := binary.PutUvarint(tmp[:], uint64(len(v.S)))
			buf = append(buf, tmp[:n]...)
			buf = append(buf, v.S...)
		default:
			return nil, fmt.Errorf("storage: unknown column type %v", col.Type)
		}
	}
	return buf, nil
}

// CheckTuple reports whether buf is exactly one tuple of schema in
// EncodeRow's format, walking the column widths without decoding a
// value.
func CheckTuple(buf []byte, schema Schema) error {
	off := 0
	for i, col := range schema {
		switch col.Type {
		case TInt64, TFloat64:
			off += 8
		case TBool:
			off++
		case TString:
			n, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || n > uint64(len(buf)-off-sz) {
				return fmt.Errorf("storage: truncated TEXT at col %d", i)
			}
			off += sz + int(n)
		default:
			return fmt.Errorf("storage: unknown column type %v", col.Type)
		}
		if off > len(buf) {
			return fmt.Errorf("storage: truncated %s at col %d", col.Type, i)
		}
	}
	if off != len(buf) {
		return fmt.Errorf("storage: tuple has %d bytes past its %d columns", len(buf)-off, len(schema))
	}
	return nil
}

// DecodeRow parses a row previously produced by EncodeRow. The returned
// row does not alias buf for strings (they are copied), so pages can be
// evicted safely afterwards.
func DecodeRow(buf []byte, schema Schema) (Row, error) {
	row := make(Row, len(schema))
	if err := DecodeRowInto(buf, schema, row); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeRowInto is DecodeRow writing into a caller-provided row slice to
// avoid allocation in scan loops. len(dst) must equal len(schema).
func DecodeRowInto(buf []byte, schema Schema, dst Row) error {
	if len(dst) != len(schema) {
		return fmt.Errorf("storage: dst arity %d != schema arity %d", len(dst), len(schema))
	}
	off := 0
	for i, col := range schema {
		switch col.Type {
		case TInt64:
			if off+8 > len(buf) {
				return fmt.Errorf("storage: truncated INT at col %d", i)
			}
			dst[i] = I64(int64(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case TFloat64:
			if off+8 > len(buf) {
				return fmt.Errorf("storage: truncated DOUBLE at col %d", i)
			}
			dst[i] = F64(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case TBool:
			if off+1 > len(buf) {
				return fmt.Errorf("storage: truncated BOOL at col %d", i)
			}
			dst[i] = Bool(buf[off] != 0)
			off++
		case TString:
			n, sz := binary.Uvarint(buf[off:])
			if sz <= 0 || n > uint64(len(buf)-off-sz) {
				return fmt.Errorf("storage: truncated TEXT at col %d", i)
			}
			off += sz
			dst[i] = Str(string(buf[off : off+int(n)]))
			off += int(n)
		default:
			return fmt.Errorf("storage: unknown column type %v", col.Type)
		}
	}
	return nil
}
