// Package server implements the Kyrix backend server (Fig. 1): it
// receives viewport data requests from the frontend, consults a backend
// cache, and falls through to the DBMS using the fetching scheme's
// query shape. It also owns the precomputation phase at startup and the
// §4 update endpoint.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
)

// ColTypes is a list of column types that marshals to JSON as an array
// of integers. (A bare []storage.ColType is a []uint8, which
// encoding/json would base64-encode — opaque to a non-Go frontend.)
type ColTypes []storage.ColType

// MarshalJSON implements json.Marshaler.
func (ts ColTypes) MarshalJSON() ([]byte, error) {
	ints := make([]int, len(ts))
	for i, t := range ts {
		ints[i] = int(t)
	}
	return json.Marshal(ints)
}

// UnmarshalJSON implements json.Unmarshaler.
func (ts *ColTypes) UnmarshalJSON(data []byte) error {
	var ints []int
	if err := json.Unmarshal(data, &ints); err != nil {
		return err
	}
	out := make(ColTypes, len(ints))
	for i, v := range ints {
		out[i] = storage.ColType(v)
	}
	*ts = out
	return nil
}

// DataResponse is one data payload: the rows a tile or dynamic-box
// request returned.
type DataResponse struct {
	// Cols and Types describe the row schema.
	Cols  []string
	Types ColTypes
	Rows  []storage.Row
}

// Schema reconstructs the storage schema of the response.
func (dr *DataResponse) Schema() storage.Schema {
	s := make(storage.Schema, len(dr.Cols))
	for i := range dr.Cols {
		s[i] = storage.Column{Name: dr.Cols[i], Type: dr.Types[i]}
	}
	return s
}

// responseFromResult converts a query result, deriving column types
// from the first row (empty results carry declared fallback types).
func responseFromResult(res *sqldb.Result) *DataResponse {
	dr := &DataResponse{Cols: res.Cols, Types: make(ColTypes, len(res.Cols))}
	for i := range dr.Types {
		dr.Types[i] = storage.TFloat64
	}
	if len(res.Rows) > 0 {
		for i, v := range res.Rows[0] {
			dr.Types[i] = v.Kind
		}
	}
	dr.Rows = res.Rows
	return dr
}

// Codec names a wire encoding.
type Codec string

// Supported wire codecs. JSON matches what the real Kyrix frontend
// consumes; Binary is the compact alternative measured by ablation A5.
const (
	CodecJSON   Codec = "json"
	CodecBinary Codec = "binary"
)

// jsonWire is the JSON shape: row values as heterogeneous arrays.
type jsonWire struct {
	Cols  []string `json:"cols"`
	Types ColTypes `json:"types"`
	Rows  [][]any  `json:"rows"`
}

// Encode serializes dr with the chosen codec.
func Encode(dr *DataResponse, codec Codec) ([]byte, error) {
	switch codec {
	case CodecJSON, "":
		w := jsonWire{Cols: dr.Cols, Types: dr.Types, Rows: make([][]any, len(dr.Rows))}
		for i, row := range dr.Rows {
			vals := make([]any, len(row))
			for j, v := range row {
				switch v.Kind {
				case storage.TInt64:
					vals[j] = v.I
				case storage.TFloat64:
					vals[j] = v.F
				case storage.TString:
					vals[j] = v.S
				case storage.TBool:
					vals[j] = v.B
				}
			}
			w.Rows[i] = vals
		}
		return json.Marshal(w)
	case CodecBinary:
		var buf bytes.Buffer
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(len(dr.Cols)))
		buf.Write(tmp[:n])
		for i, c := range dr.Cols {
			n = binary.PutUvarint(tmp[:], uint64(len(c)))
			buf.Write(tmp[:n])
			buf.WriteString(c)
			buf.WriteByte(byte(dr.Types[i]))
		}
		n = binary.PutUvarint(tmp[:], uint64(len(dr.Rows)))
		buf.Write(tmp[:n])
		schema := dr.Schema()
		var rowBuf []byte
		for _, row := range dr.Rows {
			var err error
			rowBuf, err = storage.EncodeRow(rowBuf[:0], schema, row)
			if err != nil {
				return nil, err
			}
			buf.Write(rowBuf)
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("server: unknown codec %q", codec)
}

// Decode parses a payload produced by Encode.
func Decode(data []byte, codec Codec) (*DataResponse, error) {
	switch codec {
	case CodecJSON, "":
		var w jsonWire
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("server: decode json: %w", err)
		}
		dr := &DataResponse{Cols: w.Cols, Types: w.Types, Rows: make([]storage.Row, len(w.Rows))}
		for i, vals := range w.Rows {
			if len(vals) != len(w.Cols) {
				return nil, fmt.Errorf("server: row %d arity %d != %d", i, len(vals), len(w.Cols))
			}
			row := make(storage.Row, len(vals))
			for j, v := range vals {
				switch w.Types[j] {
				case storage.TInt64:
					f, ok := v.(float64)
					if !ok {
						return nil, fmt.Errorf("server: row %d col %d not numeric", i, j)
					}
					row[j] = storage.I64(int64(f))
				case storage.TFloat64:
					f, ok := v.(float64)
					if !ok {
						return nil, fmt.Errorf("server: row %d col %d not numeric", i, j)
					}
					row[j] = storage.F64(f)
				case storage.TString:
					s, ok := v.(string)
					if !ok {
						return nil, fmt.Errorf("server: row %d col %d not string", i, j)
					}
					row[j] = storage.Str(s)
				case storage.TBool:
					b, ok := v.(bool)
					if !ok {
						return nil, fmt.Errorf("server: row %d col %d not bool", i, j)
					}
					row[j] = storage.Bool(b)
				default:
					return nil, fmt.Errorf("server: row %d col %d unknown type", i, j)
				}
			}
			dr.Rows[i] = row
		}
		return dr, nil
	case CodecBinary:
		h, err := parseBinaryHeader(data)
		if err != nil {
			return nil, err
		}
		dr := &DataResponse{Cols: h.cols, Types: h.types}
		schema := dr.Schema()
		rest := data[h.rowsOff:]
		off := 0
		dr.Rows = make([]storage.Row, 0, h.nrows)
		for i := 0; i < h.nrows; i++ {
			row := make(storage.Row, len(schema))
			n, err := storage.DecodeRowNext(rest[off:], schema, row)
			if err != nil {
				return nil, fmt.Errorf("server: decode row %d: %w", i, err)
			}
			off += n
			dr.Rows = append(dr.Rows, row)
		}
		return dr, nil
	}
	return nil, fmt.Errorf("server: unknown codec %q", codec)
}

// binaryHeader is the schema header of a binary payload plus where its
// row section sits.
type binaryHeader struct {
	cols  []string
	types ColTypes
	nrows int
	// countOff is the offset of the row-count varint, rowsOff of the
	// first row.
	countOff, rowsOff int
}

// parseBinaryHeader reads the header of a binary payload. Payloads
// arrive off the wire, from the L2 store and from peers, so no count is
// trusted further than the bytes behind it: a column costs at least two
// bytes (name length + type), a name cannot outrun the input, and a row
// costs at least its fixed-width columns plus one length byte per
// string — a corrupt header is an error, never an allocation.
func parseBinaryHeader(data []byte) (binaryHeader, error) {
	var h binaryHeader
	ncols, n := binary.Uvarint(data)
	if n <= 0 {
		return h, fmt.Errorf("server: decode binary header: bad column count")
	}
	off := n
	if ncols > uint64(len(data)-off)/2 {
		return h, fmt.Errorf("server: decode binary header: %d columns in %d bytes", ncols, len(data)-off)
	}
	h.cols, h.types = make([]string, ncols), make(ColTypes, ncols)
	minRow := 0
	for i := range h.cols {
		ln, n := binary.Uvarint(data[off:])
		if n <= 0 || ln >= uint64(len(data)-off-n) {
			return h, fmt.Errorf("server: decode col name %d: truncated", i)
		}
		off += n
		h.cols[i] = string(data[off : off+int(ln)])
		off += int(ln)
		h.types[i] = storage.ColType(data[off])
		off++
		switch h.types[i] {
		case storage.TInt64, storage.TFloat64:
			minRow += 8
		case storage.TBool, storage.TString:
			minRow++
		default:
			return h, fmt.Errorf("server: decode col %d: unknown type %d", i, h.types[i])
		}
	}
	h.countOff = off
	nrows, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return h, fmt.Errorf("server: decode row count: truncated")
	}
	off += n
	if nrows > uint64(len(data)-off)/uint64(max(minRow, 1)) {
		return h, fmt.Errorf("server: decode row count: %d rows in %d bytes", nrows, len(data)-off)
	}
	h.nrows, h.rowsOff = int(nrows), off
	return h, nil
}
