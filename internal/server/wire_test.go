package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// The reference implementation of the JSON codec: encoding/json over a
// dynamically typed document, as Encode and Decode were written before
// the hand-written writer and reader replaced them. The differential
// tests below hold the two to the same bytes and the same cells.

type jsonWire struct {
	Cols  []string `json:"cols"`
	Types ColTypes `json:"types"`
	Rows  [][]any  `json:"rows"`
}

func referenceEncodeJSON(dr *DataResponse) ([]byte, error) {
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
}

func referenceDecodeJSON(data []byte) (*DataResponse, error) {
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
}

// Values the two writers are most likely to disagree on.
var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1e21, 1e21 - 1e5, 1e-6, 1e-7, 9.999999e-7, 5e-324, math.MaxFloat64,
		-math.MaxFloat64, 1e20, 123456789.125, 1e-9, 1.5e-10, 1e100, math.Pi, 0.1, 1 << 53, 1<<53 + 2,
	}
	edgeInts    = []int64{0, -1, 1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	edgeStrings = []string{
		"", "plain", `q"uote`, `back\slash`, "<script>&amp;</script>", "line\u2028sep\u2029", "tab\tnl\ncr\rbs\bff\f",
		"\x00\x01\x1f\x7f", "bad\xffutf8\xc0\xaf", "héllo wörld ✓ 𝄞", "\xed\xa0\x80", "/slash/",
	}
)

// genResponse derives a schema and rows over all four column types from
// seed, drawing cells from the edge lists and from the generator.
func genResponse(seed int64) *DataResponse {
	rng := rand.New(rand.NewSource(seed))
	ncols := rng.Intn(6)
	dr := &DataResponse{Cols: make([]string, ncols), Types: make(ColTypes, ncols), Rows: []storage.Row{}}
	for i := range dr.Cols {
		dr.Cols[i] = fmt.Sprintf("c%d", i)
		if rng.Intn(8) == 0 {
			dr.Cols[i] = edgeStrings[rng.Intn(len(edgeStrings))]
		}
		dr.Types[i] = storage.ColType(1 + rng.Intn(4))
	}
	for n := rng.Intn(12); n > 0; n-- {
		row := make(storage.Row, ncols)
		for j, t := range dr.Types {
			edge := rng.Intn(3) == 0
			switch t {
			case storage.TInt64:
				row[j] = storage.I64(int64(rng.Uint64()))
				if edge {
					row[j] = storage.I64(edgeInts[rng.Intn(len(edgeInts))])
				}
			case storage.TFloat64:
				row[j] = storage.F64(math.Float64frombits(rng.Uint64()))
				if math.IsNaN(row[j].F) || math.IsInf(row[j].F, 0) {
					row[j] = storage.F64(rng.NormFloat64() * 1e4)
				}
				if edge {
					row[j] = storage.F64(edgeFloats[rng.Intn(len(edgeFloats))])
				}
			case storage.TString:
				buf := make([]byte, rng.Intn(12))
				rng.Read(buf)
				row[j] = storage.Str(string(buf))
				if edge {
					row[j] = storage.Str(edgeStrings[rng.Intn(len(edgeStrings))])
				}
			case storage.TBool:
				row[j] = storage.Bool(rng.Intn(2) == 0)
			}
		}
		dr.Rows = append(dr.Rows, row)
	}
	return dr
}

// FuzzEncodeJSONMatchesStdlib: for any generated response the payload is
// exactly json.Marshal's bytes, and a NaN or an infinity is an error on
// both sides.
func FuzzEncodeJSONMatchesStdlib(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint8(0))
	}
	f.Add(int64(7), uint8(1))
	f.Add(int64(8), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, poison uint8) {
		dr := genResponse(seed)
		if poison%4 != 0 && len(dr.Rows) > 0 {
			for j, ct := range dr.Types {
				if ct == storage.TFloat64 {
					dr.Rows[0][j] = storage.F64([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[poison%3])
				}
			}
		}
		got, gotErr := Encode(dr, CodecJSON)
		want, wantErr := referenceEncodeJSON(dr)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("seed %d: Encode err %v, json.Marshal err %v", seed, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("seed %d:\n got %s\nwant %s", seed, got, want)
		}
		if gotErr == nil && cap(got) != len(got) {
			t.Fatalf("payload buffer %d bytes for %d of payload", cap(got), len(got))
		}
	})
}

// appendJSONRow is the row writer JSON payloads were built with before
// they were written from the binary payload's columns: one row as a JSON
// array, each cell by its own kind. It stays as the reference that
// writer is held to.
func appendJSONRow(dst []byte, row storage.Row) ([]byte, error) {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.Kind {
		case storage.TInt64:
			dst = strconv.AppendInt(dst, v.I, 10)
		case storage.TFloat64:
			var err error
			if dst, err = appendJSONFloat(dst, v.F); err != nil {
				return dst, err
			}
		case storage.TString:
			dst = appendJSONString(dst, []byte(v.S))
		case storage.TBool:
			dst = strconv.AppendBool(dst, v.B)
		default:
			dst = append(dst, "null"...)
		}
	}
	return append(dst, ']'), nil
}

// rowWriterDocument is a JSON payload as the row writer's builder
// assembled it: the header, then appendJSONRow's rows, comma-separated.
// A delta's entering rows were the same document over the entering rows,
// their bytes copied out of the full payload.
func rowWriterDocument(cols []string, types ColTypes, rows []storage.Row) ([]byte, error) {
	dst := []byte(`{"cols":`)
	if cols == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, []byte(c))
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"types":[`...)
	for i, t := range types {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(t), 10)
	}
	dst = append(dst, `],"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendJSONRow(dst, row); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}"...), nil
}

// FuzzJSONFormMatchesRowWriter: the JSON writer, reading a binary
// payload's byte planes, writes exactly what the row writer wrote for
// the same rows — Encode's JSON, the JSON form of the cached binary
// payload, and the entering rows of a JSON delta (a subset gathered out
// of the binary payload, in any order, into a buffer of exactly its
// size) — over all four column types, TEXT that needs escaping, floats
// on both sides of the 1e-6 and 1e21 format switches, empty results and
// schemas with no columns. A NaN or an infinity fails both writers, and
// never the binary payload.
func FuzzJSONFormMatchesRowWriter(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint8(0), uint64(seed))
	}
	f.Add(int64(7), uint8(1), uint64(3))
	f.Add(int64(8), uint8(2), uint64(5))
	f.Add(int64(9), uint8(3), uint64(9))
	f.Fuzz(func(t *testing.T, seed int64, poison uint8, pick uint64) {
		dr := genResponse(seed)
		if poison%4 != 0 && len(dr.Rows) > 0 {
			for j, ct := range dr.Types {
				if ct == storage.TFloat64 {
					dr.Rows[0][j] = storage.F64([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[poison%3])
				}
			}
		}
		want, wantErr := rowWriterDocument(dr.Cols, dr.Types, dr.Rows)
		got, err := Encode(dr, CodecJSON)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Encode %q (%v), row writer %q (%v)", seed, got, err, want, wantErr)
		}
		raw, err := Encode(dr, CodecBinary)
		if err != nil {
			t.Fatalf("seed %d: binary payload: %v", seed, err)
		}
		if len(dr.Cols) == 0 && len(dr.Rows) > 0 {
			return // rows without columns have no bytes to be counted by
		}
		form, err := jsonPayload(raw)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(form, want) {
			t.Fatalf("seed %d: JSON form %q (%v), row writer %q (%v)", seed, form, err, want, wantErr)
		}
		ix := buildRowIndex(raw)
		if ix == nil {
			t.Fatalf("seed %d: binary payload does not index", seed)
		}
		rng := rand.New(rand.NewSource(int64(pick)))
		var rows []uint32
		var picked []storage.Row
		for _, i := range rng.Perm(len(dr.Rows)) {
			if rng.Intn(2) == 0 {
				rows = append(rows, uint32(i))
				picked = append(picked, dr.Rows[i])
			}
		}
		wantSub, wantErr := rowWriterDocument(dr.Cols, dr.Types, picked)
		subRaw := ix.subset(raw, rows)
		if cap(subRaw) != len(subRaw) {
			t.Fatalf("seed %d rows %v: subset of %d bytes reserved %d", seed, rows, len(subRaw), cap(subRaw))
		}
		sub, err := jsonPayload(subRaw)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(sub, wantSub) {
			t.Fatalf("seed %d rows %v: entering JSON %q (%v), row writer %q (%v)", seed, rows, sub, err, wantSub, wantErr)
		}
	})
}

func TestEncodeJSONCells(t *testing.T) {
	// Every edge value, one cell each, through both writers.
	dr := &DataResponse{Cols: []string{"i", "f", "s"}, Types: ColTypes{storage.TInt64, storage.TFloat64, storage.TString}}
	for k := 0; k < max(len(edgeInts), len(edgeFloats), len(edgeStrings)); k++ {
		dr.Rows = append(dr.Rows, storage.Row{
			storage.I64(edgeInts[k%len(edgeInts)]), storage.F64(edgeFloats[k%len(edgeFloats)]), storage.Str(edgeStrings[k%len(edgeStrings)]),
		})
	}
	got, err := Encode(dr, CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceEncodeJSON(dr)
	if !bytes.Equal(got, want) {
		t.Fatalf("\n got %s\nwant %s", got, want)
	}
	// A nil column list is "null", as json.Marshal writes it, and reads back.
	got, _ = Encode(&DataResponse{}, CodecJSON)
	want, _ = referenceEncodeJSON(&DataResponse{})
	if !bytes.Equal(got, want) {
		t.Fatalf("empty response: got %s want %s", got, want)
	}
	if back, err := Decode(got, CodecJSON); err != nil || len(back.Cols) != 0 || len(back.Rows) != 0 {
		t.Fatalf("empty response back: %+v %v", back, err)
	}
}

// sameCells compares the typed reader's result with the reflection
// decoder's, cell for cell. The one permitted difference: an INT the old
// decoder rounded through float64.
func sameCells(t *testing.T, got, ref *DataResponse) {
	t.Helper()
	if len(got.Cols) != len(ref.Cols) || len(got.Rows) != len(ref.Rows) {
		t.Fatalf("shape %dx%d vs reference %dx%d", len(got.Rows), len(got.Cols), len(ref.Rows), len(ref.Cols))
	}
	for i := range ref.Cols {
		if got.Cols[i] != ref.Cols[i] || got.Types[i] != ref.Types[i] {
			t.Fatalf("column %d: %q %v vs reference %q %v", i, got.Cols[i], got.Types[i], ref.Cols[i], ref.Types[i])
		}
	}
	for i, row := range ref.Rows {
		for j, want := range row {
			v := got.Rows[i][j]
			if v == want {
				continue
			}
			if v.Kind == storage.TInt64 && want.Kind == storage.TInt64 && int64(float64(v.I)) == want.I {
				continue // the reference lost the low bits
			}
			if v.Kind == storage.TFloat64 && want.Kind == storage.TFloat64 && math.Float64bits(v.F) == math.Float64bits(want.F) {
				continue
			}
			t.Fatalf("cell %d,%d: %#v vs reference %#v", i, j, v, want)
		}
	}
}

// callbackDecodeJSON is the JSON reader decodeJSON replaced: token
// pre-scans each cell, a callback per cell appends it, and every number
// goes through strconv after a character check that admits more than
// the payload grammar. It stays as the reference the one-loop reader is
// held to. outside reports that a number cell it read is not in RFC
// 8259's number form, which the one-loop reader refuses.
func callbackDecodeJSON(data []byte) (c *Columns, outside bool, err error) {
	s := jsonScanner{b: data}
	cols, types, err := s.header()
	if err != nil {
		return nil, false, err
	}
	c = &Columns{Cols: cols, Types: types, Data: make([]Column, len(types))}
	texts := make([][]byte, len(types))
	for col, t := range types {
		if t == storage.TString {
			c.Data[col].Offs = []uint32{0}
		}
	}
	numeric := func(tok []byte) bool {
		for _, ch := range tok {
			if (ch < '0' || ch > '9') && ch != '-' && ch != '+' && ch != '.' && ch != 'e' && ch != 'E' {
				return false
			}
		}
		outside = outside || !rfcNumber.Match(tok)
		return len(tok) > 0
	}
	c.N, err = callbackRows(&s, len(cols),
		func(row, col int, tok []byte) error {
			d := &c.Data[col]
			var err error
			switch types[col] {
			case storage.TInt64:
				var v int64
				if !numeric(tok) {
					err = errors.New("not numeric")
				} else if v, err = strconv.ParseInt(string(tok), 10, 64); err == nil {
					d.Ints = append(d.Ints, v)
				}
			case storage.TFloat64:
				var v float64
				if !numeric(tok) {
					err = errors.New("not numeric")
				} else if v, err = strconv.ParseFloat(string(tok), 64); err == nil {
					d.Floats = append(d.Floats, v)
				}
			case storage.TString:
				if texts[col], err = appendJSONUnquoted(texts[col], tok); err == nil {
					d.Offs = append(d.Offs, uint32(len(texts[col])))
				}
			default:
				switch string(tok) {
				case "true":
					d.Bools = append(d.Bools, true)
				case "false":
					d.Bools = append(d.Bools, false)
				default:
					err = errors.New("not bool")
				}
			}
			if err != nil {
				return fmt.Errorf("server: row %d col %d: %w", row, col, err)
			}
			return nil
		})
	if err != nil {
		return nil, outside, err
	}
	for col, text := range texts {
		if types[col] != storage.TString {
			continue
		}
		base, offs := uint32(len(c.Text)), c.Data[col].Offs
		for i := range offs {
			offs[i] += base
		}
		c.Text = append(c.Text, text...)
	}
	return c, outside, nil
}

// callbackRows walks the row section to the end of the document, calling
// cell with each token and its row and column; every row must have ncols
// cells. It returns the row count.
func callbackRows(s *jsonScanner, ncols int, cell func(row, col int, tok []byte) error) (int, error) {
	n := 0
	for ; !s.lit("]"); n++ {
		if n > 0 && !s.lit(",") {
			return 0, errJSONPayload
		}
		col := 0
		err := s.list(func(tok []byte) error {
			if col++; col > ncols {
				return nil
			}
			return cell(n, col-1, tok)
		})
		if err != nil {
			return 0, err
		}
		if col != ncols {
			return 0, fmt.Errorf("server: row %d arity %d != %d", n, col, ncols)
		}
	}
	if !s.lit("}") || s.pos != len(s.b) {
		return 0, errJSONPayload
	}
	return n, nil
}

// rfcNumber is RFC 8259's number grammar, the one JSON payloads use.
var rfcNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// sameColumns reports the first difference between two decoded
// payloads, comparing DOUBLE cells by their bits; "" means none.
func sameColumns(got, want *Columns) string {
	if !slices.Equal(got.Cols, want.Cols) || !slices.Equal(got.Types, want.Types) || got.N != want.N {
		return fmt.Sprintf("shape %q %v %d vs %q %v %d", got.Cols, got.Types, got.N, want.Cols, want.Types, want.N)
	}
	if (got.Cols == nil) != (want.Cols == nil) || !bytes.Equal(got.Text, want.Text) || len(got.Data) != len(want.Data) {
		return fmt.Sprintf("columns %q text %q vs columns %q text %q", got.Cols, got.Text, want.Cols, want.Text)
	}
	for col, d := range got.Data {
		w := want.Data[col]
		if !slices.Equal(d.Ints, w.Ints) || !slices.Equal(d.Bools, w.Bools) || !slices.Equal(d.Offs, w.Offs) ||
			len(d.Floats) != len(w.Floats) {
			return fmt.Sprintf("column %d: %+v vs %+v", col, d, w)
		}
		for i, f := range d.Floats {
			if math.Float64bits(f) != math.Float64bits(w.Floats[i]) {
				return fmt.Sprintf("column %d row %d: %v (%#x) vs %v (%#x)", col, i, f, math.Float64bits(f), w.Floats[i], math.Float64bits(w.Floats[i]))
			}
		}
	}
	return ""
}

// FuzzDecodeJSON: arbitrary bytes never panic or allocate beyond what
// the input pays for, and the columns come back with no spare capacity;
// on any input whose number cells are in the RFC
// 8259 form, the reader accepts what the callback reader accepts and
// returns the same columns, float bits included; and every payload
// Encode can produce decodes to the reference decoder's cells.
func FuzzDecodeJSON(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		data, err := Encode(genResponse(seed), CodecJSON)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, seed)
		f.Add(data[:len(data)/2], seed)
	}
	for _, s := range []string{
		``, `{}`, `{"cols":null,"types":[],"rows":[]}`, `{"cols":["a"],"types":[1],"rows":[[1],[2]]}`,
		`{"cols":["a"],"types":[1],"rows":[[1.5]]}`, `{"cols":["a"],"types":[2],"rows":[[nan]]}`,
		`{"cols":["a","b"],"types":[1],"rows":[]}`, `{"cols":["a"],"types":[9],"rows":[]}`,
		`{"cols":["a"],"types":[3],"rows":[["\ud834\udd1e\ud800x\u00e9\/"]]}`, `{"cols":["a"],"types":[3],"rows":[["\u12"]]}`,
		`{"cols":["a"],"types":[1],"rows":[[1,2]]}`, `{"cols":["a"],"types":[1],"rows":[[1]],}`,
		`{"cols":["a"],"types":[4],"rows":[[true],[false],[maybe]]}`, `{"rows":[],"cols":[],"types":[]}`,
		`{"cols":["a"],"types":[1],"rows":[[9223372036854775808]]}`, `{"cols":["a"],"types":[1],"rows":[[1]]} `,
		`{"cols":["a","b"],"types":[2,1],"rows":[[-0,-0],[0.0000001234,-9223372036854775808],[1e400,0]]}`,
		`{"cols":["a","b"],"types":[2,2],"rows":[[9007199254740993,4503599627370496.5],[123456789012345678.9,1.7976931348623157e308]]}`,
		`{"cols":["a","b"],"types":[2,1],"rows":[[+1,01],[.5,-01],[1.,1e5]]}`,
		`{"cols":[],"types":[],"rows":[[],[]]}`, `{"cols":["a"],"types":[2],"rows":[[]]}`,
	} {
		f.Add([]byte(s), int64(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		got, err := DecodeColumns(data, CodecJSON)
		if err == nil {
			cells := 0
			for col, d := range got.Data {
				cells += len(d.Ints) + len(d.Floats) + len(d.Bools) + len(d.Offs) - min(len(d.Offs), 1)
				// Clipped, so an append cannot run into the next column.
				if cap(d.Ints) != len(d.Ints) || cap(d.Floats) != len(d.Floats) || cap(d.Bools) != len(d.Bools) || cap(d.Offs) != len(d.Offs) {
					t.Fatalf("%q: column %d has spare capacity", data, col)
				}
			}
			// A row costs at least "[]," and a cell at least "0,".
			if len(got.Cols) > len(data) || got.N > len(data)/2 || cells > len(data)/2 {
				t.Fatalf("%d cols, %d rows, %d cells out of %d bytes", len(got.Cols), got.N, cells, len(data))
			}
		}
		ref, outside, refErr := callbackDecodeJSON(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("%q: accepted; the callback reader refuses it: %v", data, refErr)
		case err != nil && refErr == nil && !outside:
			t.Fatalf("%q: refused (%v); the callback reader accepts it", data, err)
		case err == nil:
			if diff := sameColumns(got, ref); diff != "" {
				t.Fatalf("%q: %s", data, diff)
			}
		}

		want := genResponse(seed)
		payload, err := Encode(want, CodecJSON)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(payload, CodecJSON)
		if err != nil {
			t.Fatalf("Decode(Encode(seed %d)): %v\n%s", seed, err, payload)
		}
		refRows, err := referenceDecodeJSON(payload)
		if err != nil {
			t.Fatalf("reference decoder on seed %d: %v", seed, err)
		}
		sameCells(t, back, refRows)
		// And the integers the reference rounds come back exactly.
		for i, row := range want.Rows {
			for j, v := range row {
				if v.Kind == storage.TInt64 && want.Types[j] == storage.TInt64 && back.Rows[i][j].I != v.I {
					t.Fatalf("cell %d,%d: int %d came back %d", i, j, v.I, back.Rows[i][j].I)
				}
			}
		}
	})
}

// FuzzJSONNumber: on every token in RFC 8259's number form the number
// reader agrees with strconv bit for bit — ParseFloat for a DOUBLE cell,
// ParseInt for an INT cell, value and refusal alike, -0 included — and
// it reads no token outside that form.
func FuzzJSONNumber(f *testing.F) {
	for _, tok := range []string{
		"0", "-0", "-0.0", "1", "-1.5", "9007199254740991", "9007199254740992", "9007199254740993",
		"-9007199254740993", "9007199254740995", "4503599627370496.5", "9007199254740993.0",
		"1234567890.123456789", "12345678901.23456789", "9999999999999999999", "18446744073709551615",
		"0.1", "0.30000000000000004", "9688.108792214192", "0.26243769383667637", "123456789012345678.9",
		"0.000001", "0.0000009999999", "9.999999e-7", "1e-7", "1e-6", "100000000000000000000",
		"999999999999999900000", "1e+21", "1e21", "1.7976931348623157e+308", "5e-324", "1e400",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"+1", ".5", "1.", "01", "-01", "-", "1e", "1e+", "0x10", "1_0", "Inf", "1.5.5", "--1", "",
	} {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		in := rfcNumber.Match(tok)
		s := jsonScanner{b: append(slices.Clip(tok), ']')}
		got, err := s.float()
		if !in {
			if err == nil && s.pos == len(tok) {
				t.Fatalf("%q: read as %v outside the grammar", tok, got)
			}
			return
		}
		want, wantErr := strconv.ParseFloat(string(tok), 64)
		if (err != nil) != (wantErr != nil) || math.Float64bits(got) != math.Float64bits(want) || s.pos != len(tok) {
			t.Fatalf("%q: float %v (%#x, %v) at %d, strconv %v (%#x, %v)", tok, got, math.Float64bits(got), err, s.pos,
				want, math.Float64bits(want), wantErr)
		}
		s.pos = 0
		gotInt, err := s.int()
		wantInt, wantErr := strconv.ParseInt(string(tok), 10, 64)
		if (err != nil) != (wantErr != nil) || err == nil && gotInt != wantInt {
			t.Fatalf("%q: int %d (%v), strconv %d (%v)", tok, gotInt, err, wantInt, wantErr)
		}
	})
}

// TestJSONNumberForms: a number cell is exactly RFC 8259's form. Every
// other spelling strconv or a lenient reader would take is refused in an
// INT and in a DOUBLE column, with an error naming the cell; the forms
// the server writes read back.
func TestJSONNumberForms(t *testing.T) {
	doc := func(typ, cell string) []byte {
		return []byte(`{"cols":["a","n"],"types":[1,` + typ + `],"rows":[[0,0],[1,` + cell + `]]}`)
	}
	for _, cell := range []string{
		"+1", ".5", "1.", "01", "-01", "00", "-", "--1", "+", "1e", "1e+", "1E-", "e5", "-.5", "1.e5", ".e1",
		"1.5.5", "1e5.5", "0x10", "1_000", "Inf", "-Infinity", "NaN", "nan", "infinity", " 1", "1 ", "\"1\"",
		"true", "null", "1,", "",
	} {
		for _, typ := range []string{"1", "2"} {
			_, err := DecodeColumns(doc(typ, cell), CodecJSON)
			if err == nil || !strings.Contains(err.Error(), "row 1") {
				t.Errorf("type %s cell %q: err %v, want a refusal naming row 1", typ, cell, err)
			}
		}
	}
	for cell, want := range map[string]float64{
		"0": 0, "-0": math.Copysign(0, -1), "-0.0": math.Copysign(0, -1), "1.5": 1.5, "-2.25": -2.25,
		"0.000001": 1e-6, "1e-7": 1e-7, "1e+21": 1e21, "1E2": 100, "9007199254740993": 9007199254740992,
		"100000000000000000000": 1e20, "9688.108792214192": 9688.108792214192,
	} {
		c, err := DecodeColumns(doc("2", cell), CodecJSON)
		if err != nil || math.Float64bits(c.Data[1].Floats[1]) != math.Float64bits(want) {
			t.Errorf("DOUBLE %q: %v, want %v", cell, c, want)
		}
	}
	for cell, want := range map[string]int64{
		"0": 0, "-0": 0, "42": 42, "-9223372036854775808": math.MinInt64, "9223372036854775807": math.MaxInt64,
	} {
		c, err := DecodeColumns(doc("1", cell), CodecJSON)
		if err != nil || c.Data[1].Ints[1] != want {
			t.Errorf("INT %q: %v, want %d", cell, err, want)
		}
	}
	for _, cell := range []string{"1.5", "1e5", "1.0", "9223372036854775808", "-9223372036854775809", "18446744073709551616"} {
		if _, err := DecodeColumns(doc("1", cell), CodecJSON); err == nil {
			t.Errorf("INT %q: accepted", cell)
		}
	}
}

// TestBigIDsRoundTrip: ids past 2^53 survive both codecs exactly, and
// the row index of the cached binary payload reads the same identity the
// client will key on.
func TestBigIDsRoundTrip(t *testing.T) {
	ids := []int64{1<<53 + 1, math.MaxInt64, math.MinInt64, -(1<<53 + 1), 1 << 53}
	dr := &DataResponse{Cols: []string{"id", "x"}, Types: ColTypes{storage.TInt64, storage.TFloat64}}
	for i, id := range ids {
		dr.Rows = append(dr.Rows, storage.Row{storage.I64(id), storage.F64(float64(i))})
	}
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		payload, err := Encode(dr, codec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(payload, codec)
		if err != nil {
			t.Fatal(err)
		}
		ix := buildRowIndex(binaryOf(t, payload, codec))
		if ix == nil || !ix.diffable {
			t.Fatalf("%s: payload not diffable: %+v", codec, ix)
		}
		for i, id := range ids {
			if got := back.Rows[i][0].I; got != id || ix.ids[i] != id {
				t.Fatalf("%s: id %d decoded as %d, indexed as %d", codec, id, got, ix.ids[i])
			}
		}
	}
}

// fill runs one window query as a miss does and returns the payload a
// client of codec receives: the binary payload runQuery builds, or the
// JSON form written from it.
func fill(t testing.TB, srv *Server, sql string, args []storage.Value, codec Codec) []byte {
	t.Helper()
	p, err := srv.runQuery(context.Background(), sql, args)
	if err != nil {
		t.Fatal(err)
	}
	if codec == CodecBinary {
		return p.raw
	}
	raw, err := jsonPayload(p.raw)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestQueryPayloadMatchesEncode: what runQuery streams out of the
// executor, in either codec, is byte for byte what Encode makes of the
// collected result — including the header rule (types from the first
// row, DOUBLE when there is none) and the index's visit order.
func TestQueryPayloadMatchesEncode(t *testing.T) {
	srv, _ := newPointsServer(t, 3000, 4096, 2048)
	pl, _ := srv.Layer("main", 0)
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		for _, win := range []geom.Rect{
			{MinX: 0, MinY: 0, MaxX: 700, MaxY: 700},
			{MinX: 1000, MinY: 500, MaxX: 1001, MaxY: 501},
			{MinX: -50, MinY: -50, MaxX: -10, MaxY: -10}, // empty
		} {
			sql, args := pl.WindowSQL(win)
			raw := fill(t, srv, sql, args, codec)
			res, err := srv.db.Query(sql, args...)
			if err != nil {
				t.Fatal(err)
			}
			dr := &DataResponse{Cols: res.Cols, Types: make(ColTypes, len(res.Cols)), Rows: res.Rows}
			for i := range dr.Types {
				dr.Types[i] = storage.TFloat64
				if len(res.Rows) > 0 {
					dr.Types[i] = res.Rows[0][i].Kind
				}
			}
			want, err := Encode(dr, codec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("%s %v: streamed payload differs from Encode(result) (%d vs %d bytes)", codec, win, len(raw), len(want))
			}
			if cap(raw) != len(raw) {
				t.Fatalf("%s: payload buffer %d bytes for %d of payload", codec, cap(raw), len(raw))
			}
		}
		// A projection is not a heap tuple: the binary writer encodes it
		// from values, and the result still decodes.
		mapSQL, mapArgs, err := pl.TileSQLMapping(geom.TileID{Col: 1, Row: 1}, 512)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := srv.db.Query(mapSQL, mapArgs...)
		back, err := Decode(fill(t, srv, mapSQL, mapArgs, codec), codec)
		if err != nil || len(back.Rows) != len(res.Rows) || len(res.Rows) == 0 {
			t.Fatalf("%s mapping tile: %d rows decoded, %d queried, err %v", codec, len(back.Rows), len(res.Rows), err)
		}
		for i, row := range res.Rows {
			for j, v := range row {
				if back.Rows[i][j] != v {
					t.Fatalf("%s mapping tile cell %d,%d: %v vs %v", codec, i, j, back.Rows[i][j], v)
				}
			}
		}
	}
}

// BenchmarkWindowFill is the miss path behind the caches: one ≈ 500-row
// window query through runQuery — index probe, heap reads, encode and
// payload hash — over 200k uniform rows, and for json the JSON form
// written from it.
func BenchmarkWindowFill(b *testing.B) {
	db, ca := newPointsApp(b, 200_000, 131072, 16384)
	srv, err := New(db, ca, Options{
		Obs:        ObsOptions{DisableTracing: true},
		Precompute: fetch.Options{BuildSpatial: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	pl, _ := srv.Layer("main", 0)
	// 200k rows on 131072×16384: 2318² holds ≈ 500 of them.
	const side = 2318
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		b.Run(string(codec), func(b *testing.B) {
			ctx := context.Background()
			rows := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, y := float64(i%50)*2500, float64(i/50%6)*2500
				sql, args := pl.WindowSQL(geom.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side})
				before := srv.Stats.RowsServed.Load()
				p, err := srv.runQuery(ctx, sql, args)
				if err != nil {
					b.Fatal(err)
				}
				if codec == CodecJSON {
					if _, err := jsonPayload(p.raw); err != nil {
						b.Fatal(err)
					}
				}
				rows += srv.Stats.RowsServed.Load() - before
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}

// BenchmarkDecodeBox decodes one 1536² box of the benchmark's dots
// (≈ 1 100 rows of id, x, y, val at its density) into columns per op —
// what the client pays for every full frame it receives. B/op and
// allocs/op are the columns' slabs; a row per cell would be ≈ 48 bytes
// a cell more.
func BenchmarkDecodeBox(b *testing.B) {
	d := workload.Uniform(200_000, 131072/5, 16384, 2019)
	win := geom.Rect{MinX: 8192, MinY: 4096, MaxX: 8192 + 1536, MaxY: 4096 + 1536}
	dr := &DataResponse{
		Cols:  []string{"id", "x", "y", "val"},
		Types: ColTypes{storage.TInt64, storage.TFloat64, storage.TFloat64, storage.TFloat64},
	}
	for _, p := range d.Points {
		if win.ContainsPoint(geom.Point{X: p.X, Y: p.Y}) {
			dr.Rows = append(dr.Rows, storage.Row{storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val)})
		}
	}
	for _, codec := range []Codec{CodecBinary, CodecJSON} {
		raw, err := Encode(dr, codec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(codec), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecodeColumns(raw, codec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dr.Rows)), "ns/row")
		})
	}
}

// TestWindowFillAllocations: a fill allocates per window, not per row,
// and so does writing its JSON form, not per cell: ten thousand rows
// cost a few dozen allocations of planning, closures and the payload
// buffers, plus the scratch buffers regrowing by doubling whenever a
// collection (or the race detector) has emptied a pool.
// BenchmarkWindowFill reports the exact figure.
func TestWindowFillAllocations(t *testing.T) {
	srv, _ := newPointsServer(t, 20000, 4096, 2048)
	pl, _ := srv.Layer("main", 0)
	sql, args := pl.WindowSQL(geom.Rect{MaxX: 2048, MaxY: 2048})
	for _, codec := range []Codec{CodecBinary, CodecJSON} {
		var rows int64
		allocs := testing.AllocsPerRun(20, func() {
			before := srv.Stats.RowsServed.Load()
			fill(t, srv, sql, args, codec)
			rows = srv.Stats.RowsServed.Load() - before
		})
		if rows < 5000 || allocs > float64(rows)/10 {
			t.Fatalf("%s fill of %d rows: %.0f allocations", codec, rows, allocs)
		}
	}
}

// TestTracedMissAccountsForRows: one traced spatial-tile miss records a
// db.query span whose rows attr is the number of rows the client decodes
// and a bytes attr that is the payload's size — for a JSON client, the
// json.write span's is — the db.query stage takes one sample, and a pure
// R-tree window reads exactly the rows it returns.
func TestTracedMissAccountsForRows(t *testing.T) {
	srv, hs := newPointsServer(t, 3000, 4096, 2048)
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		// Both codecs are served from one cached payload: empty L1 so the
		// second request misses too.
		srv.BackendCache().Clear()
		before := srv.db.Stats()
		stageBefore := sampleValue(scrape(t, hs.URL), "kyrix_stage_duration_seconds_count", "stage", "db.query")
		trace := map[Codec]string{CodecJSON: "a1", CodecBinary: "b2"}[codec]
		req, _ := http.NewRequest(http.MethodGet, hs.URL+"/tile?canvas=main&layer=0&size=512&col=2&row=1&codec="+string(codec), nil)
		req.Header.Set(obs.TraceHeader, trace+"-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		dr, err := Decode(body, codec)
		if err != nil || len(dr.Rows) == 0 {
			t.Fatalf("%s tile: %d rows, %v", codec, len(dr.Rows), err)
		}
		attrs := func(name string) map[string]string {
			t.Helper()
			var sp *obs.SpanData
			for _, d := range srv.FlightRecorder().Snapshot().Recent {
				if d.TraceID == trace {
					sp = findSpan(d, name)
				}
			}
			if sp == nil {
				t.Fatalf("%s: no %s span under trace %s", codec, name, trace)
			}
			m := map[string]string{}
			for _, a := range sp.Attrs {
				m[a.Key] = a.Value
			}
			return m
		}
		query, written := attrs("db.query"), attrs("db.query")
		if codec == CodecJSON {
			written = attrs("json.write")
		}
		if query["rows"] != strconv.Itoa(len(dr.Rows)) || written["bytes"] != strconv.Itoa(len(body)) {
			t.Fatalf("%s: db.query attrs %v, written %v, decoded %d rows from %d bytes", codec, query, written, len(dr.Rows), len(body))
		}
		if got := sampleValue(scrape(t, hs.URL), "kyrix_stage_duration_seconds_count", "stage", "db.query"); got != stageBefore+1 {
			t.Fatalf("%s: db.query stage count %v -> %v", codec, stageBefore, got)
		}
		after := srv.db.Stats()
		scanned, out := after.RowsScanned-before.RowsScanned, after.RowsOut-before.RowsOut
		if scanned != out || out != int64(len(dr.Rows)) || after.Selects != before.Selects+1 {
			t.Fatalf("%s: %d rows scanned, %d out, %d decoded, %d selects", codec, scanned, out, len(dr.Rows), after.Selects-before.Selects)
		}
	}
}

// TestWindowFillRacesUpdate (run with -race): fills of one window, in
// both codecs, race updates that rewrite two columns of a row inside it
// together. The fill copies tuple bytes off the page under the table's
// read lock and the JSON form is written from those bytes, so every
// payload holds the row whole: y and val from the same update.
func TestWindowFillRacesUpdate(t *testing.T) {
	srv, _ := newPointsServer(t, 2000, 4096, 2048)
	pl, _ := srv.Layer("main", 0)
	win := geom.Rect{MinX: 0, MinY: 0, MaxX: 4096, MaxY: 2048}
	sql, args := pl.WindowSQL(win)
	res, err := srv.db.Query("SELECT id FROM points WHERE INTERSECTS(x, y, x, y, 100, 100, 3000, 1500) LIMIT 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("no row to update: %v %v", res, err)
	}
	id := res.Rows[0][0]
	const base = 500.0
	set := func(g int) {
		if _, _, err := srv.execUpdate("UPDATE points SET y = ?, val = ? WHERE id = ?",
			[]storage.Value{storage.F64(base + float64(g)), storage.F64(float64(g)), id}); err != nil {
			t.Error(err)
		}
	}
	set(0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, codec := range []Codec{CodecJSON, CodecBinary, CodecJSON, CodecBinary} {
		wg.Add(1)
		go func(codec Codec) {
			defer wg.Done()
			for fills := 0; !stop.Load() || fills < 3; fills++ {
				p, err := srv.runQuery(context.Background(), sql, args)
				if err != nil {
					t.Error(err)
					return
				}
				raw := p.raw
				if codec == CodecJSON {
					if raw, err = jsonPayload(p.raw); err != nil {
						t.Error(err)
						return
					}
				}
				dr, err := Decode(raw, codec)
				if err != nil || len(dr.Rows) != 2000 {
					t.Errorf("%s fill: %d rows, %v", codec, len(dr.Rows), err)
					return
				}
				for _, row := range dr.Rows {
					if row[0].I == id.I && row[2].F-base != row[3].F {
						t.Errorf("%s fill serves a torn row: %v", codec, row)
						return
					}
				}
			}
		}(codec)
	}
	for g := 1; g <= 200 && !t.Failed(); g++ {
		set(g)
	}
	stop.Store(true)
	wg.Wait()
}
