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
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

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

// Codec names a wire encoding.
type Codec string

// Supported wire codecs. JSON matches what the real Kyrix frontend
// consumes; Binary is the compact alternative measured by ablation A5.
const (
	CodecJSON   Codec = "json"
	CodecBinary Codec = "binary"
)

// payloadBuilder encodes the rows of one payload as they are produced
// and assembles the binary payload around them. It is the only payload
// writer: the query path pushes executor rows into it, Encode pushes a
// DataResponse's; JSON is written from its output.
//
// Rows go into a pooled scratch buffer first, because the header cannot
// be written before them — it carries the row count, and column types
// the query path learns from its first row. A row is staged as a
// storage tuple (row-major) and only becomes columns in finish, once the
// row count fixes where each column starts. finish copies header and
// columns into one buffer of exactly the payload's size, the only
// allocation that outlives the builder.
type payloadBuilder struct {
	// types is the header's type list. Left nil, it becomes the value
	// kinds of the first row — all DOUBLE if there is none — which is the
	// query path's rule; Encode declares its own.
	types ColTypes
	// schema is types as EncodeRow wants them, built on the first row
	// that is not already a stored tuple.
	schema storage.Schema
	rows   []byte
	// starts[i] is where row i's tuple begins in rows.
	starts []int
	n      int
	// lead is, per column, the mask of the byte planes finish puts in
	// the leading run (leadPlanes).
	lead []uint8
}

var builderPool = sync.Pool{New: func() any { return new(payloadBuilder) }}

// release returns the builder's scratch buffer to the pool.
func (b *payloadBuilder) release() {
	*b = payloadBuilder{rows: b.rows[:0], starts: b.starts[:0], lead: b.lead[:0]}
	builderPool.Put(b)
}

// add stages one row. A non-nil tuple is the row's stored heap bytes
// (sqldb.RowFunc) — the row-major form finish transposes — so it is
// copied verbatim.
func (b *payloadBuilder) add(row storage.Row, tuple []byte) error {
	if b.types == nil {
		b.types = make(ColTypes, len(row))
		for i, v := range row {
			b.types[i] = v.Kind
		}
	}
	b.n++
	b.starts = append(b.starts, len(b.rows))
	if tuple != nil {
		b.rows = append(b.rows, tuple...)
		return nil
	}
	if b.schema == nil {
		b.schema = make(storage.Schema, len(b.types))
		for i, t := range b.types {
			b.schema[i].Type = t
		}
	}
	rows, err := storage.EncodeRow(b.rows, b.schema, row)
	if err != nil {
		return err
	}
	b.rows = rows
	return nil
}

// finish assembles the payload; cols and b.types must agree in length.
// colsAt is where the column sections start, past the row count.
func (b *payloadBuilder) finish(cols []string) (raw []byte, colsAt int) {
	if b.types == nil {
		b.types = make(ColTypes, len(cols))
		for i := range b.types {
			b.types[i] = storage.TFloat64
		}
	}
	b.leadPlanes()
	// The header is written behind the rows in the same scratch buffer,
	// then both are copied out in payload order.
	nrows := len(b.rows)
	hdr := binary.AppendUvarint(b.rows, uint64(len(cols)))
	for i, c := range cols {
		hdr = binary.AppendUvarint(hdr, uint64(len(c)))
		hdr = append(hdr, c...)
		hdr = append(hdr, byte(b.types[i]))
		hdr = appendLead(hdr, b.lead[i])
	}
	hdr = binary.AppendUvarint(hdr, uint64(b.n))
	b.rows = hdr // keep the grown buffer for the pool
	colsAt = len(hdr) - nrows
	// Columns hold exactly the bytes the tuples did, rearranged.
	out := make([]byte, len(hdr))
	copy(out, hdr[nrows:])
	transposeRows(out[colsAt:], hdr[:nrows], b.starts, b.types, b.lead)
	return out, colsAt
}

// leadPlanes sets b.lead: every INT and DOUBLE column's planes
// classified by leadMask over the staged tuples of the sampled rows,
// which their own cursors walk column by column; 0 for BOOL and TEXT.
func (b *payloadBuilder) leadPlanes() {
	b.lead = slices.Grow(b.lead[:0], len(b.types))[:len(b.types)]
	var cur [planeSample]int
	var sample [planeSample]uint64
	m := sampleRows(cur[:], b.n)
	for j, r := range cur[:m] {
		cur[j] = b.starts[r]
	}
	for c, t := range b.types {
		b.lead[c] = 0
		switch t {
		case storage.TInt64, storage.TFloat64:
			for j, at := range cur[:m] {
				sample[j] = binary.LittleEndian.Uint64(b.rows[at:])
				cur[j] = at + 8
			}
			b.lead[c] = leadMask(sample[:m])
		case storage.TBool:
			for j := range cur[:m] {
				cur[j]++
			}
		case storage.TString:
			for j, at := range cur[:m] {
				ln, sz := binary.Uvarint(b.rows[at:])
				cur[j] = at + sz + int(ln)
			}
		}
	}
}

// Plane classes. A byte plane is "random" when a sample of its bytes
// shows as many distinct values as bytes drawn uniformly from
// randomAlphabet values would: bytes the frame compressor stores instead
// of Huffman-coding (the wire package). Every other plane — an id's high
// bytes, a box's shared exponent bytes — is "leading": the payload puts
// the leading planes, BOOL and TEXT sections first and the random planes
// after them all, so a compressed frame is one deflated run and one
// stored run.

// planeSample is the most bytes of a plane the classifier reads: every
// byte of a shorter plane, else bytes spread evenly over it (sampleRows).
const planeSample = 128

// randomAlphabet is the smallest alphabet whose uniformly drawn bytes
// the frame compressor's entropy estimate over a 512-byte chunk puts
// above its 7 bits a byte, so stores.
const randomAlphabet = 150

// sampleRows writes the rows a plane of n rows is sampled at to rows
// (planeSample long), the j-th at j·n/m for m = min(n, planeSample), and
// returns m.
func sampleRows(rows []int, n int) int {
	m := min(n, planeSample)
	for j := range rows[:m] {
		rows[j] = j * n / m
	}
	return m
}

// randomDistinct[m] is the fewest distinct values among m sampled bytes
// that mark a plane random: the expected count for m bytes drawn
// uniformly from randomAlphabet values, rounded up. The count is exactly
// m for m ≤ 1, which the slack keeps from rounding up to m+1.
var randomDistinct = func() (t [planeSample + 1]int) {
	for m := range t {
		const k = randomAlphabet
		t[m] = int(math.Ceil(k*(1-math.Pow(1-1.0/k, float64(m))) - 1e-9))
	}
	return t
}()

// leadMask classifies the eight byte planes of an INT or DOUBLE column
// from its sampled values (at most planeSample) and returns the mask of
// the leading ones: bit k set when plane k is not random.
func leadMask(sample []uint64) uint8 {
	// seen[k][b] is 1 once plane k's sample has shown byte b.
	var seen [8][256]byte
	for _, v := range sample {
		seen[0][byte(v)] = 1
		seen[1][byte(v>>8)] = 1
		seen[2][byte(v>>16)] = 1
		seen[3][byte(v>>24)] = 1
		seen[4][byte(v>>32)] = 1
		seen[5][byte(v>>40)] = 1
		seen[6][byte(v>>48)] = 1
		seen[7][byte(v>>56)] = 1
	}
	var lead uint8
	for k := range seen {
		// A plane's distinct count is the sum of its flags: eight lanes
		// at a time (no lane passes 32), then across the lanes (the
		// total, at most planeSample, fits the top lane).
		var lanes uint64
		for i := 0; i < 256; i += 8 {
			lanes += binary.LittleEndian.Uint64(seen[k][i:])
		}
		if distinct := int(lanes * 0x0101010101010101 >> 56); distinct < randomDistinct[len(sample)] {
			lead |= 1 << k
		}
	}
	return lead
}

// appendLead appends a column's plane order: the count of its leading
// planes, then their indexes in ascending order.
func appendLead(dst []byte, lead uint8) []byte {
	dst = append(dst, byte(bits.OnesCount8(lead)))
	for k := range 8 {
		if lead>>k&1 == 1 {
			dst = append(dst, byte(k))
		}
	}
	return dst
}

// transposeRows writes the row-major storage tuples in rows (tuple i
// starting at cur[i]) into dst as the binary payload's columns. The
// leading run takes, column by column, an INT or DOUBLE column's leading
// planes (lead[c]) in ascending order, one byte per row for BOOL, and
// for TEXT every row's uvarint length, then every row's bytes; the
// trailing run after it takes every other plane, column by column in
// ascending order. cur is consumed as the per-row read cursor.
func transposeRows(dst, rows []byte, cur []int, types ColTypes, lead []uint8) {
	n, pos, tail := len(cur), 0, len(dst)
	for c, t := range types {
		if t == storage.TInt64 || t == storage.TFloat64 {
			tail -= n * (8 - bits.OnesCount8(lead[c]))
		}
	}
	for col, t := range types {
		switch t {
		case storage.TInt64, storage.TFloat64:
			var p planes
			for k := range p {
				if lead[col]>>k&1 == 1 {
					p[k], pos = dst[pos:pos+n], pos+n
				} else {
					p[k], tail = dst[tail:tail+n], tail+n
				}
			}
			// Resliced to len(cur), the planes take their writes without
			// bounds checks.
			p0, p1, p2, p3, p4, p5, p6, p7 := p[0][:n], p[1][:n], p[2][:n], p[3][:n], p[4][:n], p[5][:n], p[6][:n], p[7][:n]
			for i, c := range cur {
				v := binary.LittleEndian.Uint64(rows[c:])
				p0[i] = byte(v)
				p1[i] = byte(v >> 8)
				p2[i] = byte(v >> 16)
				p3[i] = byte(v >> 24)
				p4[i] = byte(v >> 32)
				p5[i] = byte(v >> 40)
				p6[i] = byte(v >> 48)
				p7[i] = byte(v >> 56)
				cur[i] = c + 8
			}
		case storage.TBool:
			for i, c := range cur {
				dst[pos+i] = rows[c]
				cur[i] = c + 1
			}
			pos += n
		case storage.TString:
			lens := pos
			for i, c := range cur {
				_, sz := binary.Uvarint(rows[c:])
				pos += copy(dst[pos:], rows[c:c+sz])
				cur[i] = c + sz
			}
			for i, c := range cur {
				ln, sz := binary.Uvarint(dst[lens:])
				lens += sz
				pos += copy(dst[pos:], rows[c:c+int(ln)])
				cur[i] = c + int(ln)
			}
		}
	}
}

// The JSON payload is one fixed document shape (see "Wire payloads" in
// the root package doc): appendJSONDocument and its helpers below write
// it from a binary payload's columns, jsonScanner reads it, and both
// follow encoding/json's conventions for numbers and strings byte for
// byte, so a payload is also what json.Marshal would produce for the
// same cells.

// jsonPayload writes the JSON document of a binary payload. It fails on
// a DOUBLE that JSON cannot carry (NaN, ±Inf).
func jsonPayload(raw []byte) ([]byte, error) {
	l, err := parseBinary(raw)
	if err != nil {
		return nil, err
	}
	b := builderPool.Get().(*payloadBuilder)
	defer b.release()
	return b.json(l.cols, l.types, l.nrows, raw, l.secs)
}

// json is appendJSONDocument's output at its exact size, written in b's
// scratch buffer.
func (b *payloadBuilder) json(cols []string, types ColTypes, n int, data []byte, secs []section) ([]byte, error) {
	doc, err := appendJSONDocument(b.rows[:0], cols, types, n, data, secs)
	b.rows = doc[:0]
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(doc)), doc...), nil
}

// appendJSONDocument appends the JSON document of n rows whose columns
// secs locates in data, each cell written by its column's type; a nil
// cols is written as null, as json.Marshal does.
func appendJSONDocument(dst []byte, cols []string, types ColTypes, n int, data []byte, secs []section) ([]byte, error) {
	dst = append(dst, `{"cols":`...)
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
	// ps[c] is an INT or DOUBLE column's planes; at[c] is where a TEXT
	// column's next length varint is and str[c] its next value.
	ps := make([]planes, len(types))
	at, str := make([]int, len(types)), make([]int, len(types))
	for i, t := range types {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(t), 10)
		switch t {
		case storage.TInt64, storage.TFloat64:
			ps[i] = planesOf(data, &secs[i], n)
		case storage.TString:
			at[i], str[i] = secs[i].at, secs[i].str
		}
	}
	dst = append(dst, `],"rows":[`...)
	for r := range n {
		if r > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for c, t := range types {
			if c > 0 {
				dst = append(dst, ',')
			}
			switch t {
			case storage.TInt64:
				dst = strconv.AppendInt(dst, int64(ps[c].value(r)), 10)
			case storage.TFloat64:
				var err error
				if dst, err = appendJSONFloat(dst, math.Float64frombits(ps[c].value(r))); err != nil {
					return dst, err
				}
			case storage.TBool:
				dst = strconv.AppendBool(dst, data[secs[c].at+r] != 0)
			case storage.TString:
				ln, sz := binary.Uvarint(data[at[c]:])
				at[c] += sz
				dst = appendJSONString(dst, data[str[c]:str[c]+int(ln)])
				str[c] += int(ln)
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...), nil
}

// appendJSONFloat formats f as encoding/json (and ES6) do: shortest
// round-trip digits, positional between 1e-6 and 1e21, exponent form
// outside with a one-digit negative exponent unpadded.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("server: encode json: unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s with encoding/json's default escaping:
// short escapes for the usual control characters, \u00XX for the other
// bytes below 0x20 and for <, > and &, \u2028 and \u2029 escaped, and
// invalid UTF-8 replaced by \ufffd.
func appendJSONString(dst []byte, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Encode serializes dr with the chosen codec. Cells are stored by their
// column's declared type, and JSON is written from the binary payload.
func Encode(dr *DataResponse, codec Codec) ([]byte, error) {
	if len(dr.Types) != len(dr.Cols) {
		return nil, fmt.Errorf("server: encode: %d column types for %d columns", len(dr.Types), len(dr.Cols))
	}
	if _, err := checkCodec(codec); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	b := builderPool.Get().(*payloadBuilder)
	defer b.release()
	if b.types = dr.Types; b.types == nil {
		b.types = ColTypes{} // no columns, not "ask the first row"
	}
	for _, row := range dr.Rows {
		if err := b.add(row, nil); err != nil {
			return nil, err
		}
	}
	raw, colsAt := b.finish(dr.Cols)
	if codec == CodecBinary {
		return raw, nil
	}
	// Not parsed back: parseBinary refuses rows without columns, and a
	// nil column list stays null.
	secs := make([]section, len(b.types))
	for c := range secs {
		secs[c].lead = b.lead[c]
	}
	if _, err := locate(secs, b.types, b.n, raw, colsAt); err != nil {
		return nil, err
	}
	return b.json(dr.Cols, b.types, b.n, raw, secs)
}

// Decode parses a payload produced by Encode into rows: the row view of
// DecodeColumns.
func Decode(data []byte, codec Codec) (*DataResponse, error) {
	c, err := DecodeColumns(data, codec)
	if err != nil {
		return nil, err
	}
	return c.Response(), nil
}

// DecodeColumns parses a payload produced by Encode column by column.
// It is the one reader of each codec; Decode's rows are built from its
// result.
func DecodeColumns(data []byte, codec Codec) (*Columns, error) {
	if len(data) > math.MaxUint32 {
		return nil, fmt.Errorf("server: decode: %d-byte payload", len(data))
	}
	switch codec {
	case CodecJSON, "":
		return decodeJSON(data)
	case CodecBinary:
		return decodeBinary(data)
	}
	return nil, fmt.Errorf("server: unknown codec %q", codec)
}

// jsonScanner reads the JSON payload grammar: cols, types and rows in
// that order, no insignificant whitespace. It is the one reader of the
// format. header reads the schema a token at a time, and decodeJSON
// walks the row section in one loop, reading each number cell with
// number as it scans it.
// Payloads arrive off the wire, from the L2 store and from peers, so it
// trusts nothing: everything it allocates is paid for by input bytes
// already consumed.
type jsonScanner struct {
	b   []byte
	pos int
}

var errJSONPayload = errors.New("server: decode json: not a payload document")

// lit consumes s if the input continues with it.
func (s *jsonScanner) lit(lit string) bool {
	if len(s.b)-s.pos < len(lit) || string(s.b[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// next consumes c if it is the next byte.
func (s *jsonScanner) next(c byte) bool {
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// token consumes one header item or TEXT or BOOL cell — a string with
// its quotes, or the bytes up to the next ',' or ']' — and returns it.
// nil means the input ended inside it.
func (s *jsonScanner) token() []byte {
	start := s.pos
	if s.pos < len(s.b) && s.b[s.pos] == '"' {
		for s.pos++; s.pos < len(s.b); s.pos++ {
			switch s.b[s.pos] {
			case '\\':
				s.pos++
			case '"':
				s.pos++
				return s.b[start:s.pos]
			}
		}
		return nil
	}
	for ; s.pos < len(s.b); s.pos++ {
		if c := s.b[s.pos]; c == ',' || c == ']' {
			return s.b[start:s.pos]
		}
	}
	return nil
}

// list walks a bracketed, comma-separated list of scalars positioned at
// its '[', calling item with each token.
func (s *jsonScanner) list(item func(tok []byte) error) error {
	if !s.lit("[") {
		return errJSONPayload
	}
	if s.lit("]") {
		return nil
	}
	for {
		tok := s.token()
		if len(tok) == 0 {
			return errJSONPayload
		}
		if err := item(tok); err != nil {
			return err
		}
		if s.lit("]") {
			return nil
		}
		if !s.lit(",") {
			return errJSONPayload
		}
	}
}

// header consumes everything up to and including the '[' that opens the
// row section.
func (s *jsonScanner) header() (cols []string, types ColTypes, err error) {
	if !s.lit(`{"cols":`) {
		return nil, nil, errJSONPayload
	}
	if !s.lit("null") { // what a nil column list encodes to
		cols = []string{}
		err = s.list(func(tok []byte) error {
			name, err := jsonString(tok)
			cols = append(cols, name)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	}
	if !s.lit(`,"types":`) {
		return nil, nil, errJSONPayload
	}
	types = ColTypes{}
	err = s.list(func(tok []byte) error {
		if len(tok) != 1 || tok[0] < '0'+byte(storage.TInt64) || tok[0] > '0'+byte(storage.TBool) {
			return fmt.Errorf("server: decode json: unknown column type %q", tok)
		}
		types = append(types, storage.ColType(tok[0]-'0'))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(types) != len(cols) {
		return nil, nil, fmt.Errorf("server: decode json: %d column types for %d columns", len(types), len(cols))
	}
	if !s.lit(`,"rows":[`) {
		return nil, nil, errJSONPayload
	}
	return cols, types, nil
}

// decodeJSON is DecodeColumns' JSON sink. One loop walks the row
// section and appends each cell to its column by the column's declared
// type: a number cell is read once, as it is scanned (jsonNum), and
// integers never pass through a float64. The columns' slabs are sized
// once, by jsonRowBound, and never grow. Each TEXT column unquotes into
// its own arena while the rows interleave, so its values stay
// contiguous; the arenas are joined at the end.
func decodeJSON(data []byte) (*Columns, error) {
	s := jsonScanner{b: data}
	cols, types, err := s.header()
	if err != nil {
		return nil, err
	}
	// The rows are appended to slabs of the bound's capacity, so no
	// append reallocates; a TEXT column's Offs keeps its opening 0.
	c := NewColumns(cols, types, jsonRowBound(s.b[s.pos:], len(types)))
	for col := range c.Data {
		d := &c.Data[col]
		d.Ints, d.Floats, d.Bools = d.Ints[:0], d.Floats[:0], d.Bools[:0]
		if d.Offs != nil {
			d.Offs = d.Offs[:1]
		}
	}
	c.N = 0
	texts := make([][]byte, len(types))
	for ; !s.next(']'); c.N++ {
		if c.N > 0 && !s.next(',') || !s.next('[') {
			return nil, errJSONPayload
		}
		for col, t := range types {
			if col > 0 && !s.next(',') {
				return nil, fmt.Errorf("server: row %d arity != %d", c.N, len(types))
			}
			d := &c.Data[col]
			switch t {
			case storage.TInt64:
				var v int64
				v, err = s.int()
				d.Ints = append(d.Ints, v)
			case storage.TFloat64:
				var v float64
				v, err = s.float()
				d.Floats = append(d.Floats, v)
			case storage.TString:
				if texts[col], err = appendJSONUnquoted(texts[col], s.token()); err == nil {
					d.Offs = append(d.Offs, uint32(len(texts[col])))
				}
			default: // TBool: header() admits no other type
				switch string(s.token()) {
				case "true":
					d.Bools = append(d.Bools, true)
				case "false":
					d.Bools = append(d.Bools, false)
				default:
					err = errors.New("not bool")
				}
			}
			if err != nil {
				return nil, fmt.Errorf("server: row %d col %d: %w", c.N, col, err)
			}
		}
		if !s.next(']') {
			return nil, fmt.Errorf("server: row %d arity != %d", c.N, len(types))
		}
	}
	if !s.lit("}") || s.pos != len(s.b) {
		return nil, errJSONPayload
	}
	// Clipped, as NewColumns leaves them: an append to one column must
	// not run into the next one's part of the slab.
	for col := range c.Data {
		d := &c.Data[col]
		d.Ints, d.Floats, d.Bools, d.Offs = slices.Clip(d.Ints), slices.Clip(d.Floats), slices.Clip(d.Bools), slices.Clip(d.Offs)
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
	return c, nil
}

// jsonRowBound is at least the number of rows in rows, a row section of
// ncols columns, so the column slabs can be sized before the first row.
// Every row ends with a ']' (a TEXT cell may hold more), and takes at
// least 2·ncols+2 bytes with its separator: two brackets, ncols
// one-byte cells and ncols commas. The second bound keeps a section of
// bare "]" from allocating more than a few bytes per input byte.
func jsonRowBound(rows []byte, ncols int) int {
	return min(bytes.Count(rows, []byte{']'}), (len(rows)+1)/(2*ncols+2))
}

// jsonNum is what number learned of one number cell.
type jsonNum struct {
	// mant holds the significant digits' value (leading zeros do not
	// count) when there are at most 19 of them, and is not used
	// otherwise; digits counts them, and frac the digits after the point.
	mant              uint64
	digits, frac      int
	neg, point, expon bool
}

var errNotNumber = errors.New("not a JSON number")

// number reads the number cell at the scanner's position in one pass.
// The cell must be an RFC 8259 number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, followed by ',' or
// ']'; only the digits are collected, and an exponent is checked, not
// read. Nothing is consumed if the cell is anything else.
func (s *jsonScanner) number() (n jsonNum, ok bool) {
	b, i := s.b, s.pos
	if n.neg = i < len(b) && b[i] == '-'; n.neg {
		i++
	}
	switch {
	case i >= len(b) || b[i]-'0' > 9:
		return n, false
	case b[i] == '0':
		i++
	default:
		at := i
		i, n.mant = digitRun(b, i, 0)
		n.digits = i - at
	}
	if i < len(b) && b[i] == '.' {
		n.point = true
		i++
		at := i
		if n.digits == 0 { // zeros after "0." are not significant
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		sig := i
		if i, n.mant = digitRun(b, i, n.mant); i == at {
			return n, false
		}
		n.digits += i - sig
		n.frac = i - at
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		n.expon = true
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		at := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		if i == at {
			return n, false
		}
	}
	if i >= len(b) || b[i] != ',' && b[i] != ']' {
		return n, false
	}
	s.pos = i
	return n, true
}

// digitRun reads the run of digits at b[i:] into mant, which wraps past
// 19 digits, and returns where the run ends.
func digitRun(b []byte, i int, mant uint64) (int, uint64) {
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		mant = mant*10 + uint64(d)
	}
	return i, mant
}

// Powers of ten that are exact in a float64 (up to 1e22) and in a
// uint64 (up to 1e19).
var (
	float64Pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	uint64Pow10 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
		1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// float reads a DOUBLE cell, bit for bit as strconv.ParseFloat does. The
// positional text appendJSONFloat writes, at most 19 significant digits,
// is mant / 10^frac, rounded once: by a float64 division when both
// operands are exact (Clinger's fast path), by divPow10 otherwise.
// Exponent form and longer digit strings go to strconv.
func (s *jsonScanner) float() (float64, error) {
	start := s.pos
	n, ok := s.number()
	if !ok {
		return 0, errNotNumber
	}
	if n.expon || n.digits > 19 || n.mant > 1<<53 && n.frac > 19 || n.frac > 22 {
		return strconv.ParseFloat(string(s.b[start:s.pos]), 64)
	}
	var f float64
	if n.mant <= 1<<53 {
		f = float64(n.mant) / float64Pow10[n.frac]
	} else {
		f = divPow10(n.mant, n.frac)
	}
	if n.neg {
		f = -f
	}
	return f, nil
}

// divPow10 returns m / 10^k rounded to nearest, ties to even, for
// 2^53 < m < 2^64 and k <= 19. Both are shifted left until their top bit
// is set; one 128-by-64-bit division of half the mantissa, so that the
// high word is below the divisor, gives a quotient of 63 or 64 bits. Its
// top 53 are the result, and the dropped bits, with the remainder as
// the sticky bit, round it.
func divPow10(m uint64, k int) float64 {
	d := uint64Pow10[k]
	lm, ld := bits.LeadingZeros64(m), bits.LeadingZeros64(d)
	m, d = m<<lm, d<<ld
	q, r := bits.Div64(m>>1, m<<63, d) // q = ⌊m·2^63 / d⌋
	sh := 64 - 53 - bits.LeadingZeros64(q)
	mant, dropped, half := q>>sh, q&(1<<sh-1), uint64(1)<<(sh-1)
	if dropped > half || dropped == half && (r != 0 || mant&1 == 1) {
		mant++ // 2^53 at most, still exact
	}
	return math.Ldexp(float64(mant), sh-63+ld-lm)
}

// int reads an INT cell exactly. An integer beyond int64's range goes to
// strconv.ParseInt, which refuses it.
func (s *jsonScanner) int() (int64, error) {
	start := s.pos
	n, ok := s.number()
	if !ok {
		return 0, errNotNumber
	}
	if n.point || n.expon {
		return 0, errors.New("not an integer")
	}
	if n.digits > 19 || n.mant > math.MaxInt64 && !(n.neg && n.mant == 1<<63) {
		return strconv.ParseInt(string(s.b[start:s.pos]), 10, 64)
	}
	v := int64(n.mant)
	if n.neg {
		v = -v
	}
	return v, nil
}

// jsonString unquotes a string token.
func jsonString(tok []byte) (string, error) {
	out, err := appendJSONUnquoted(nil, tok)
	return string(out), err
}

// appendJSONUnquoted appends the unquoted contents of a string token to
// dst.
func appendJSONUnquoted(dst, tok []byte) ([]byte, error) {
	if len(tok) < 2 || tok[0] != '"' || tok[len(tok)-1] != '"' {
		return dst, errors.New("not string")
	}
	body := tok[1 : len(tok)-1]
	esc := bytes.IndexByte(body, '\\')
	if esc < 0 {
		return append(dst, body...), nil
	}
	out := append(dst, body[:esc]...)
	for i := esc; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		if i++; i >= len(body) {
			return dst, errors.New("bad string escape")
		}
		switch body[i] {
		case '"', '\\', '/':
			out = append(out, body[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := jsonHex4(body[i+1:])
			if !ok {
				return dst, errors.New("bad \\u escape")
			}
			i += 4
			if utf16.IsSurrogate(r) {
				// A pair is two consecutive escapes; a lone half decodes
				// to U+FFFD, as in encoding/json.
				r2, ok := rune(0), false
				if i+2 < len(body) && body[i+1] == '\\' && body[i+2] == 'u' {
					r2, ok = jsonHex4(body[i+3:])
				}
				if dec := utf16.DecodeRune(r, r2); ok && dec != utf8.RuneError {
					r = dec
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return dst, errors.New("bad string escape")
		}
	}
	return out, nil
}

// jsonHex4 reads the four hex digits of a \u escape.
func jsonHex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// binaryLayout locates the sections of a binary payload.
type binaryLayout struct {
	cols  []string
	types ColTypes
	nrows int
	// secs[c] locates column c.
	secs []section
}

// section locates one column of a binary payload.
type section struct {
	// name is the column's header entry from its name length through its
	// type byte: data[name[0]:name[1]].
	name [2]int
	// lead is the mask of an INT or DOUBLE column's planes in the leading
	// run: bit k for plane k.
	lead uint8
	// plane[k] is where byte plane k of an INT or DOUBLE column starts.
	plane [8]int
	// at is where a BOOL column's bytes or a TEXT column's length varints
	// start, and str where a TEXT column's bytes start.
	at, str int
}

// parseBinary reads the header of a binary payload and finds every
// column's section. Payloads arrive off the wire, from the L2 store and
// from peers, so no count is trusted further than the bytes behind it: a
// column costs at least three bytes (name length, type, plane count), a
// name or plane order cannot outrun the input, a row costs at least
// eight bytes per INT or DOUBLE column and one per BOOL or TEXT column,
// and the sections must end exactly at the end of the input — a corrupt
// header is an error, never an allocation.
func parseBinary(data []byte) (binaryLayout, error) {
	var l binaryLayout
	ncols, n := binary.Uvarint(data)
	if n <= 0 {
		return l, fmt.Errorf("server: decode binary header: bad column count")
	}
	off := n
	if ncols > uint64(len(data)-off)/3 {
		return l, fmt.Errorf("server: decode binary header: %d columns in %d bytes", ncols, len(data)-off)
	}
	l.cols, l.types, l.secs = make([]string, ncols), make(ColTypes, ncols), make([]section, ncols)
	minRow := 0
	for i := range l.cols {
		sec := &l.secs[i]
		sec.name[0] = off
		ln, n := binary.Uvarint(data[off:])
		if n <= 0 || ln >= uint64(len(data)-off-n) {
			return l, fmt.Errorf("server: decode col name %d: truncated", i)
		}
		off += n
		l.cols[i] = string(data[off : off+int(ln)])
		off += int(ln)
		l.types[i] = storage.ColType(data[off])
		off++
		sec.name[1] = off
		switch l.types[i] {
		case storage.TInt64, storage.TFloat64:
			minRow += 8
		case storage.TBool, storage.TString:
			minRow++
		default:
			return l, fmt.Errorf("server: decode col %d: unknown type %d", i, l.types[i])
		}
		var err error
		if sec.lead, off, err = readLead(data, off, l.types[i]); err != nil {
			return l, fmt.Errorf("server: decode col %d: %w", i, err)
		}
	}
	nrows, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return l, fmt.Errorf("server: decode row count: truncated")
	}
	off += n
	if nrows > uint64(len(data)-off)/uint64(max(minRow, 1)) {
		return l, fmt.Errorf("server: decode row count: %d rows in %d bytes", nrows, len(data)-off)
	}
	l.nrows = int(nrows)
	end, err := locate(l.secs, l.types, l.nrows, data, off)
	switch {
	case err != nil:
		return l, err
	case end > len(data):
		return l, fmt.Errorf("server: decode binary: planes end %d bytes past the payload", end-len(data))
	case end < len(data):
		return l, fmt.Errorf("server: decode binary: %d bytes past the last column", len(data)-end)
	}
	return l, nil
}

// readLead reads the plane order of one column at off: the count of its
// leading planes and their indexes, strictly ascending. A BOOL or TEXT
// column has no planes, so its count is 0.
func readLead(data []byte, off int, t storage.ColType) (lead uint8, end int, err error) {
	if off >= len(data) {
		return 0, off, errors.New("truncated plane order")
	}
	f := int(data[off])
	off++
	switch {
	case f > 0 && (t == storage.TBool || t == storage.TString):
		return 0, off, fmt.Errorf("plane order on a type %d column", t)
	case f > 8:
		return 0, off, fmt.Errorf("%d leading planes", f)
	case f > len(data)-off:
		return 0, off, errors.New("truncated plane order")
	}
	prev := -1
	for _, k := range data[off : off+f] {
		switch {
		case k >= 8:
			return 0, off, fmt.Errorf("plane %d out of range", k)
		case int(k) <= prev:
			return 0, off, fmt.Errorf("plane %d repeated or out of order", k)
		}
		lead |= 1 << k
		prev = int(k)
	}
	return lead, off + f, nil
}

// locate fills in where every column of n rows lies, given each
// column's lead, for sections starting at off: the leading run — column
// by column, an INT or DOUBLE column's leading planes, a BOOL column's
// bytes, a TEXT column's lengths and bytes — then the trailing run of
// every other plane, column by column. It returns where the sections
// end, which a caller checks against len(data); a TEXT column's lengths
// are read bounded by data.
func locate(secs []section, types ColTypes, n int, data []byte, off int) (end int, err error) {
	for c, t := range types {
		sec := &secs[c]
		switch t {
		case storage.TInt64, storage.TFloat64:
			for k := range sec.plane {
				if sec.lead>>k&1 == 1 {
					sec.plane[k], off = off, off+n
				}
			}
		case storage.TBool:
			sec.at, off = off, off+n
		case storage.TString:
			sec.at = off
			if sec.str, off, err = textSection(data, off, n); err != nil {
				return 0, fmt.Errorf("server: decode col %d: %w", c, err)
			}
		}
		if off > len(data) {
			return 0, fmt.Errorf("server: decode col %d: truncated", c)
		}
	}
	for c, t := range types {
		if t != storage.TInt64 && t != storage.TFloat64 {
			continue
		}
		sec := &secs[c]
		for k := range sec.plane {
			if sec.lead>>k&1 == 0 {
				sec.plane[k], off = off, off+n
			}
		}
	}
	return off, nil
}

var errTruncatedText = errors.New("truncated TEXT column")

// textSection walks the n length varints of the TEXT column starting
// at off and returns where its bytes start and end.
func textSection(data []byte, off, n int) (str, end int, err error) {
	total := 0
	for range n {
		ln, sz := binary.Uvarint(data[min(off, len(data)):])
		if sz <= 0 || ln > uint64(len(data)) {
			return 0, 0, errTruncatedText
		}
		off += sz
		total += int(ln)
		if total > len(data) {
			return 0, 0, errTruncatedText
		}
	}
	return off, off + total, nil
}

// decodeBinary is DecodeColumns' binary sink. parseBinary bounds every
// count by the input, so the column slabs are too, and each column fills
// in one pass over its section: byte planes into words, BOOL bytes, and
// a TEXT column's bytes copied into the arena whole, its lengths turned
// into offsets.
func decodeBinary(data []byte) (*Columns, error) {
	l, err := parseBinary(data)
	if err != nil {
		return nil, err
	}
	n := l.nrows
	c := NewColumns(l.cols, l.types, n)
	for col, t := range l.types {
		sec, d := &l.secs[col], &c.Data[col]
		switch t {
		case storage.TInt64:
			// The planes resliced to the column's length let the compiler
			// drop every bounds check from the loop.
			p := planesOf(data, sec, n)
			p0, p1, p2, p3, p4, p5, p6, p7 := p[0][:n], p[1][:n], p[2][:n], p[3][:n], p[4][:n], p[5][:n], p[6][:n], p[7][:n]
			out := d.Ints[:n]
			for i := range out {
				out[i] = int64(uint64(p0[i]) | uint64(p1[i])<<8 | uint64(p2[i])<<16 | uint64(p3[i])<<24 |
					uint64(p4[i])<<32 | uint64(p5[i])<<40 | uint64(p6[i])<<48 | uint64(p7[i])<<56)
			}
		case storage.TFloat64:
			p := planesOf(data, sec, n)
			p0, p1, p2, p3, p4, p5, p6, p7 := p[0][:n], p[1][:n], p[2][:n], p[3][:n], p[4][:n], p[5][:n], p[6][:n], p[7][:n]
			out := d.Floats[:n]
			for i := range out {
				out[i] = math.Float64frombits(uint64(p0[i]) | uint64(p1[i])<<8 | uint64(p2[i])<<16 | uint64(p3[i])<<24 |
					uint64(p4[i])<<32 | uint64(p5[i])<<40 | uint64(p6[i])<<48 | uint64(p7[i])<<56)
			}
		case storage.TBool:
			for i, b := range data[sec.at : sec.at+n] {
				d.Bools[i] = b != 0
			}
		case storage.TString:
			pos, at := sec.at, uint32(len(c.Text))
			d.Offs[0] = at
			for i := range n {
				ln, sz := binary.Uvarint(data[pos:])
				pos += sz
				at += uint32(ln)
				d.Offs[i+1] = at
			}
			c.Text = append(c.Text, data[sec.str:sec.str+int(at-d.Offs[0])]...)
		}
	}
	return c, nil
}

// planes is the eight byte planes of an INT or DOUBLE column, least
// significant first, each one byte per row.
type planes [8][]byte

// planesOf returns the planes of the n-row column sec locates in data.
func planesOf(data []byte, sec *section, n int) (p planes) {
	for k, at := range sec.plane {
		p[k] = data[at : at+n]
	}
	return p
}

// value reassembles value i of the column from its eight bytes.
func (p *planes) value(i int) uint64 {
	return uint64(p[0][i]) | uint64(p[1][i])<<8 | uint64(p[2][i])<<16 | uint64(p[3][i])<<24 |
		uint64(p[4][i])<<32 | uint64(p[5][i])<<40 | uint64(p[6][i])<<48 | uint64(p[7][i])<<56
}
