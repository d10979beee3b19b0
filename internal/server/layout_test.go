package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"kyrix/internal/storage"
)

// encodeColumnMajor writes dr in the binary layout that preceded the
// class-ordered one: a header without plane orders, then each column's
// section in column order — eight byte planes per INT or DOUBLE column,
// least significant first, one byte per row for BOOL, and for TEXT
// every row's length varint, then every row's bytes. An L2 directory
// written before the change holds these bytes under "bincol/".
func encodeColumnMajor(t testing.TB, dr *DataResponse) []byte {
	t.Helper()
	out := binary.AppendUvarint(nil, uint64(len(dr.Cols)))
	for i, c := range dr.Cols {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
		out = append(out, byte(dr.Types[i]))
	}
	out = binary.AppendUvarint(out, uint64(len(dr.Rows)))
	for c, typ := range dr.Types {
		switch typ {
		case storage.TInt64, storage.TFloat64:
			for k := range 8 {
				for _, row := range dr.Rows {
					v := uint64(row[c].I)
					if typ == storage.TFloat64 {
						v = math.Float64bits(row[c].F)
					}
					out = append(out, byte(v>>(8*k)))
				}
			}
		case storage.TBool:
			for _, row := range dr.Rows {
				b := byte(0)
				if row[c].B {
					b = 1
				}
				out = append(out, b)
			}
		case storage.TString:
			for _, row := range dr.Rows {
				out = binary.AppendUvarint(out, uint64(len(row[c].S)))
			}
			for _, row := range dr.Rows {
				out = append(out, row[c].S...)
			}
		}
	}
	return out
}

// decodeColumnMajor reads encodeColumnMajor's layout into columns, the
// reader that layout had. It trusts its input.
func decodeColumnMajor(data []byte) (*Columns, error) {
	ncols, off := binary.Uvarint(data)
	cols, types := make([]string, ncols), make(ColTypes, ncols)
	for i := range cols {
		ln, n := binary.Uvarint(data[off:])
		off += n
		cols[i] = string(data[off : off+int(ln)])
		off += int(ln)
		types[i] = storage.ColType(data[off])
		off++
	}
	nrows, n := binary.Uvarint(data[off:])
	off += n
	rows := int(nrows)
	c := NewColumns(cols, types, rows)
	for col, t := range types {
		d := &c.Data[col]
		switch t {
		case storage.TInt64, storage.TFloat64:
			for i := range rows {
				var v uint64
				for k := range 8 {
					v |= uint64(data[off+k*rows+i]) << (8 * k)
				}
				if t == storage.TInt64 {
					d.Ints[i] = int64(v)
				} else {
					d.Floats[i] = math.Float64frombits(v)
				}
			}
			off += 8 * rows
		case storage.TBool:
			for i := range rows {
				d.Bools[i] = data[off+i] != 0
			}
			off += rows
		case storage.TString:
			at := uint32(len(c.Text))
			d.Offs[0] = at
			for i := range rows {
				ln, n := binary.Uvarint(data[off:])
				off += n
				at += uint32(ln)
				d.Offs[i+1] = at
			}
			total := int(at - d.Offs[0])
			c.Text = append(c.Text, data[off:off+total]...)
			off += total
		}
	}
	if off != len(data) {
		return nil, errors.New("column-major payload: trailing bytes")
	}
	return c, nil
}

// layoutResponse draws a schema of 1…6 columns of every type and n rows
// whose DOUBLE cells include NaNs with payload bits, the infinities and
// negative zero. Given enough rows, a fixed-width column's low bytes
// are random and its high bytes repeat a few values, so both plane
// classes occur.
func layoutResponse(rng *rand.Rand, n int) *DataResponse {
	dr := &DataResponse{}
	for i, ncols := 0, 1+rng.Intn(6); i < ncols; i++ {
		dr.Cols = append(dr.Cols, awkwardStrings[rng.Intn(len(awkwardStrings))]+strconv.Itoa(i))
		dr.Types = append(dr.Types, []storage.ColType{storage.TInt64, storage.TFloat64, storage.TString, storage.TBool}[rng.Intn(4)])
	}
	for range n {
		row := make(storage.Row, len(dr.Types))
		for c, typ := range dr.Types {
			switch typ {
			case storage.TInt64:
				row[c] = storage.I64([]int64{rng.Int63n(1 << 20), -rng.Int63n(1 << 12), math.MinInt64, rng.Int63()}[rng.Intn(4)])
			case storage.TFloat64:
				row[c] = storage.F64([]float64{
					math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x000fffffffffffff), // NaN, random payload
					math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
					8192 + rng.Float64()*1536, rng.NormFloat64(),
				}[rng.Intn(6)])
			case storage.TString:
				row[c] = storage.Str(awkwardStrings[rng.Intn(len(awkwardStrings))])
			case storage.TBool:
				row[c] = storage.Bool(rng.Intn(2) == 0)
			}
		}
		dr.Rows = append(dr.Rows, row)
	}
	return dr
}

// TestClassOrderedMatchesColumnMajor: over random schemas of every
// column type and 0, 1, 7, 8, 9 and up to 1500 rows, the class-ordered
// payload and the column-major one decode to identical columns, NaN
// bits included; the class-ordered payload is the same size plus its
// plane orders, and the row index and a subset of every row see the
// same payload.
func TestClassOrderedMatchesColumnMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	counts := []int{0, 1, 7, 8, 9}
	for trial := range 300 {
		n := counts[trial%len(counts)]
		if trial%3 == 0 {
			n = rng.Intn(1500)
		}
		dr := layoutResponse(rng, n)
		raw, err := Encode(dr, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		ref := encodeColumnMajor(t, dr)
		got, err := DecodeColumns(raw, CodecBinary)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := decodeColumnMajor(ref)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if diff := sameColumns(got, want); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
		l, err := parseBinary(raw)
		if err != nil {
			t.Fatal(err)
		}
		orders := 0
		for _, sec := range l.secs {
			orders += 1 + bits.OnesCount8(sec.lead)
		}
		if len(raw) != len(ref)+orders {
			t.Fatalf("trial %d: %d bytes, column-major %d plus %d bytes of plane orders", trial, len(raw), len(ref), orders)
		}
		ix := buildRowIndex(raw)
		all := make([]uint32, n)
		for i := range all {
			all[i] = uint32(i)
		}
		if ix == nil || !bytes.Equal(ix.subset(raw, all), raw) {
			t.Fatalf("trial %d: the subset of every row is not the payload", trial)
		}
	}
}

// TestPlanesOrderedByClass: a bench-shaped box puts every random plane
// after every other section, and its header says which: an id's two
// low bytes and the six low mantissa bytes of each coordinate.
func TestPlanesOrderedByClass(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	dr := &DataResponse{
		Cols:  []string{"id", "x", "y", "name", "ok"},
		Types: ColTypes{storage.TInt64, storage.TFloat64, storage.TFloat64, storage.TString, storage.TBool},
	}
	for i := range 1066 {
		dr.Rows = append(dr.Rows, storage.Row{
			storage.I64(int64(rng.Intn(1_000_000))), storage.F64(8192 + rng.Float64()*1536), storage.F64(4096 + rng.Float64()*1536),
			storage.Str([]string{"a", "bb", ""}[i%3]), storage.Bool(i%2 == 0),
		})
	}
	raw, err := Encode(dr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	l, err := parseBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint8{0b11111100, 0b11000000, 0b11000000, 0, 0}; !slices.Equal(leads(l), want) {
		t.Fatalf("leading planes %08b, want %08b", leads(l), want)
	}
	// The trailing run is the 14 random planes, in column then plane order.
	tail := len(raw) - 14*1066
	for _, want := range []struct{ col, plane int }{{0, 0}, {0, 1}, {1, 0}, {1, 5}, {2, 0}, {2, 5}} {
		k := want.plane
		if want.col > 0 {
			k += 2 + 6*(want.col-1)
		}
		if got := l.secs[want.col].plane[want.plane]; got != tail+k*1066 {
			t.Errorf("col %d plane %d at %d, want %d", want.col, want.plane, got, tail+k*1066)
		}
	}
	if l.secs[4].at+1066 != tail {
		t.Errorf("the BOOL column ends at %d, the trailing run starts at %d", l.secs[4].at+1066, tail)
	}
}

func leads(l binaryLayout) []uint8 {
	out := make([]uint8, len(l.secs))
	for i, sec := range l.secs {
		out[i] = sec.lead
	}
	return out
}
