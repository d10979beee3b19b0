package frontend

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"kyrix/internal/server"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// applyDeltaRows is the row-at-a-time delta apply the client ran before
// it held columns, kept as the reference applyDelta must agree with:
// base rows minus the tombstoned ids, plus the entering rows.
func applyDeltaRows(base *server.DataResponse, d wire.Delta, entering *server.DataResponse) (*server.DataResponse, error) {
	if base == nil {
		return nil, errors.New("delta frame but no base rows held")
	}
	tomb := make(map[int64]bool, len(d.Tombstones))
	for _, id := range d.Tombstones {
		tomb[id] = true
	}
	out := &server.DataResponse{Cols: entering.Cols, Types: entering.Types}
	if len(entering.Rows) == 0 {
		// An empty entering payload carries fallback column types; the
		// surviving rows are all base rows, so keep the base schema.
		out.Cols, out.Types = base.Cols, base.Types
	}
	rows := make([]storage.Row, 0, len(base.Rows)+len(entering.Rows))
	for _, row := range base.Rows {
		if len(row) == 0 || tomb[row[0].AsInt()] {
			continue
		}
		rows = append(rows, row)
	}
	rows = append(rows, entering.Rows...)
	out.Rows = rows
	return out, nil
}

// fuzzPayload encodes n random rows of the given schema. Ids come from
// a range about as wide as the rows, so duplicates and ids shared with
// the other payload both occur.
func fuzzPayload(rng *rand.Rand, types server.ColTypes, n, idRange int, codec server.Codec) []byte {
	dr := &server.DataResponse{Cols: make([]string, len(types)), Types: types, Rows: []storage.Row{}}
	for c := range types {
		dr.Cols[c] = "c" + strconv.Itoa(c)
	}
	texts := []string{"", "a", "dot", `q"uote`, "back\\slash", "é", " ", "<&>"}
	for range n {
		row := make(storage.Row, len(types))
		for c, t := range types {
			switch t {
			case storage.TInt64:
				if c == 0 {
					row[c] = storage.I64(int64(rng.Intn(idRange)) - 3)
				} else {
					row[c] = storage.I64(rng.Int63() - rng.Int63())
				}
			case storage.TFloat64:
				if c == 0 {
					row[c] = storage.F64(float64(rng.Intn(idRange)) + 0.25)
				} else {
					row[c] = storage.F64(rng.NormFloat64() * 1e4)
				}
			case storage.TString:
				row[c] = storage.Str(texts[rng.Intn(len(texts))])
			case storage.TBool:
				row[c] = storage.Bool(rng.Intn(2) == 0)
			}
		}
		dr.Rows = append(dr.Rows, row)
	}
	raw, err := server.Encode(dr, codec)
	if err != nil {
		panic(err)
	}
	return raw
}

// FuzzApplyDelta: over random base columns, tombstones and entering
// payloads in both codecs, the column-wise applyDelta yields exactly the
// rows, column names and types of the row-wise reference, and leaves
// the base it read untouched. Entering rows whose types differ from the
// surviving base rows cannot share columns: that, and only that, is an
// error.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(4), []byte{0, 2, 4, 6, 9, 200}, true)
	f.Add(int64(2), uint8(40), uint8(10), uint8(4), []byte{0, 2, 4, 6, 9, 200}, false)
	f.Add(int64(3), uint8(0), uint8(5), uint8(2), []byte{}, true)
	f.Add(int64(4), uint8(12), uint8(0), uint8(3), []byte{1, 3}, false)
	f.Add(int64(5), uint8(30), uint8(30), uint8(0x84), []byte{0}, true)
	f.Add(int64(6), uint8(8), uint8(8), uint8(0x0c), []byte{5, 7}, false)
	f.Add(int64(7), uint8(8), uint8(3), uint8(0x00), []byte{}, false)
	f.Fuzz(func(t *testing.T, seed int64, nBase, nEnter, schema uint8, tombs []byte, binary bool) {
		rng := rand.New(rand.NewSource(seed))
		codec := server.CodecJSON
		if binary {
			codec = server.CodecBinary
		}
		// Low bits: column count and the id column's type; bit 7: the
		// entering payload has another schema.
		types := make(server.ColTypes, schema%5)
		for c := range types {
			types[c] = storage.ColType(1 + rng.Intn(4))
		}
		if len(types) > 0 {
			types[0] = []storage.ColType{storage.TInt64, storage.TInt64, storage.TInt64, storage.TFloat64, storage.TString, storage.TBool}[schema>>3%6]
		}
		enterTypes := types
		if schema&0x80 != 0 {
			enterTypes = make(server.ColTypes, len(types))
			for c := range enterTypes {
				enterTypes[c] = storage.TFloat64
			}
		}
		idRange := int(nBase) + int(nEnter) + 1
		baseRaw := fuzzPayload(rng, types, int(nBase), idRange, codec)
		enterRaw := fuzzPayload(rng, enterTypes, int(nEnter), idRange, codec)
		base, err := server.DecodeColumns(baseRaw, codec)
		if err != nil {
			return // rows without columns have no binary form
		}
		entering, err := server.DecodeColumns(enterRaw, codec)
		if err != nil {
			return
		}
		baseDR, enterDR := base.Response(), entering.Response()
		var d wire.Delta
		for _, b := range tombs {
			if b&1 == 0 && len(baseDR.Rows) > 0 && len(types) > 0 {
				d.Tombstones = append(d.Tombstones, baseDR.Rows[int(b>>1)%len(baseDR.Rows)][0].AsInt())
			} else {
				d.Tombstones = append(d.Tombstones, int64(b>>1)-64)
			}
		}

		want, err := applyDeltaRows(baseDR, d, enterDR)
		if err != nil {
			t.Fatal(err)
		}
		got, err := applyDelta(base, d, entering)
		kept := len(want.Rows) - len(enterDR.Rows)
		if kept > 0 && len(enterDR.Rows) > 0 && !slices.Equal(base.Types, entering.Types) {
			if err == nil {
				t.Fatalf("entering types %v joined base types %v", entering.Types, base.Types)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.N != len(want.Rows) {
			t.Fatalf("%d rows, reference %d", got.N, len(want.Rows))
		}
		if gotDR := got.Response(); !reflect.DeepEqual(gotDR, want) {
			t.Fatalf("columns apply\n%+v\nreference\n%+v", gotDR, want)
		}
		if !reflect.DeepEqual(base.Response(), baseDR) {
			t.Fatal("applyDelta modified its base")
		}
	})
}
