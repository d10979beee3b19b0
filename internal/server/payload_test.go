package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// rowsDelta is the reference delta planner: the rows-based algorithm
// the server ran before payloads carried a row index — decode both
// payloads, diff through two id sets, re-encode the entering rows. The
// index-built delta must equal its output byte for byte.
func rowsDelta(t *testing.T, basePayload, full []byte, codec Codec) ([]byte, bool) {
	t.Helper()
	intIdentity := func(dr *DataResponse) bool {
		if len(dr.Cols) == 0 || len(dr.Types) == 0 {
			return false
		}
		return len(dr.Rows) == 0 || dr.Types[0] == storage.TInt64
	}
	baseDR, err := Decode(basePayload, codec)
	if err != nil {
		t.Fatal(err)
	}
	newDR, err := Decode(full, codec)
	if err != nil {
		t.Fatal(err)
	}
	if !intIdentity(baseDR) || !intIdentity(newDR) {
		return nil, false
	}
	newIDs := make(map[int64]bool, len(newDR.Rows))
	for _, row := range newDR.Rows {
		newIDs[row[0].AsInt()] = true
	}
	baseIDs := make(map[int64]bool, len(baseDR.Rows))
	var tombstones []int64
	for _, row := range baseDR.Rows {
		id := row[0].AsInt()
		baseIDs[id] = true
		if !newIDs[id] {
			tombstones = append(tombstones, id)
		}
	}
	if len(newIDs) != len(newDR.Rows) || len(baseIDs) != len(baseDR.Rows) {
		return nil, false
	}
	var entering []storage.Row
	for _, row := range newDR.Rows {
		if !baseIDs[row[0].AsInt()] {
			entering = append(entering, row)
		}
	}
	enterPayload, err := Encode(&DataResponse{Cols: newDR.Cols, Types: newDR.Types, Rows: entering}, codec)
	if err != nil {
		t.Fatal(err)
	}
	body := wire.EncodeDelta(wire.Delta{
		FullLen: len(full), NewID: wire.PayloadID(full),
		Tombstones: tombstones, Entering: enterPayload,
	})
	if len(body) >= len(full) {
		return nil, false
	}
	return body, true
}

// binaryOf is the binary payload holding the rows of raw, a payload of
// codec: what the server caches for the box a client of codec received
// as raw.
func binaryOf(t testing.TB, raw []byte, codec Codec) []byte {
	t.Helper()
	if codec == CodecBinary {
		return raw
	}
	dr, err := Decode(raw, codec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Encode(dr, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// indexDelta plans the same delta from row indexes scanned out of the
// cached binary payloads, as planDeltaFrame does past its request-level
// guards, for a client of codec that received basePayload and full.
func indexDelta(t testing.TB, basePayload, full []byte, codec Codec) ([]byte, bool) {
	t.Helper()
	binFull := binaryOf(t, full, codec)
	bix, nix := buildRowIndex(binaryOf(t, basePayload, codec)), buildRowIndex(binFull)
	if bix == nil || nix == nil || !bix.diffable || !nix.diffable {
		return nil, false
	}
	return deltaBody(bix, nix, newPayload(binFull), formSum{id: wire.PayloadID(full), size: len(full)}, codec)
}

var awkwardStrings = []string{
	"", "plain", `quo"te`, `back\slash`, "a,b", "]}", "[[", `"rows":[`, "<&>", "ünï-✓", "tab\tnl\n", `\"`, " ",
}

// randomUniverse draws a schema (integer id first, then a random mix
// of column types with awkward names) and one fixed row per id, so two
// payloads cut from it agree on every shared row — the same-id ⇒
// same-content premise of the id diff.
func randomUniverse(rng *rand.Rand, n int) (cols []string, types ColTypes, rows []storage.Row) {
	cols, types = []string{"id"}, ColTypes{storage.TInt64}
	for i, extra := 0, rng.Intn(5); i < extra; i++ {
		cols = append(cols, awkwardStrings[rng.Intn(len(awkwardStrings))]+strconv.Itoa(i))
		types = append(types, []storage.ColType{storage.TInt64, storage.TFloat64, storage.TString, storage.TBool}[rng.Intn(4)])
	}
	for _, id := range rng.Perm(n) {
		row := storage.Row{storage.I64(int64(id)*7919 - int64(n)*3000)}
		for _, typ := range types[1:] {
			switch typ {
			case storage.TInt64:
				row = append(row, storage.I64(rng.Int63n(1<<50)-1<<49))
			case storage.TFloat64:
				row = append(row, storage.F64([]float64{0, 1, -2.5, 1e21, 1e-7, rng.NormFloat64() * 1e4}[rng.Intn(6)]))
			case storage.TString:
				row = append(row, storage.Str(awkwardStrings[rng.Intn(len(awkwardStrings))]))
			case storage.TBool:
				row = append(row, storage.Bool(rng.Intn(2) == 0))
			}
		}
		rows = append(rows, row)
	}
	return cols, types, rows
}

func randomSubset(rng *rand.Rand, rows []storage.Row, keep float64) []storage.Row {
	var out []storage.Row
	for _, i := range rng.Perm(len(rows)) {
		if rng.Float64() < keep {
			out = append(out, rows[i])
		}
	}
	return out
}

// TestIndexDeltaMatchesRowsPlanner: over random payload pairs and both
// codecs, the delta assembled from row indexes (byte ranges copied out
// of the new payload) is exactly the delta the rows-based planner
// encodes — and the two planners agree on when not to delta at all.
func TestIndexDeltaMatchesRowsPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		deltas := 0
		for trial := 0; trial < 300; trial++ {
			cols, types, universe := randomUniverse(rng, 1+rng.Intn(60))
			keep := []float64{0, 0.3, 0.8, 1}
			baseRows := randomSubset(rng, universe, keep[rng.Intn(4)])
			newRows := randomSubset(rng, universe, keep[rng.Intn(4)])
			switch trial % 25 {
			case 7: // duplicate id on one side: the set diff would be wrong
				if len(newRows) > 0 {
					newRows = append(newRows, newRows[0])
				}
			case 13: // no integer identity
				cols, types = cols[1:], types[1:]
				for i := range baseRows {
					baseRows[i] = baseRows[i][1:]
				}
				baseRows, newRows = baseRows[:len(baseRows):len(baseRows)], nil
			}
			base, err := Encode(&DataResponse{Cols: cols, Types: types, Rows: baseRows}, codec)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Encode(&DataResponse{Cols: cols, Types: types, Rows: newRows}, codec)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := rowsDelta(t, base, full, codec)
			got, gotOK := indexDelta(t, base, full, codec)
			if gotOK != wantOK {
				t.Fatalf("%s trial %d: index planner ok=%v, rows planner ok=%v", codec, trial, gotOK, wantOK)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s trial %d: delta bytes differ\n index %q\n rows  %q", codec, trial, got, want)
			}
			if gotOK {
				deltas++
			}
		}
		if deltas < 50 {
			t.Fatalf("%s: only %d of 300 trials produced a delta; the generator is not exercising the planner", codec, deltas)
		}
	}
}

// samplePayload is a real binary payload: four columns, a handful of
// rows, as a query would produce it.
func samplePayload(t testing.TB) []byte {
	t.Helper()
	raw, err := Encode(&DataResponse{
		Cols:  []string{"id", "x", "name", "ok"},
		Types: ColTypes{storage.TInt64, storage.TFloat64, storage.TString, storage.TBool},
		Rows: []storage.Row{
			{storage.I64(1), storage.F64(0.5), storage.Str("a"), storage.Bool(true)},
			{storage.I64(2), storage.F64(-3), storage.Str(""), storage.Bool(false)},
			{storage.I64(3), storage.F64(1e9), storage.Str("long enough to matter"), storage.Bool(true)},
		},
	}, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDecodeBinaryBounded: counts and lengths read off the wire are
// bounded by the bytes behind them, so a corrupt or hostile header is
// an error — before this, an inflated count reached make() and
// panicked or exhausted memory. The row-index scan shares the reader.
func TestDecodeBinaryBounded(t *testing.T) {
	good := samplePayload(t)
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"inflated column count", append(append([]byte{}, huge...), good[1:]...)},
		{"column count past input", []byte{40, 1, 'a', 1, 0}},
		{"inflated name length", append(append([]byte{4}, huge...), good[2:]...)},
		{"name runs off the end", []byte{1, 9, 'a', 'b'}},
		{"missing type byte", []byte{1, 2, 'i', 'd'}},
		{"unknown column type", []byte{1, 2, 'i', 'd', 99, 0, 0}},
		{"missing plane order", []byte{1, 2, 'i', 'd', 1}},
		{"missing row count", []byte{1, 2, 'i', 'd', 1, 0}},
		{"inflated row count", append(append([]byte{1, 2, 'i', 'd', 1, 0}, huge...), make([]byte, 16)...)},
		{"row count past input", []byte{1, 2, 'i', 'd', 1, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"inflated string length", append(append([]byte{1, 1, 's', 3, 0, 1}, huge...), 'x')},
		{"truncated last row", good[:len(good)-3]},
		{"plane out of range", []byte{1, 2, 'i', 'd', 1, 1, 8, 1, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"plane repeated", []byte{1, 2, 'i', 'd', 1, 2, 3, 3, 1, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"planes out of order", []byte{1, 2, 'i', 'd', 1, 2, 4, 3, 1, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"nine planes", []byte{1, 2, 'i', 'd', 1, 9, 0, 1, 2, 3, 4, 5, 6, 7, 7, 1, 1, 0, 0, 0, 0, 0, 0, 0}},
		{"plane order runs off the end", []byte{1, 2, 'i', 'd', 1, 3, 0, 1}},
		{"plane order on BOOL", []byte{1, 2, 'o', 'k', 4, 1, 0, 1, 1}},
		{"plane order on TEXT", []byte{1, 1, 's', 3, 1, 0, 1, 1, 'x'}},
	} {
		if dr, err := Decode(tc.data, CodecBinary); err == nil {
			t.Errorf("%s: decoded %d rows from a corrupt payload, want an error", tc.name, len(dr.Rows))
		}
		if ix := buildRowIndex(tc.data); ix != nil {
			t.Errorf("%s: corrupt payload indexed as %d rows", tc.name, ix.n)
		}
		// A refusal allocates what the header's bytes pay for — its
		// names, per-column bookkeeping and the error — never what a
		// count claims.
		allocated := allocatedBytes(func() { _, _ = parseBinary(tc.data) })
		if allocated > uint64(128*len(tc.data)+512) {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.data), allocated)
		}
	}
	if dr, err := Decode(good, CodecBinary); err != nil || len(dr.Rows) != 3 {
		t.Fatalf("intact payload: %v", err)
	}
	if ix := buildRowIndex(good); ix == nil || ix.n != 3 || !ix.diffable {
		t.Fatalf("intact payload index = %+v", ix)
	}
}

// allocatedBytes is the heap bytes one call of f allocates, averaged
// over 1000 calls so that what other goroutines allocate meanwhile
// washes out.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 1000 {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 1000
}

// randomResponse draws a schema of 0…6 columns mixing every type and
// up to maxRows rows of awkward cells: extreme integers and doubles,
// negative zero, empty and multi-byte strings, long strings whose
// length varint takes two bytes. A schema with no columns gets no rows:
// such rows have no bytes to be counted by.
func randomResponse(rng *rand.Rand, maxRows int) *DataResponse {
	dr := &DataResponse{Cols: []string{}, Types: ColTypes{}, Rows: []storage.Row{}}
	for i, n := 0, rng.Intn(7); i < n; i++ {
		dr.Cols = append(dr.Cols, awkwardStrings[rng.Intn(len(awkwardStrings))]+strconv.Itoa(i))
		dr.Types = append(dr.Types, []storage.ColType{storage.TInt64, storage.TFloat64, storage.TString, storage.TBool}[rng.Intn(4)])
	}
	for i, n := 0, rng.Intn(maxRows+1); i < n && len(dr.Types) > 0; i++ {
		row := make(storage.Row, len(dr.Types))
		for c, typ := range dr.Types {
			switch typ {
			case storage.TInt64:
				row[c] = storage.I64([]int64{0, -1, math.MaxInt64, math.MinInt64, rng.Int63(), rng.Int63n(1 << 20)}[rng.Intn(6)])
			case storage.TFloat64:
				row[c] = storage.F64([]float64{0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, rng.NormFloat64(), rng.Float64() * 131072}[rng.Intn(6)])
			case storage.TString:
				str := awkwardStrings[rng.Intn(len(awkwardStrings))]
				if rng.Intn(8) == 0 {
					str = strings.Repeat(str+"~", 40)
				}
				row[c] = storage.Str(str)
			case storage.TBool:
				row[c] = storage.Bool(rng.Intn(2) == 0)
			}
		}
		dr.Rows = append(dr.Rows, row)
	}
	return dr
}

// TestBinaryColumnarRoundTrip: over random schemas mixing every column
// type and 0…2000 rows, Decode(Encode(dr)) is dr — every cell, bit for
// bit — and the row index sees the same rows.
func TestBinaryColumnarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		maxRows := 40
		if trial%10 == 0 {
			maxRows = 2000
		}
		want := randomResponse(rng, maxRows)
		raw, err := Encode(want, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(raw, CodecBinary)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(got.Cols, want.Cols) || !slices.Equal(got.Types, want.Types) || len(got.Rows) != len(want.Rows) {
			t.Fatalf("trial %d: header or row count differs: %v %v %d, want %v %v %d",
				trial, got.Cols, got.Types, len(got.Rows), want.Cols, want.Types, len(want.Rows))
		}
		for i, row := range want.Rows {
			for c, v := range row {
				g := got.Rows[i][c]
				if g.Kind != v.Kind || g.I != v.I || math.Float64bits(g.F) != math.Float64bits(v.F) || g.S != v.S || g.B != v.B {
					t.Fatalf("trial %d: cell %d,%d = %+v, want %+v", trial, i, c, g, v)
				}
			}
		}
		if ix := buildRowIndex(raw); ix == nil || ix.n != len(want.Rows) {
			t.Fatalf("trial %d: row index %+v for %d rows", trial, ix, len(want.Rows))
		}
	}
}

// TestBinaryDeltaRebuildsFull: for random (base, new) payload pairs, the
// base's rows minus the delta's tombstones plus the rows decoded from
// its gathered entering payload are exactly the new payload's rows,
// keyed by id.
func TestBinaryDeltaRebuildsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2029))
	byID := func(rows []storage.Row) map[int64]storage.Row {
		m := make(map[int64]storage.Row, len(rows))
		for _, row := range rows {
			m[row[0].I] = row
		}
		return m
	}
	deltas := 0
	for trial := 0; trial < 300; trial++ {
		cols, types, universe := randomUniverse(rng, 1+rng.Intn(400))
		keep := []float64{0, 0.3, 0.8, 1}
		base, err := Encode(&DataResponse{Cols: cols, Types: types, Rows: randomSubset(rng, universe, keep[rng.Intn(4)])}, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Encode(&DataResponse{Cols: cols, Types: types, Rows: randomSubset(rng, universe, keep[rng.Intn(4)])}, CodecBinary)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := indexDelta(t, base, full, CodecBinary)
		if !ok {
			continue
		}
		deltas++
		d, err := wire.DecodeDelta(body)
		if err != nil {
			t.Fatal(err)
		}
		entering, err := Decode(d.Entering, CodecBinary)
		if err != nil {
			t.Fatalf("trial %d: entering payload: %v", trial, err)
		}
		baseDR, _ := Decode(base, CodecBinary)
		fullDR, _ := Decode(full, CodecBinary)
		got := byID(baseDR.Rows)
		for _, id := range d.Tombstones {
			delete(got, id)
		}
		for id, row := range byID(entering.Rows) {
			got[id] = row
		}
		want := byID(fullDR.Rows)
		if len(got) != len(want) {
			t.Fatalf("trial %d: rebuilt %d rows, want %d", trial, len(got), len(want))
		}
		for id, row := range want {
			if !slices.Equal(got[id], row) {
				t.Fatalf("trial %d: id %d rebuilt as %v, want %v", trial, id, got[id], row)
			}
		}
	}
	if deltas < 100 {
		t.Fatalf("only %d of 300 trials produced a delta", deltas)
	}
}

// TestDeflateShipsIncompressibleRaw: with no worth-it heuristic in
// front of it, the server's deflate pass over random bytes comes back
// as stored blocks — longer than the body — so the body ships raw; a
// body below the minimum size is not passed to the compressor at all.
func TestDeflateShipsIncompressibleRaw(t *testing.T) {
	srv, _ := newPointsServer(t, 100, 4096, 2048)
	noise := make([]byte, 16<<10)
	rand.New(rand.NewSource(3)).Read(noise)
	if cb := srv.deflate(noise); cb != nil {
		t.Fatalf("incompressible body deflated to %d of %d bytes; want it shipped raw", len(cb), len(noise))
	}
	if cb := srv.deflate(bytes.Repeat([]byte("[1,2.5],"), 4096)); cb == nil {
		t.Fatal("redundant body shipped raw")
	}
	if cb := srv.deflate(make([]byte, wire.CompressMinSize-1)); cb != nil {
		t.Fatal("a body below the minimum size was compressed")
	}
	if got := srv.obs.stageComp.Count(); got != 2 {
		t.Fatalf("compress stage counted %d passes, want 2: the small body must not reach the compressor", got)
	}
}

// FuzzDecodeBinary: no input may panic the decoder or the row-index
// scan, nothing they return outgrows the input (every cell and every
// row costs at least one byte of it), and whenever both accept a
// payload they agree on its rows.
func FuzzDecodeBinary(f *testing.F) {
	good := samplePayload(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{0, 0})
	rng := rand.New(rand.NewSource(7))
	for range 6 {
		raw, err := Encode(randomResponse(rng, 30), CodecBinary)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// Payloads with both plane classes, and headers whose plane order
	// names a plane past 7, repeats a plane, or sits on a BOOL or TEXT
	// column.
	for _, n := range []int{9, 300} {
		raw, err := Encode(layoutResponse(rng, n), CodecBinary)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{1, 2, 'i', 'd', 1, 1, 8, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 'i', 'd', 1, 2, 3, 3, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 'o', 'k', 4, 1, 0, 1, 1})
	f.Add([]byte{1, 1, 's', 3, 1, 0, 1, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dr, err := Decode(data, CodecBinary)
		ix := buildRowIndex(data)
		if (err == nil) != (ix != nil) {
			t.Fatalf("decoder error %v, row index %v: the two must accept the same payloads", err, ix)
		}
		if err != nil {
			return
		}
		if len(dr.Cols) > len(data) || len(dr.Rows) > len(data) || len(dr.Rows)*len(dr.Cols) > len(data) {
			t.Fatalf("%d cols × %d rows out of %d bytes", len(dr.Cols), len(dr.Rows), len(data))
		}
		if ix.n != len(dr.Rows) {
			t.Fatalf("index sees %d rows, decoder %d", ix.n, len(dr.Rows))
		}
		for i := range ix.ids {
			if ix.ids[i] != dr.Rows[i][0].AsInt() {
				t.Fatalf("row %d: index id %d, decoded id %d", i, ix.ids[i], dr.Rows[i][0].AsInt())
			}
		}
	})
}

// postV3Stream posts one v3 batch and returns the raw response body
// and its frames by item index. It reports failures as an error, so
// reader goroutines can call it.
func postV3Stream(url string, req BatchRequestV2) ([]byte, []Frame, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s: %s", resp.Status, stream)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	_, n, err := wire.ReadHeader(r)
	if err != nil {
		return nil, nil, err
	}
	frames := make([]Frame, n)
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(r, wire.V3)
		if err != nil {
			return nil, nil, err
		}
		frames[f.Index] = f
	}
	return stream, frames, nil
}

// postOneV3 posts a single-item v3 batch and returns its frame.
func postOneV3(url string, codec Codec, it BatchItem) (Frame, error) {
	_, frames, err := postV3Stream(url, BatchRequestV2{V: wire.V3, Canvas: "main", Codec: codec, Items: []BatchItem{it}})
	if err != nil {
		return Frame{}, err
	}
	return frames[0], nil
}

// TestHotBoxConcurrentV3 hammers one hot box from 16 goroutines over
// v3, each declaring the payload it last received as its delta base,
// while /update keeps rewriting every row. A stale base id must fall
// back to a full frame, no reader may see a value older than the last
// update acked before it asked, and the server deflates each distinct
// payload and each distinct (base, new) pair exactly once however many
// responses ship it.
func TestHotBoxConcurrentV3(t *testing.T) {
	srv, hs := newPointsServer(t, 3000, 4096, 2048)
	box := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1500, MaxY: 1200}
	const codec = CodecBinary

	var (
		mu         sync.Mutex
		fullIDs    = map[uint64]bool{}    // distinct payloads shipped as flate frames
		pairs      = map[[2]uint64]bool{} // distinct (base, new) pairs shipped as delta+flate frames
		deltaOnce  sync.Once
		firstDelta = make(chan struct{})
	)

	// Phase 1, no writer: 16 cold-memo readers, one deflate.
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				f, err := postOneV3(hs.URL, codec, box)
				if err != nil || f.Status != FrameOK || f.Codec != FrameFlate {
					t.Errorf("hot full frame: codec %d, %v", f.Codec, err)
					return
				}
				mu.Lock()
				fullIDs[wire.PayloadID(inflateFrame(t, f))] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := srv.obs.stageComp.Count(); got != 1 || len(fullIDs) != 1 {
		t.Fatalf("128 responses of %d payload(s) ran %d deflate passes, want 1 of 1", len(fullIDs), got)
	}

	// Phase 2: readers chase a writer.
	var acked atomic.Int64 // val every row carries after the last acked update
	update := func(k int) {
		t.Helper()
		upd, _ := json.Marshal(UpdateRequest{
			SQL:  "UPDATE points SET val = ?",
			Args: []ArgValue{{Kind: storage.TFloat64, F: float64(k)}},
		})
		resp, err := http.Post(hs.URL+"/update", "application/json", bytes.NewReader(upd))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/update: %s", resp.Status)
		}
		acked.Store(int64(k))
	}
	update(0)
	stop := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held *DataResponse
			var heldID uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := float64(acked.Load())
				it := box
				if held != nil {
					it.Base = &BaseRef{MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
						ID: strconv.FormatUint(heldID, 16)}
				}
				f, err := postOneV3(hs.URL, codec, it)
				if err != nil || f.Status != FrameOK {
					t.Errorf("reader: %v %s", err, f.Payload)
					return
				}
				body := f.Payload
				if f.Codec.Compressed() {
					if body, err = wire.Decompress(body, wire.MaxFramePayload); err != nil {
						t.Error(err)
						return
					}
				}
				if f.Codec.IsDelta() {
					// Same box, base accepted: the server vouches that what
					// this reader holds is still current.
					d, err := wire.DecodeDelta(body)
					if err != nil || len(d.Tombstones) != 0 {
						t.Errorf("same-box delta: %v, %d tombstones", err, len(d.Tombstones))
						return
					}
					if f.Codec == FrameDeltaFlate {
						mu.Lock()
						pairs[[2]uint64{heldID, d.NewID}] = true
						mu.Unlock()
					}
					heldID = d.NewID
					deltaOnce.Do(func() { close(firstDelta) })
				} else {
					if held, err = Decode(body, codec); err != nil {
						t.Error(err)
						return
					}
					heldID = wire.PayloadID(body)
					if f.Codec == FrameFlate {
						mu.Lock()
						fullIDs[heldID] = true
						mu.Unlock()
					}
				}
				for _, row := range held.Rows {
					if v := row[3].AsFloat(); v < floor {
						t.Errorf("row %d carries val %g after the update to %g was acked (delta frame: %v)",
							row[0].AsInt(), v, floor, f.Codec.IsDelta())
						return
					}
				}
			}
		}()
	}
	for k := 1; k <= 12; k++ {
		update(k)
	}
	// Every reader now holds (or is about to hold) the final payload, so
	// a base-accepted delta frame is certain to follow.
	select {
	case <-firstDelta:
	case <-time.After(30 * time.Second):
		t.Error("no reader ever got a delta frame: the base-accepted path went untested")
	}
	close(stop)
	wg.Wait()
	// One deflate per distinct payload shipped in full, one per distinct
	// pair whose delta is big enough to compress — however many responses
	// carried them.
	if got, want := srv.obs.stageComp.Count(), uint64(len(fullIDs)+len(pairs)); got != want {
		t.Errorf("deflate ran %d times for %d distinct payloads and %d distinct (base, new) pairs", got, len(fullIDs), len(pairs))
	}
}

// TestDeltaIndexRebuiltFromBytes: the row index is a cache, never a
// dependency. After the wire memo is emptied, and after a restart that
// promotes both boxes out of the L2 store (bytes the new process never
// encoded), the planner rescans the bytes and ships the same delta.
func TestDeltaIndexRebuiltFromBytes(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		dir := t.TempDir()
		db, ca := newPointsApp(t, 4000, 4096, 2048)
		srv, err := New(db, ca, l2Options(dir))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		a := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
		b := BatchItem{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800}
		_, idA := fetchBoxPayload(t, hs.URL, a, codec)
		b.Base = &BaseRef{MinX: a.MinX, MinY: a.MinY, MaxX: a.MaxX, MaxY: a.MaxY, ID: strconv.FormatUint(idA, 16)}
		deltaOf := func(url string) []byte {
			t.Helper()
			f, err := postOneV3(url, codec, b)
			if err != nil || !f.Codec.IsDelta() {
				t.Fatalf("%s: want a delta frame, got codec %d (%v)", codec, f.Codec, err)
			}
			return f.Payload
		}
		want := deltaOf(hs.URL)

		builds := srv.wireMemo.Stats().Misses
		srv.wireMemo.Clear()
		if got := deltaOf(hs.URL); !bytes.Equal(got, want) {
			t.Fatalf("%s: delta after memo eviction differs", codec)
		}
		if srv.wireMemo.Stats().Misses == builds {
			t.Fatalf("%s: emptied memo rebuilt nothing", codec)
		}

		hs.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		db2, ca2 := newPointsApp(t, 4000, 4096, 2048)
		srv2, err := New(db2, ca2, l2Options(dir))
		if err != nil {
			t.Fatal(err)
		}
		hs2 := httptest.NewServer(srv2.Handler())
		// The client still holds box A; the restarted server finds it in
		// L2, hashes it on promotion, and accepts it as a base.
		if _, err := srv2.serveItem(context.Background(), "main", a, false); err != nil {
			t.Fatal(err)
		}
		if got := deltaOf(hs2.URL); !bytes.Equal(got, want) {
			t.Fatalf("%s: delta after restart differs", codec)
		}
		if q := srv2.Stats.DBQueries.Load(); q != 0 {
			t.Fatalf("%s: restarted server ran %d queries, want both boxes from L2", codec, q)
		}
		hs2.Close()
		if err := srv2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowIndexChargeIsPinnedBytes: the wire memo charges a row index
// the bytes its slices pin — their capacities — whatever slack the scan
// left behind, and a JSON form its bytes.
func TestRowIndexChargeIsPinnedBytes(t *testing.T) {
	srv, hs := newPointsServer(t, 4000, 4096, 2048)
	raw, _ := fetchBoxPayload(t, hs.URL, BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1500, MaxY: 1200}, CodecBinary)
	srv.wireMemo.Clear()
	p := newPayload(raw)
	ix := srv.rowIndexOf(p)
	if ix == nil || !ix.diffable || ix.n == 0 {
		t.Fatal("no diffable index")
	}
	pinned := int64(memoEntryOverhead + 8*cap(ix.ids) + 4*cap(ix.perm))
	if got := srv.wireMemo.Stats().Bytes; got != pinned {
		t.Errorf("%d-row index charged %d bytes, its slices pin %d", ix.n, got, pinned)
	}
	form, err := srv.document(context.Background(), p, CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := srv.wireMemo.Stats().Bytes-pinned, int64(memoEntryOverhead+len(form)); got != want {
		t.Errorf("%d-byte JSON form charged %d bytes, want %d", len(form), got, want)
	}
}

// TestOneFormServesBothCodecs: a box served as JSON and then as binary
// costs one database query and one L1 entry, whose charge is the binary
// payload alone; the JSON client receives that payload's JSON form, and
// panning from it still gets a delta frame naming the next box's JSON
// form.
func TestOneFormServesBothCodecs(t *testing.T) {
	box := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
	ref, refHS := newPointsServer(t, 4000, 4096, 2048)
	fetchBoxPayload(t, refHS.URL, box, CodecBinary)
	var alone StatsSnapshot
	getJSON(t, refHS.URL+"/stats", &alone)
	if ref.Stats.DBQueries.Load() != 1 || alone.Cache.L1.Bytes == 0 {
		t.Fatalf("binary alone: %d queries, %d L1 bytes", ref.Stats.DBQueries.Load(), alone.Cache.L1.Bytes)
	}

	srv, hs := newPointsServer(t, 4000, 4096, 2048)
	jsonRaw, jsonID := fetchBoxPayload(t, hs.URL, box, CodecJSON)
	binRaw, _ := fetchBoxPayload(t, hs.URL, box, CodecBinary)
	var both StatsSnapshot
	getJSON(t, hs.URL+"/stats", &both)
	if q := srv.Stats.DBQueries.Load(); q != 1 {
		t.Fatalf("one box in two codecs ran %d queries, want 1", q)
	}
	if n := srv.BackendCache().Stats().Entries; n != 1 || both.Cache.L1.Bytes != alone.Cache.L1.Bytes {
		t.Fatalf("L1 holds %d entries, %d bytes; want 1 entry of %d bytes, as after binary alone", n, both.Cache.L1.Bytes, alone.Cache.L1.Bytes)
	}
	if doc, err := jsonPayload(binRaw); err != nil || !bytes.Equal(doc, jsonRaw) {
		t.Fatalf("the JSON frame is not the cached payload's JSON form: %v", err)
	}

	pan := BatchItem{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800}
	fullJSON, fullID := fetchBoxPayload(t, hs.URL, pan, CodecJSON)
	pan.Base = &BaseRef{MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY, ID: strconv.FormatUint(jsonID, 16)}
	f, err := postOneV3(hs.URL, CodecJSON, pan)
	if err != nil || !f.Codec.IsDelta() {
		t.Fatalf("JSON pan from a held JSON base: codec %d, %v; want a delta frame", f.Codec, err)
	}
	body := f.Payload
	if f.Codec.Compressed() {
		if body, err = wire.Decompress(body, wire.MaxFramePayload); err != nil {
			t.Fatal(err)
		}
	}
	d, err := wire.DecodeDelta(body)
	if err != nil {
		t.Fatal(err)
	}
	if d.NewID != fullID || d.FullLen != len(fullJSON) {
		t.Fatalf("delta names id %x, %d bytes; the JSON form is %x, %d bytes", d.NewID, d.FullLen, fullID, len(fullJSON))
	}
	// The binary payload's id is not what a JSON client holds.
	pan.Base.ID = strconv.FormatUint(wire.PayloadID(binRaw), 16)
	if f, err := postOneV3(hs.URL, CodecJSON, pan); err != nil || f.Codec.IsDelta() {
		t.Fatalf("a JSON pan declaring the binary id: codec %d, %v; want a full frame", f.Codec, err)
	}
}

// TestJSONFormlessPayloadKeepsBinary: a payload holding a NaN has no JSON
// form. A JSON request for it fails as a server error — a 500, an
// internal error frame — every time, from one query, while the binary
// payload stays in L1 and keeps serving binary clients.
func TestJSONFormlessPayloadKeepsBinary(t *testing.T) {
	srv, hs := newPointsServer(t, 300, 4096, 2048)
	if _, err := srv.DB().Exec("UPDATE points SET val = ? WHERE id = 7", storage.F64(math.NaN())); err != nil {
		t.Fatal(err)
	}
	url := hs.URL + "/dbox?canvas=main&layer=0&minx=0&miny=0&maxx=4096&maxy=2048"
	get := func(codec Codec) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url + "&codec=" + string(codec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	for range 2 {
		if code, body := get(CodecJSON); code != http.StatusInternalServerError || !strings.Contains(string(body), "unsupported value") {
			t.Fatalf("JSON dbox over a NaN: %d %q, want 500 naming the value", code, body)
		}
	}
	box := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 4096, MaxY: 2048}
	if f, err := postOneV3(hs.URL, CodecJSON, box); err != nil || f.Status != FrameInternal {
		t.Fatalf("JSON batch over a NaN: status %d, %v; want an internal error frame", f.Status, err)
	}
	code, body := get(CodecBinary)
	if code != http.StatusOK {
		t.Fatalf("binary dbox: %d %s", code, body)
	}
	dr, err := Decode(body, CodecBinary)
	if err != nil || len(dr.Rows) != 300 {
		t.Fatalf("binary dbox: %d rows, %v", len(dr.Rows), err)
	}
	nan := 0
	for _, row := range dr.Rows {
		if math.IsNaN(row[3].F) {
			nan++
		}
	}
	if nan != 1 {
		t.Fatalf("binary payload carries %d NaN cells, want 1", nan)
	}
	if q, n := srv.Stats.DBQueries.Load(), srv.BackendCache().Stats().Entries; q != 1 || n != 1 {
		t.Fatalf("%d queries, %d L1 entries; want the one payload, queried once", q, n)
	}
}
