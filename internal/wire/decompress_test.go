package wire_test

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"kyrix/internal/geom"
	"kyrix/internal/server"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
	"kyrix/internal/workload"
)

var (
	dotsOnce sync.Once
	dots     map[server.Codec][]byte
)

// dotWindows returns the payload of one viewport of dots in each codec:
// the (id, x, y, val) rows of a seed-fixed uniform dataset at the
// benchmark's density (1M dots on 131072×16384) inside a 1536×1536
// window, ≈ 1100 rows.
func dotWindows(tb testing.TB) map[server.Codec][]byte {
	dotsOnce.Do(func() {
		const n, h = 200_000, 16384
		d := workload.Uniform(n, 131072*n/1_000_000, h, 2019)
		win := geom.Rect{MinX: 8192, MinY: 4096, MaxX: 8192 + 1536, MaxY: 4096 + 1536}
		dr := &server.DataResponse{
			Cols:  []string{"id", "x", "y", "val"},
			Types: server.ColTypes{storage.TInt64, storage.TFloat64, storage.TFloat64, storage.TFloat64},
		}
		for _, p := range d.Points {
			if win.ContainsPoint(geom.Point{X: p.X, Y: p.Y}) {
				dr.Rows = append(dr.Rows, storage.Row{storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val)})
			}
		}
		dots = map[server.Codec][]byte{}
		for _, codec := range []server.Codec{server.CodecBinary, server.CodecJSON} {
			b, err := server.Encode(dr, codec)
			if err != nil {
				panic(err)
			}
			dots[codec] = b
		}
	})
	return dots
}

func deflate(tb testing.TB, raw []byte, level int) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	fw.Write(raw)
	if err := fw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestInflateMatchesStdlib: over dot-window payloads in both codecs,
// random bytes and run-heavy bytes, deflated at every compress/flate
// level, and over bit-flipped and truncated copies of each, Decompress
// accepts what compress/flate's reader accepts and inflates it to the
// same bytes — under the default limit and under one half the payload.
func TestInflateMatchesStdlib(t *testing.T) {
	rnd := rand.New(rand.NewSource(2019))
	w := dotWindows(t)
	noise := make([]byte, 24<<10)
	rnd.Read(noise)
	var runs []byte
	for len(runs) < 40<<10 {
		runs = append(runs, bytes.Repeat([]byte{byte(rnd.Intn(4))}, 1+rnd.Intn(300))...)
		runs = append(runs, w[server.CodecJSON][rnd.Intn(1000):][:rnd.Intn(40)]...)
	}
	payloads := []struct {
		name string
		raw  []byte
	}{
		{"binary", w[server.CodecBinary]},
		{"json", w[server.CodecJSON]},
		{"random", noise},
		{"runs", runs},
	}
	levels := []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly}
	for _, p := range payloads {
		for _, level := range levels {
			t.Run(p.name+"/level"+strconv.Itoa(level), func(t *testing.T) {
				c := deflate(t, p.raw, level)
				for _, limit := range []int{0, len(p.raw) / 2} {
					if accepted := wire.InflateMatchesStdlib(t, c, limit); accepted != (limit == 0) {
						t.Fatalf("limit %d: accepted = %v", limit, accepted)
					}
					for i := 0; i < 32; i++ {
						bad := bytes.Clone(c)
						bit := rnd.Intn(len(bad) * 8)
						if i < 16 {
							bit = rnd.Intn(min(len(bad), 64) * 8) // the first block's header and code tables
						}
						bad[bit/8] ^= 1 << (bit % 8)
						wire.InflateMatchesStdlib(t, bad, limit)
						wire.InflateMatchesStdlib(t, c[:rnd.Intn(len(c))], limit)
					}
				}
			})
		}
	}
}

// TestBinaryBoxCompressRatio: the columnar binary payload of one
// 1536² box of the benchmark's dots compresses to at most 0.75 of its
// raw size (the row-major layout managed ≈ 0.84), and the stream inflates
// back to it under both inflaters.
func TestBinaryBoxCompressRatio(t *testing.T) {
	raw := dotWindows(t)[server.CodecBinary]
	c, err := wire.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(c)) / float64(len(raw)); ratio > 0.75 {
		t.Fatalf("binary box compressed to %.4f of raw (%d of %d bytes), want ≤ 0.75", ratio, len(c), len(raw))
	}
	checkRoundTrip(t, raw, c)
}

// lodLevelBox returns the binary payload of one zoomed-out box of an
// auto-LOD level over the benchmark's dots: a 6144² window at the
// level whose 128-unit cells it holds within the 4096-row budget, one
// row per non-empty cell — the cell's first dot as representative, then
// the level's aggregate columns (count, sum of val, and the extent of
// the dots' radius-1 boxes), in cell order.
func lodLevelBox(tb testing.TB) []byte {
	const n, h, cell, side, minX, minY = 200_000, 16384, 128.0, 6144.0, 8192.0, 4096.0
	d := workload.Uniform(n, 131072*n/1_000_000, h, 2019)
	type agg struct {
		rep                    workload.Point
		count                  int64
		sum                    float64
		minx, miny, maxx, maxy float64
	}
	const grid = int(side / cell)
	cells := make([]*agg, grid*grid)
	for _, p := range d.Points {
		if p.X < minX || p.X >= minX+side || p.Y < minY || p.Y >= minY+side {
			continue
		}
		i := int((p.Y-minY)/cell)*grid + int((p.X-minX)/cell)
		a := cells[i]
		if a == nil {
			a = &agg{rep: p, minx: p.X - 1, miny: p.Y - 1, maxx: p.X + 1, maxy: p.Y + 1}
			cells[i] = a
		}
		a.count++
		a.sum += p.Val
		a.minx, a.miny = min(a.minx, p.X-1), min(a.miny, p.Y-1)
		a.maxx, a.maxy = max(a.maxx, p.X+1), max(a.maxy, p.Y+1)
	}
	dr := &server.DataResponse{
		Cols: []string{"id", "x", "y", "val", "lod_count", "lod_sum", "lod_minx", "lod_miny", "lod_maxx", "lod_maxy"},
		Types: server.ColTypes{storage.TInt64, storage.TFloat64, storage.TFloat64, storage.TFloat64,
			storage.TInt64, storage.TFloat64, storage.TFloat64, storage.TFloat64, storage.TFloat64, storage.TFloat64},
	}
	for _, a := range cells {
		if a != nil {
			dr.Rows = append(dr.Rows, storage.Row{storage.I64(a.rep.ID), storage.F64(a.rep.X), storage.F64(a.rep.Y), storage.F64(a.rep.Val),
				storage.I64(a.count), storage.F64(a.sum), storage.F64(a.minx), storage.F64(a.miny), storage.F64(a.maxx), storage.F64(a.maxy)})
		}
	}
	raw, err := server.Encode(dr, server.CodecBinary)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestBinaryBoxOneDeflatedRun: a binary payload puts its compressible
// byte planes ahead of its random ones, so the compressed frame of a
// bench-shaped dot window, and of a bench-shaped LOD-level box, builds
// at most two dynamic blocks' code tables — one deflated run, plus at
// most the short tail chunk the segmenter judges too small to store —
// and the rest of the frame is stored.
func TestBinaryBoxOneDeflatedRun(t *testing.T) {
	for _, box := range []struct {
		name string
		raw  []byte
	}{
		{"dot window", dotWindows(t)[server.CodecBinary]},
		{"lod level", lodLevelBox(t)},
	} {
		c, err := wire.Compress(box.raw)
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, box.raw, c)
		blocks, err := wire.BlockKinds(c)
		if err != nil {
			t.Fatal(err)
		}
		dynamic, stored := 0, 0
		for _, b := range blocks {
			switch b.Kind {
			case "mixed", "literal-only":
				dynamic++
			case "stored":
				stored += b.Out
			}
		}
		t.Logf("%s: %d bytes → %d, blocks %v", box.name, len(box.raw), len(c), blocks)
		if dynamic > 2 {
			t.Errorf("%s: %d dynamic blocks, want ≤ 2: %v", box.name, dynamic, blocks)
		}
		if stored < len(box.raw)/3 {
			t.Errorf("%s: %d of %d bytes stored: the random planes are not one run", box.name, stored, len(box.raw))
		}
	}
}

// checkRoundTrip fails unless c inflates to raw under compress/flate's
// reader and under wire.Decompress.
func checkRoundTrip(t testing.TB, raw, c []byte) {
	t.Helper()
	std, err := io.ReadAll(flate.NewReader(bytes.NewReader(c)))
	if err != nil || !bytes.Equal(std, raw) {
		t.Fatalf("compress/flate inflates %d bytes of %d (%v)", len(std), len(raw), err)
	}
	got, err := wire.Decompress(c, 0)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("wire.Decompress inflates %d bytes of %d (%v)", len(got), len(raw), err)
	}
	// Inflate lends the same bytes, with no capacity past them, and
	// returns what the callback does.
	stop := errors.New("stop")
	err = wire.Inflate(c, 0, func(out []byte) error {
		if !bytes.Equal(out, raw) || cap(out) != len(out) {
			t.Fatalf("wire.Inflate lent %d bytes (cap %d), want the %d inflated ones", len(out), cap(out), len(raw))
		}
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("wire.Inflate returned %v, want the callback's error", err)
	}
}

// FuzzCompressRoundTrip: every Compress output is one DEFLATE stream
// that inflates to its input under compress/flate's reader and under
// wire.Decompress — whatever mix of stored and deflated runs the
// entropy classifier cut it into — and is never longer than the
// BestSpeed-only reference.
func FuzzCompressRoundTrip(f *testing.F) {
	w := dotWindows(f)
	rnd := rand.New(rand.NewSource(29))
	noise := make([]byte, 70_000) // one high-entropy run past a stored block's 65535
	rnd.Read(noise)
	f.Add(w[server.CodecBinary])
	f.Add(w[server.CodecJSON])
	f.Add(noise)
	f.Add(make([]byte, 5000))
	f.Add(noise[:300])
	f.Add([]byte("short"))
	f.Add([]byte{})
	f.Add(append(append(bytes.Clone(w[server.CodecJSON][:2000]), noise...), w[server.CodecJSON][:2000]...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := wire.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, raw, c)
		lz, err := wire.LZOnlyCompress(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(c) > len(lz) {
			t.Fatalf("Compress wrote %d bytes, the BestSpeed-only reference %d", len(c), len(lz))
		}
	})
}

// eegJSON is the JSON payload of n rows shaped like examples/eeg's
// table — ids, a channel, six doubles and a TEXT tag drawn from tags.
func eegJSON(tb testing.TB, n int, tags []string) []byte {
	d := workload.EEG(4, float64(n)/4/16, 16, 42)
	rnd := rand.New(rand.NewSource(7))
	dr := &server.DataResponse{
		Cols: []string{"id", "channel", "t", "amp", "delta", "theta", "alpha", "beta", "tag"},
		Types: server.ColTypes{storage.TInt64, storage.TInt64, storage.TFloat64, storage.TFloat64,
			storage.TFloat64, storage.TFloat64, storage.TFloat64, storage.TFloat64, storage.TString},
	}
	for _, s := range d.Samples[:n] {
		dr.Rows = append(dr.Rows, storage.Row{storage.I64(s.ID), storage.I64(int64(s.Channel)),
			storage.F64(s.T), storage.F64(s.Amp), storage.F64(s.Delta), storage.F64(s.Theta),
			storage.F64(s.Alpha), storage.F64(s.Beta), storage.Str(tags[rnd.Intn(len(tags))])})
	}
	b, err := server.Encode(dr, server.CodecJSON)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestCompressKeepsShorterCoding: Compress codes each deflated run both
// ways and keeps the shorter. A dot window's JSON — random digits, whose
// short matches cost more than their literals — comes out as
// literal-only blocks (the flush and final markers around them are
// empty), smaller than the BestSpeed-only reference. JSON with a TEXT
// column of a few repeated tags keeps LZ blocks, no larger than the
// reference.
func TestCompressKeepsShorterCoding(t *testing.T) {
	blocks := func(c []byte) []wire.Block {
		t.Helper()
		b, err := wire.BlockKinds(c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	compress := func(raw []byte) (c, lz []byte) {
		t.Helper()
		c, err := wire.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		if lz, err = wire.LZOnlyCompress(raw); err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, raw, c)
		return c, lz
	}

	raw := dotWindows(t)[server.CodecJSON]
	c, lz := compress(raw)
	if len(c) >= len(lz) {
		t.Fatalf("dot window JSON: %d bytes, BestSpeed-only %d: want smaller", len(c), len(lz))
	}
	t.Logf("dot window JSON, %d bytes: %d deflated, %d BestSpeed-only", len(raw), len(c), len(lz))
	for i, b := range blocks(c) {
		if b.Out > 0 && b.Kind != "literal-only" {
			t.Fatalf("dot window JSON block %d is %s, inflating to %d bytes: want literal-only blocks only", i, b.Kind, b.Out)
		}
	}

	for _, tags := range [][]string{
		{"", "artifact", "spike", "rem"},
		{"movement artifact, channel re-referenced", "electrode pop on the reference lead", "eye blink during the alpha burst"},
	} {
		raw := eegJSON(t, 1000, tags)
		c, lz := compress(raw)
		if len(c) > len(lz) {
			t.Fatalf("eeg JSON with tags %q: %d bytes, BestSpeed-only %d", tags, len(c), len(lz))
		}
		t.Logf("eeg JSON with %d tags, %d bytes: %d deflated, %d BestSpeed-only", len(tags), len(raw), len(c), len(lz))
		mixed := false
		for _, b := range blocks(c) {
			mixed = mixed || b.Kind == "mixed" && b.Out > 0
		}
		if !mixed {
			t.Fatalf("eeg JSON with tags %q: no block with matches: %v", tags, blocks(c))
		}
	}
}

// BenchmarkCompressBinaryBox deflates the columnar payload of one 1536²
// box of the benchmark's dots per op — the first build of a full frame —
// and reports the compressed size over raw as ratio.
func BenchmarkCompressBinaryBox(b *testing.B) {
	raw := dotWindows(b)[server.CodecBinary]
	var c []byte
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if c, err = wire.Compress(raw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(c))/float64(len(raw)), "ratio")
}

// BenchmarkCompressJSONBox deflates the JSON payload of the same box
// per op — both codings of its one run, the server's cost of a full JSON
// frame's first build — and reports the compressed size over raw as
// ratio.
func BenchmarkCompressJSONBox(b *testing.B) {
	raw := dotWindows(b)[server.CodecJSON]
	var c []byte
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if c, err = wire.Compress(raw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(c))/float64(len(raw)), "ratio")
}

// BenchmarkDecompress inflates one Compress-deflated dot window — the
// frame a pan or zoom step ships — per op; MB/s is of inflated bytes and
// ratio is the frame's compressed size over raw.
func BenchmarkDecompress(b *testing.B) {
	for _, codec := range []server.Codec{server.CodecBinary, server.CodecJSON} {
		raw := dotWindows(b)[codec]
		c, err := wire.Compress(raw)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(codec), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := wire.Decompress(c, wire.MaxFramePayload); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(c))/float64(len(raw)), "ratio")
		})
	}
}
