package frontend

import (
	"testing"

	"kyrix/internal/geom"
	"kyrix/internal/server"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
	"kyrix/internal/workload"
)

// BenchmarkDecodeFrame runs decodeFrame over the frames a binary client
// receives for a bench-shaped box — the ≈ 1 100 dots of a 1536² window
// at the benchmark's density (1M dots on 131072×16384) — per op: the
// box's deflated full frame, and the deflated delta frame of a pan by a
// sixth of the window, decoded against the box. B/op and allocs/op are
// the decoded columns (and the delta's tombstones): the inflated payload
// is decoded where the inflater wrote it, never copied.
func BenchmarkDecodeFrame(b *testing.B) {
	const n, h = 200_000, 16384
	d := workload.Uniform(n, 131072*n/1_000_000, h, 2019)
	window := func(r geom.Rect) (*server.DataResponse, map[int64]bool) {
		dr := &server.DataResponse{
			Cols:  []string{"id", "x", "y", "val"},
			Types: server.ColTypes{storage.TInt64, storage.TFloat64, storage.TFloat64, storage.TFloat64},
		}
		ids := map[int64]bool{}
		for _, p := range d.Points {
			if r.ContainsPoint(geom.Point{X: p.X, Y: p.Y}) {
				dr.Rows = append(dr.Rows, storage.Row{storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val)})
				ids[p.ID] = true
			}
		}
		return dr, ids
	}
	encode := func(dr *server.DataResponse) []byte {
		raw, err := server.Encode(dr, server.CodecBinary)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	compress := func(raw []byte) []byte {
		c, err := wire.Compress(raw)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	held := geom.Rect{MinX: 8192, MinY: 4096, MaxX: 8192 + 1536, MaxY: 4096 + 1536}
	baseDR, baseIDs := window(held)
	nextDR, nextIDs := window(held.Translate(256, 0))
	baseRaw, nextRaw := encode(baseDR), encode(nextDR)
	// The delta the server ships for the pan: the ids leaving, then the
	// entering rows as their own payload.
	delta := wire.Delta{FullLen: len(nextRaw), NewID: wire.PayloadID(nextRaw)}
	for _, row := range baseDR.Rows {
		if !nextIDs[row[0].I] {
			delta.Tombstones = append(delta.Tombstones, row[0].I)
		}
	}
	entering := &server.DataResponse{Cols: nextDR.Cols, Types: nextDR.Types}
	for _, row := range nextDR.Rows {
		if !baseIDs[row[0].I] {
			entering.Rows = append(entering.Rows, row)
		}
	}
	delta.Entering = encode(entering)
	base, err := server.DecodeColumns(baseRaw, server.CodecBinary)
	if err != nil {
		b.Fatal(err)
	}
	c := &Client{opts: Options{Codec: server.CodecBinary}}
	sub := &batchSub{item: server.BatchItem{Kind: "dbox"}, base: &boxState{box: held, data: base, wireID: wire.PayloadID(baseRaw)}}
	for _, f := range []struct {
		name  string
		frame wire.Frame
		rows  int
	}{
		{"full", wire.Frame{Kind: wire.FrameDBox, Codec: wire.CodecFlate, Payload: compress(baseRaw)}, len(baseDR.Rows)},
		{"delta", wire.Frame{Kind: wire.FrameDBox, Codec: wire.CodecDeltaFlate, Payload: compress(wire.EncodeDelta(delta))}, len(nextDR.Rows)},
	} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				fr, err := c.decodeFrame(sub, f.frame)
				if err != nil {
					b.Fatal(err)
				}
				if fr.data.N != f.rows {
					b.Fatalf("decoded %d rows, want %d", fr.data.N, f.rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.rows), "ns/row")
		})
	}
}
