package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"kyrix/internal/geom"
	"kyrix/internal/wire"
)

// The batch benchmarks measure the /batch stream on two workloads. The
// viewport workload is 16 tiles plus 2 dynamic boxes in one round trip,
// with per-frame compression. The pan-zoom workload is a sequence of
// heavily overlapping dynamic boxes — the case delta frames target.
// Both report wire-B/op (bytes on the wire per operation) and ratio
// (wire bytes / raw payload bytes), so the benchstat regression job in
// CI tracks wire size and compression ratio across PRs next to the
// timing columns.

func benchBatchServer(b *testing.B) (*Server, string, func(path string) []byte) {
	srv, hs := newPointsServer(b, 4000, 4096, 2048)
	get := func(path string) []byte {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: %s: %s", path, resp.Status, data)
		}
		return data
	}
	return srv, hs.URL, get
}

// viewportItems is the viewport workload: 16 tiles and 2 boxes.
func viewportItems() []BatchItem {
	items := make([]BatchItem, 0, 18)
	for col := 0; col < 8; col++ {
		for row := 0; row < 2; row++ {
			items = append(items, BatchItem{Kind: "tile", Layer: 0, Size: 512, Col: col, Row: row})
		}
	}
	return append(items,
		BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 900, MaxY: 700},
		BatchItem{Kind: "dbox", Layer: 0, MinX: 1000, MinY: 800, MaxX: 1900, MaxY: 1500},
	)
}

// BenchmarkBatchV3 serves the viewport workload as one stream with
// per-frame compression, from a cold backend cache every iteration.
func BenchmarkBatchV3(b *testing.B) {
	srv, base, _ := benchBatchServer(b)
	body, _ := json.Marshal(BatchRequestV2{V: wire.V3, Canvas: "main", Codec: CodecBinary, Items: viewportItems()})
	b.ReportAllocs()
	b.ResetTimer()
	var wireBytes, rawBytes int64
	for i := 0; i < b.N; i++ {
		srv.BackendCache().Clear()
		w, raw := postFramedOnce(b, base, body, nil)
		wireBytes += w
		rawBytes += raw
	}
	b.SetBytes(wireBytes / int64(b.N))
	b.ReportMetric(float64(wireBytes)/float64(b.N), "wire-B/op")
	b.ReportMetric(float64(wireBytes)/float64(rawBytes), "ratio")
}

// panBoxes is the pan-zoom workload: a viewport-sized box panning
// right in steps that overlap ~78% — the Kyrix-S observation that
// successive viewports of a session share most of their rows.
func panBoxes() []geom.Rect {
	boxes := make([]geom.Rect, 8)
	for i := range boxes {
		x := float64(i) * 200
		boxes[i] = geom.Rect{MinX: x, MinY: 0, MaxX: x + 900, MaxY: 700}
	}
	return boxes
}

// BenchmarkBatchPanZoomV3 replays the pan sequence with delta frames:
// after the first step only entering rows and tombstones cross the
// wire. ratio is wire bytes over the full-payload equivalent.
func BenchmarkBatchPanZoomV3(b *testing.B) {
	_, base, _ := benchBatchServer(b)
	boxes := panBoxes()
	b.ReportAllocs()
	b.ResetTimer()
	var wireBytes, rawBytes int64
	for i := 0; i < b.N; i++ {
		var prev *BaseRef
		for _, box := range boxes {
			it := BatchItem{Kind: "dbox", Layer: 0,
				MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
				Base: prev}
			body, _ := json.Marshal(BatchRequestV2{
				V: wire.V3, Canvas: "main", Codec: CodecBinary,
				Items: []BatchItem{it},
			})
			var nextID uint64
			w, raw := postFramedOnce(b, base, body, &nextID)
			wireBytes += w
			rawBytes += raw
			prev = &BaseRef{MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
				ID: strconv.FormatUint(nextID, 16)}
		}
	}
	b.SetBytes(wireBytes / int64(b.N))
	b.ReportMetric(float64(wireBytes)/float64(b.N), "wire-B/op")
	b.ReportMetric(float64(wireBytes)/float64(rawBytes), "ratio")
}

// postFramedOnce posts one framed batch and drains the stream,
// returning (wire bytes, raw-equivalent payload bytes). When nextID is
// non-nil it receives the payload identity of the first dbox frame —
// the delta base id the next pan step declares.
func postFramedOnce(b *testing.B, base string, body []byte, nextID *uint64) (int64, int64) {
	b.Helper()
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		b.Fatalf("batch: %s: %s", resp.Status, data)
	}
	cr := &countingRd{r: resp.Body}
	br := bufio.NewReader(cr)
	_, n, err := wire.ReadHeader(br)
	if err != nil {
		b.Fatalf("header: %v", err)
	}
	var raw int64
	for j := 0; j < n; j++ {
		f, err := wire.ReadFrame(br, wire.V3)
		if err != nil {
			b.Fatal(err)
		}
		if f.Status != FrameOK {
			b.Fatalf("frame %d: %s", f.Index, f.Payload)
		}
		payload := f.Payload
		if f.Codec.Compressed() {
			if payload, err = wire.Decompress(payload, wire.MaxFramePayload); err != nil {
				b.Fatal(err)
			}
		}
		if f.Codec.IsDelta() {
			d, err := wire.DecodeDelta(payload)
			if err != nil {
				b.Fatal(err)
			}
			raw += int64(d.FullLen)
			if nextID != nil && f.Kind == FrameDBox {
				*nextID = d.NewID
			}
			continue
		}
		raw += int64(len(payload))
		if nextID != nil && f.Kind == FrameDBox {
			*nextID = wire.PayloadID(payload)
		}
	}
	return cr.n, raw
}

type countingRd struct {
	r io.Reader
	n int64
}

func (c *countingRd) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// discardResponse is a ResponseWriter that counts body bytes and keeps
// nothing, so the benchmark measures the handler, not a recorder.
type discardResponse struct {
	h http.Header
	n int64
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// BenchmarkBatchV3Hit is the server side of one hot pan step, in
// process: a single-item v3 batch whose payload is an L1 hit, through
// the real handler. "full" ships the memoized DEFLATE body; "delta"
// gates the declared base against L1 and ships the pair's memoized
// delta frame. allocs/op and B/op are the regression signal: a hit must
// not hash, diff, deflate or decode its payload again, and a case fails
// outright if its timed loop runs a deflate pass.
func BenchmarkBatchV3Hit(b *testing.B) {
	srv, hsURL, _ := benchBatchServer(b)
	h := srv.Handler()
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		base := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
		_, baseID := fetchBoxPayload(b, hsURL, base, codec)
		pan := BatchItem{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800,
			Base: &BaseRef{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800, ID: strconv.FormatUint(baseID, 16)}}
		for _, bc := range []struct {
			name string
			item BatchItem
		}{{"full", base}, {"delta", pan}} {
			body, _ := json.Marshal(BatchRequestV2{V: wire.V3, Canvas: "main", Codec: codec, Items: []BatchItem{bc.item}})
			b.Run(string(codec)+"/"+bc.name, func(b *testing.B) {
				serve := func() *discardResponse {
					w := &discardResponse{h: make(http.Header)}
					req, _ := http.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body))
					h.ServeHTTP(w, req)
					return w
				}
				serve() // fill L1 and the wire memo
				deltas, deflates := srv.Stats.DeltaFrames.Load(), srv.obs.stageComp.Count()
				b.ReportAllocs()
				b.ResetTimer()
				var wireBytes int64
				for i := 0; i < b.N; i++ {
					wireBytes += serve().n
				}
				b.StopTimer()
				if got := srv.Stats.DeltaFrames.Load() - deltas; (bc.name == "delta") != (got == int64(b.N)) {
					b.Fatalf("%d of %d responses were delta frames", got, b.N)
				}
				if got := srv.obs.stageComp.Count() - deflates; got != 0 {
					b.Fatalf("%d hit responses ran %d deflate passes, want 0", b.N, got)
				}
				b.ReportMetric(float64(wireBytes)/float64(b.N), "wire-B/op")
			})
		}
	}
}
