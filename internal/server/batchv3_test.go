package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// postBatchV3Raw posts a v3 request and fully decodes the framed
// stream, returning frames indexed by item position.
func postBatchV3Raw(t testing.TB, url string, req BatchRequestV2) []Frame {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch v3: %s: %s", resp.Status, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != BatchV3ContentType {
		t.Fatalf("content type = %q, want %q", ct, BatchV3ContentType)
	}
	br := bufio.NewReader(resp.Body)
	version, n, err := wire.ReadHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	if version != wire.V3 {
		t.Fatalf("stream version = %d, want 3", version)
	}
	if n != len(req.Items) {
		t.Fatalf("announced %d frames for %d items", n, len(req.Items))
	}
	out := make([]Frame, n)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(br, wire.V3)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Index >= n || seen[f.Index] {
			t.Fatalf("bogus frame index %d", f.Index)
		}
		seen[f.Index] = true
		out[f.Index] = f
	}
	if _, err := wire.ReadFrame(br, wire.V3); err != io.EOF {
		t.Fatalf("stream should end after %d frames, got %v", n, err)
	}
	return out
}

// inflateFrame recovers the full payload of a non-delta v3 frame.
func inflateFrame(t testing.TB, f Frame) []byte {
	t.Helper()
	if !f.Codec.Compressed() {
		return f.Payload
	}
	out, err := wire.Decompress(f.Payload, wire.MaxFramePayload)
	if err != nil {
		t.Fatalf("inflate frame %d: %v", f.Index, err)
	}
	return out
}

// TestBatchV3CompressionMatchesV2 serves the same items with
// compression on and off and checks that every flate frame inflates to
// exactly the comp:"off" frame (the raw payload), error frames stay
// raw, and the JSON-codec frames actually shrink on the wire.
func TestBatchV3CompressionMatchesV2(t *testing.T) {
	_, hs := newPointsServer(t, 4000, 4096, 2048)
	items := []BatchItem{
		{Kind: "tile", Layer: 0, Size: 512, Col: 1, Row: 1},
		{Kind: "dbox", Layer: 0, MinX: 100, MinY: 100, MaxX: 1200, MaxY: 900},
		{Kind: "tile", Layer: 0, Size: 512, Col: -1, Row: 0}, // bad col (error frame)
	}
	rawFrames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
		V: wire.V3, Canvas: "main", Codec: CodecJSON, Comp: CompOff, Items: items,
	})
	flateFrames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
		V: wire.V3, Canvas: "main", Codec: CodecJSON, Items: items,
	})
	var wireRaw, wireFlate int
	for i := range items {
		if rawFrames[i].Codec != FrameRaw {
			t.Fatalf("comp=off frame %d codec = %d, want raw", i, rawFrames[i].Codec)
		}
		wireRaw += len(rawFrames[i].Payload)
		wireFlate += len(flateFrames[i].Payload)
		if flateFrames[i].Status != rawFrames[i].Status {
			t.Fatalf("frame %d status: flate %d vs raw %d", i, flateFrames[i].Status, rawFrames[i].Status)
		}
		if flateFrames[i].Status != FrameOK {
			if flateFrames[i].Codec != FrameRaw {
				t.Fatalf("error frame %d not raw: codec %d", i, flateFrames[i].Codec)
			}
			continue
		}
		if got := inflateFrame(t, flateFrames[i]); !bytes.Equal(got, rawFrames[i].Payload) {
			t.Fatalf("frame %d inflates to different bytes than the raw frame", i)
		}
	}
	if wireFlate >= wireRaw {
		t.Fatalf("JSON frames did not shrink: raw=%d flate=%d", wireRaw, wireFlate)
	}

	// Unknown compression mode is a request-level error.
	body, _ := json.Marshal(BatchRequestV2{
		V: wire.V3, Canvas: "main", Comp: "zstd",
		Items: []BatchItem{{Kind: "tile", Size: 512}},
	})
	resp, err := http.Post(hs.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("comp=zstd accepted: %d", resp.StatusCode)
	}
}

// fetchBoxPayload grabs one dbox payload (and its wire id) via a plain
// v3 batch with no base, simulating the client's first full fetch.
func fetchBoxPayload(t testing.TB, url string, it BatchItem, codec Codec) ([]byte, uint64) {
	t.Helper()
	frames := postBatchV3Raw(t, url, BatchRequestV2{
		V: wire.V3, Canvas: "main", Codec: codec, Comp: CompOff,
		Items: []BatchItem{it},
	})
	if frames[0].Status != FrameOK || frames[0].Codec != FrameRaw {
		t.Fatalf("full fetch frame = %+v", frames[0])
	}
	return frames[0].Payload, wire.PayloadID(frames[0].Payload)
}

func TestBatchV3DeltaFrames(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		srv, hs := newPointsServer(t, 6000, 4096, 2048)

		baseItem := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
		basePayload, baseID := fetchBoxPayload(t, hs.URL, baseItem, codec)

		// A pan right by 200: ~80% overlap with the base box.
		newItem := BatchItem{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800,
			Base: &BaseRef{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800, ID: strconv.FormatUint(baseID, 16)}}
		fullPayload, _ := fetchBoxPayload(t, hs.URL, BatchItem{
			Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800}, codec)

		deltaBefore := srv.Stats.DeltaFrames.Load()
		frames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
			V: wire.V3, Canvas: "main", Codec: codec, Comp: CompOff,
			Items: []BatchItem{newItem},
		})
		f := frames[0]
		if f.Status != FrameOK || f.Codec != FrameDelta {
			t.Fatalf("codec %s: overlap pan frame = status %d codec %d, want delta", codec, f.Status, f.Codec)
		}
		if srv.Stats.DeltaFrames.Load() != deltaBefore+1 {
			t.Fatalf("DeltaFrames stat not bumped")
		}
		if len(f.Payload) >= len(fullPayload) {
			t.Fatalf("codec %s: delta (%d B) not smaller than full (%d B)", codec, len(f.Payload), len(fullPayload))
		}

		// Applying the delta to the base reconstructs the full result
		// row-for-row.
		d, err := wire.DecodeDelta(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if d.FullLen != len(fullPayload) || d.NewID != wire.PayloadID(fullPayload) {
			t.Fatalf("delta header: fullLen %d id %x, want %d %x",
				d.FullLen, d.NewID, len(fullPayload), wire.PayloadID(fullPayload))
		}
		baseDR, err := Decode(basePayload, codec)
		if err != nil {
			t.Fatal(err)
		}
		enterDR, err := Decode(d.Entering, codec)
		if err != nil {
			t.Fatal(err)
		}
		tomb := make(map[int64]bool, len(d.Tombstones))
		for _, id := range d.Tombstones {
			tomb[id] = true
		}
		got := make(map[int64]storage.Row)
		for _, row := range baseDR.Rows {
			if !tomb[row[0].AsInt()] {
				got[row[0].AsInt()] = row
			}
		}
		for _, row := range enterDR.Rows {
			got[row[0].AsInt()] = row
		}
		fullDR, err := Decode(fullPayload, codec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(fullDR.Rows) {
			t.Fatalf("codec %s: delta reconstructs %d rows, full has %d", codec, len(got), len(fullDR.Rows))
		}
		for _, row := range fullDR.Rows {
			if _, ok := got[row[0].AsInt()]; !ok {
				t.Fatalf("codec %s: row %d missing after delta apply", codec, row[0].AsInt())
			}
		}
	}
}

func TestBatchV3DeltaFallsBackToFull(t *testing.T) {
	srv, hs := newPointsServer(t, 5000, 4096, 2048)
	baseItem := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
	_, baseID := fetchBoxPayload(t, hs.URL, baseItem, CodecJSON)
	baseRef := BaseRef{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800, ID: strconv.FormatUint(baseID, 16)}

	expectFull := func(name string, it BatchItem) {
		t.Helper()
		frames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
			V: wire.V3, Canvas: "main", Codec: CodecJSON, Comp: CompOff,
			Items: []BatchItem{it},
		})
		if frames[0].Status != FrameOK {
			t.Fatalf("%s: status %d: %s", name, frames[0].Status, frames[0].Payload)
		}
		if frames[0].Codec.IsDelta() {
			t.Fatalf("%s: got a delta frame, want full fallback", name)
		}
	}

	// Stale/forged base id: the cached base does not hash to it.
	it := BatchItem{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800}
	it.Base = &BaseRef{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800, ID: "deadbeef"}
	expectFull("forged base id", it)

	// Unparseable base id.
	it.Base = &BaseRef{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800, ID: "not-hex"}
	expectFull("bad base id", it)

	// Too little overlap: the tombstone machinery cannot pay off.
	far := BatchItem{Kind: "dbox", Layer: 0, MinX: 3000, MinY: 1000, MaxX: 4000, MaxY: 1800,
		Base: &baseRef}
	expectFull("tiny overlap", far)

	// Base evicted from the backend cache: recomputing it would cost a
	// database query, so the server ships the full frame instead.
	srv.BackendCache().Clear()
	good := BatchItem{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800,
		Base: &baseRef}
	expectFull("base missing from cache", good)
}

// TestBatchV3DeltaAcrossUpdate: an /update between the base fetch and
// an overlapping pan must never ship a delta computed against the
// pre-update world — the stale-base guarantee is "full frame, never
// wrong rows", and the post-update frame must carry the new values.
func TestBatchV3DeltaAcrossUpdate(t *testing.T) {
	_, hs := newPointsServer(t, 3000, 4096, 2048)
	baseItem := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
	_, baseID := fetchBoxPayload(t, hs.URL, baseItem, CodecJSON)

	// Change a column of every row via the real /update endpoint (the
	// update transition: exec + generation bump + cache clear).
	upd, _ := json.Marshal(map[string]any{"sql": "UPDATE points SET val = 4242.0"})
	resp, err := http.Post(hs.URL+"/update", "application/json", bytes.NewReader(upd))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/update: %s", resp.Status)
	}

	frames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
		V: wire.V3, Canvas: "main", Codec: CodecJSON, Comp: CompOff,
		Items: []BatchItem{{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800,
			Base: &BaseRef{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800, ID: strconv.FormatUint(baseID, 16)}}},
	})
	if frames[0].Status != FrameOK {
		t.Fatalf("post-update frame: %s", frames[0].Payload)
	}
	if frames[0].Codec.IsDelta() {
		t.Fatal("post-update request delta-encoded against a pre-update base")
	}
	dr, err := Decode(frames[0].Payload, CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Rows) == 0 {
		t.Fatal("post-update box empty")
	}
	for _, row := range dr.Rows {
		if got := row[3].AsFloat(); got != 4242.0 {
			t.Fatalf("post-update row %d carries stale val %g", row[0].AsInt(), got)
		}
	}
}
