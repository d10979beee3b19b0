package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"kyrix/internal/fetch"
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

// TestBatchCompressionMatchesGet serves the same items as a batch and
// as single GETs and checks that every flate frame inflates to exactly
// the GET body (the raw payload), error frames stay raw, and the
// JSON-codec frames actually shrink on the wire.
func TestBatchCompressionMatchesGet(t *testing.T) {
	_, hs := newPointsServer(t, 4000, 4096, 2048)
	items := []BatchItem{
		{Kind: "tile", Layer: 0, Size: 512, Col: 1, Row: 1},
		{Kind: "dbox", Layer: 0, MinX: 100, MinY: 100, MaxX: 1200, MaxY: 900},
		{Kind: "tile", Layer: 0, Size: 512, Col: -1, Row: 0}, // bad col (error frame)
	}
	gets := []string{
		"/tile?canvas=main&layer=0&size=512&col=1&row=1",
		"/dbox?canvas=main&layer=0&minx=100&miny=100&maxx=1200&maxy=900",
	}
	frames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
		V: wire.V3, Canvas: "main", Codec: CodecJSON, Items: items,
	})
	var wireRaw, wireFlate int
	for i, path := range gets {
		if frames[i].Status != FrameOK || frames[i].Codec != FrameFlate {
			t.Fatalf("frame %d: status %d codec %d, want an OK flate frame", i, frames[i].Status, frames[i].Codec)
		}
		raw := getBody(t, hs.URL+path)
		wireRaw += len(raw)
		wireFlate += len(frames[i].Payload)
		if got := inflateFrame(t, frames[i]); !bytes.Equal(got, raw) {
			t.Fatalf("frame %d inflates to different bytes than GET %s", i, path)
		}
	}
	if bad := frames[2]; bad.Status != FrameBadRequest || bad.Codec != FrameRaw {
		t.Fatalf("error frame: status %d codec %d, want a raw bad-request frame", bad.Status, bad.Codec)
	}
	if wireFlate >= wireRaw {
		t.Fatalf("JSON frames did not shrink: raw=%d flate=%d", wireRaw, wireFlate)
	}
}

// getBody returns the body of a GET that must answer 200.
func getBody(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// fetchBoxPayload grabs one dbox payload (and its wire id) via a plain
// v3 batch with no base, simulating the client's first full fetch.
func fetchBoxPayload(t testing.TB, url string, it BatchItem, codec Codec) ([]byte, uint64) {
	t.Helper()
	frames := postBatchV3Raw(t, url, BatchRequestV2{
		V: wire.V3, Canvas: "main", Codec: codec,
		Items: []BatchItem{it},
	})
	if frames[0].Status != FrameOK || frames[0].Codec.IsDelta() {
		t.Fatalf("full fetch frame = %+v", frames[0])
	}
	payload := inflateFrame(t, frames[0])
	return payload, wire.PayloadID(payload)
}

func TestBatchDeltaFrames(t *testing.T) {
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
			V: wire.V3, Canvas: "main", Codec: codec,
			Items: []BatchItem{newItem},
		})
		f := frames[0]
		if f.Status != FrameOK || !f.Codec.IsDelta() {
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
		d, err := wire.DecodeDelta(inflateFrame(t, f))
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

func TestBatchDeltaFallsBackToFull(t *testing.T) {
	srv, hs := newPointsServer(t, 5000, 4096, 2048)
	baseItem := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
	_, baseID := fetchBoxPayload(t, hs.URL, baseItem, CodecJSON)
	baseRef := BaseRef{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800, ID: strconv.FormatUint(baseID, 16)}

	expectFull := func(name string, it BatchItem) {
		t.Helper()
		frames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
			V: wire.V3, Canvas: "main", Codec: CodecJSON,
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

// TestBatchDeltaAcrossUpdate: an /update between the base fetch and
// an overlapping pan must never ship a delta computed against the
// pre-update world — the stale-base guarantee is "full frame, never
// wrong rows", and the post-update frame must carry the new values.
// That holds for a pair whose delta frame is already memoized: the L1
// base gate runs before the memo, so a warm pre-update pair entry is
// never served — not even when it would still be exact (the changed row
// left the box), because the memo must never widen where a delta ships.
func TestBatchDeltaAcrossUpdate(t *testing.T) {
	_, hs := newPointsServer(t, 3000, 4096, 2048)
	baseItem := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
	pan := func(baseID uint64) Frame {
		t.Helper()
		frames := postBatchV3Raw(t, hs.URL, BatchRequestV2{
			V: wire.V3, Canvas: "main", Codec: CodecJSON,
			Items: []BatchItem{{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800,
				Base: &BaseRef{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800, ID: strconv.FormatUint(baseID, 16)}}},
		})
		if frames[0].Status != FrameOK {
			t.Fatalf("pan frame: %s", frames[0].Payload)
		}
		return frames[0]
	}
	fullRows := func(f Frame) []storage.Row {
		t.Helper()
		if f.Codec.IsDelta() {
			t.Fatal("post-update request delta-encoded against a pre-update base")
		}
		dr, err := Decode(inflateFrame(t, f), CodecJSON)
		if err != nil {
			t.Fatal(err)
		}
		if len(dr.Rows) == 0 {
			t.Fatal("post-update box empty")
		}
		return dr.Rows
	}

	// One row changed — first one only the base holds, then one inside
	// the overlap — each after the pair's delta frame was memoized.
	for i, xs := range [][2]float64{{20, 180}, {250, 950}} {
		val := 4242.5 + float64(i)
		basePayload, baseID := fetchBoxPayload(t, hs.URL, baseItem, CodecJSON)
		for j := 0; j < 2; j++ {
			if f := pan(baseID); !f.Codec.IsDelta() {
				t.Fatalf("warm-up pan %d: codec %d, want a delta", j, f.Codec)
			}
		}
		baseDR, err := Decode(basePayload, CodecJSON)
		if err != nil {
			t.Fatal(err)
		}
		var id int64 = -1
		for _, row := range baseDR.Rows {
			if x := row[1].AsFloat(); x > xs[0] && x < xs[1] {
				id = row[0].AsInt()
				break
			}
		}
		if id < 0 {
			t.Fatalf("no base row with x in %v", xs)
		}
		if code, msg := postUpdateArgs(t, hs.URL, "UPDATE points SET val = ? WHERE id = ?",
			ArgValue{Kind: storage.TFloat64, F: val}, ArgValue{Kind: storage.TInt64, I: id}); code != http.StatusOK {
			t.Fatalf("/update: %d %s", code, msg)
		}
		found := false
		for _, row := range fullRows(pan(baseID)) {
			if row[0].AsInt() == id {
				found = true
				if got := row[3].AsFloat(); got != val {
					t.Fatalf("updated row %d carries stale val %g", id, got)
				}
			}
		}
		if inOverlap := xs[0] >= 200; found != inOverlap {
			t.Fatalf("updated row %d in the post-update box: %v, want %v", id, found, inOverlap)
		}
	}

	// Every row changed via the real /update endpoint (the update
	// transition: exec + generation bump + cache clear).
	_, baseID := fetchBoxPayload(t, hs.URL, baseItem, CodecJSON)
	if code, msg := postUpdateArgs(t, hs.URL, "UPDATE points SET val = 4242.0"); code != http.StatusOK {
		t.Fatalf("/update: %d %s", code, msg)
	}
	for _, row := range fullRows(pan(baseID)) {
		if got := row[3].AsFloat(); got != 4242.0 {
			t.Fatalf("post-update row %d carries stale val %g", row[0].AsInt(), got)
		}
	}
}

// TestDeltaFrameMemoMatchesFresh: a memoized pair frame is exactly the
// frame a fresh build ships. For both codecs and three pairs — a profitable delta, a delta no smaller than the full payload,
// and a layer whose ids repeat — the second response builds nothing and
// carries the first response's frame codec and bytes, and so does a
// rebuild after the memo is emptied.
func TestDeltaFrameMemoMatchesFresh(t *testing.T) {
	box := func(minx, miny, maxx, maxy float64) BatchItem {
		return BatchItem{Kind: "dbox", Layer: 0, MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy}
	}
	for _, tc := range []struct {
		name      string
		dupIDs    bool
		base, pan BatchItem
		wantDelta bool
	}{
		{"profitable", false, box(0, 0, 1000, 800), box(200, 0, 1200, 800), true},
		// The pan sits inside a base 70 times its area: the tombstones
		// outweigh the rows the full frame would carry.
		{"delta not smaller", false, box(0, 0, 4096, 2048), box(1000, 1000, 1400, 1300), false},
		{"non-unique ids", true, box(0, 0, 1000, 800), box(200, 0, 1200, 800), false},
	} {
		db, ca := newPointsApp(t, 4000, 4096, 2048)
		if tc.dupIDs {
			if _, err := db.Exec("UPDATE points SET id = 7 WHERE id < 2000"); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := New(db, ca, Options{
			Cache:      CacheOptions{L1: L1CacheOptions{Bytes: 8 << 20}},
			Precompute: fetch.Options{BuildSpatial: true, TileSizes: []float64{512}},
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		for _, codec := range []Codec{CodecJSON, CodecBinary} {
			name := tc.name + "/" + string(codec)
			basePayload, baseID := fetchBoxPayload(t, hs.URL, tc.base, codec)
			newPayload, _ := fetchBoxPayload(t, hs.URL, tc.pan, codec)
			bix, nix := buildRowIndex(binaryOf(t, basePayload, codec)), buildRowIndex(binaryOf(t, newPayload, codec))
			if diffable := bix.diffable && nix.diffable; diffable == tc.dupIDs {
				t.Fatalf("%s: row indexes diffable=%v", name, diffable)
			}
			it := tc.pan
			it.Base = &BaseRef{MinX: tc.base.MinX, MinY: tc.base.MinY, MaxX: tc.base.MaxX, MaxY: tc.base.MaxY,
				ID: strconv.FormatUint(baseID, 16)}
			post := func() Frame {
				t.Helper()
				f := postBatchV3Raw(t, hs.URL, BatchRequestV2{V: wire.V3, Canvas: "main", Codec: codec,
					Items: []BatchItem{it}})[0]
				if f.Status != FrameOK {
					t.Fatalf("%s: status %d: %s", name, f.Status, f.Payload)
				}
				return f
			}
			first := post()
			if first.Codec.IsDelta() != tc.wantDelta {
				t.Fatalf("%s: codec %d, want delta=%v", name, first.Codec, tc.wantDelta)
			}
			builds := srv.wireMemo.Stats().Misses
			hit := post()
			if got := srv.wireMemo.Stats().Misses; got != builds {
				t.Fatalf("%s: memo-hit response built %d forms", name, got-builds)
			}
			srv.wireMemo.Clear()
			fresh := post()
			for _, f := range []struct {
				what string
				f    Frame
			}{{"memo hit", hit}, {"fresh build", fresh}} {
				if f.f.Codec != first.Codec || !bytes.Equal(f.f.Payload, first.Payload) {
					t.Fatalf("%s: %s ships codec %d (%d B), first response codec %d (%d B)",
						name, f.what, f.f.Codec, len(f.f.Payload), first.Codec, len(first.Payload))
				}
			}
		}
		hs.Close()
	}
}

// TestDeltaFrameBuiltOnce: concurrent first requests for one cold
// (base, new) pair share one build, so the pair is deflated exactly
// once and every response ships the same frame.
func TestDeltaFrameBuiltOnce(t *testing.T) {
	srv, hs := newPointsServer(t, 4000, 4096, 2048)
	base := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}
	_, baseID := fetchBoxPayload(t, hs.URL, base, CodecJSON)
	pan := BatchItem{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1200, MaxY: 800}
	fetchBoxPayload(t, hs.URL, pan, CodecJSON) // resident, so the race is over the pair only
	pan.Base = &BaseRef{MinX: base.MinX, MinY: base.MinY, MaxX: base.MaxX, MaxY: base.MaxY, ID: strconv.FormatUint(baseID, 16)}

	deflates := srv.obs.stageComp.Count()
	const n = 8
	frames := make([]Frame, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			frames[g], errs[g] = postOneV3(hs.URL, CodecJSON, pan)
		}()
	}
	close(start)
	wg.Wait()
	for g := range frames {
		if errs[g] != nil || frames[g].Codec != FrameDeltaFlate {
			t.Fatalf("response %d: codec %d, %v", g, frames[g].Codec, errs[g])
		}
		if !bytes.Equal(frames[g].Payload, frames[0].Payload) {
			t.Fatalf("response %d ships different delta bytes", g)
		}
	}
	if got := srv.obs.stageComp.Count() - deflates; got != 1 {
		t.Fatalf("%d concurrent first requests for one pair ran %d deflate passes, want 1", n, got)
	}
}
