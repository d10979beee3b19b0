package frontend

import (
	"bytes"
	"testing"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/server"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// TestV3AgainstV3Server: the happy path — compressed frames, wire
// bytes below the logical payload bytes, and the same visible objects
// as per-item GETs of the final viewport.
func TestV3AgainstV3Server(t *testing.T) {
	db, ca := multiLayerApp(t, 4000)
	_, hs := startBackend(t, db, ca)
	c, err := NewClient(hs.URL, ca, Options{
		Scheme: fetch.DBox50, Codec: server.CodecJSON, CacheBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PanBy(300, 80); err != nil {
		t.Fatal(err)
	}
	var wireTotal, rawTotal int64
	for _, rep := range c.TotalReports {
		wireTotal += rep.WireBytes
		rawTotal += rep.Bytes
	}
	if wireTotal <= 0 || rawTotal <= 0 || wireTotal >= rawTotal {
		t.Fatalf("JSON wire bytes %d not below logical bytes %d", wireTotal, rawTotal)
	}
	for li := 0; li < 2; li++ {
		checkPerItemObjects(t, hs.URL, c, li)
	}
}

// TestV3DeltaPan: an overlapping pan sequence ships deltas — fewer wire
// bytes than the full payloads they stand for — and reconstructs exactly
// the rows per-item GETs return. This covers tombstone apply: rows
// leaving the box must disappear client-side.
func TestV3DeltaPan(t *testing.T) {
	for _, codec := range []server.Codec{server.CodecJSON, server.CodecBinary} {
		db, ca := multiLayerApp(t, 5000)
		srv, hs := startBackend(t, db, ca)
		c, err := NewClient(hs.URL, ca, Options{
			Scheme: fetch.DBoxExact, Codec: codec, CacheBytes: 16 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Load(); err != nil {
			t.Fatal(err)
		}
		var wire, raw int64
		for i := 0; i < 4; i++ {
			rep, err := c.PanBy(120, 30) // ~70% overlap per step
			if err != nil {
				t.Fatal(err)
			}
			wire += rep.WireBytes
			raw += rep.Bytes
		}
		if srv.Stats.DeltaFrames.Load() == 0 {
			t.Fatalf("codec %s: overlapping pans produced no delta frames", codec)
		}
		if wire >= raw {
			t.Fatalf("codec %s: pan wire bytes %d not below the full payloads' %d", codec, wire, raw)
		}
		for li := 0; li < 2; li++ {
			checkPerItemObjects(t, hs.URL, c, li)
		}
	}
}

// TestV3DeltaBaseEvicted: when the server can no longer prove the
// declared base (cache cleared under it), pans still produce correct
// full-frame results — the delta is an optimization, never a
// correctness dependency.
func TestV3DeltaBaseEvicted(t *testing.T) {
	db, ca := multiLayerApp(t, 3000)
	srv, hs := startBackend(t, db, ca)
	c, err := NewClient(hs.URL, ca, Options{
		Scheme: fetch.DBoxExact, Codec: server.CodecJSON, CacheBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	srv.BackendCache().Clear() // evict every would-be delta base
	deltasBefore := srv.Stats.DeltaFrames.Load()
	if _, err := c.PanBy(150, 0); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats.DeltaFrames.Load(); got != deltasBefore {
		t.Fatalf("server delta-encoded %d frames against an evicted base", got-deltasBefore)
	}
	checkPerItemObjects(t, hs.URL, c, 0)
}

// TestV3PrefetchDeclaresDeltaBase: a momentum-style prefetch of a box
// overlapping the current one rides a delta frame, and the promoted
// prefetched box both renders correctly and seeds the next delta base.
func TestV3PrefetchDeclaresDeltaBase(t *testing.T) {
	db, ca := multiLayerApp(t, 4000)
	srv, hs := startBackend(t, db, ca)
	c, err := NewClient(hs.URL, ca, Options{
		Scheme: fetch.DBoxExact, Codec: server.CodecJSON, CacheBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	next := c.Viewport().Translate(150, 0) // heavy overlap with current box
	deltasBefore := srv.Stats.DeltaFrames.Load()
	if err := c.PrefetchBoxes([]int{0, 1}, next); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats.DeltaFrames.Load() - deltasBefore; got != 2 {
		t.Fatalf("overlapping prefetch shipped %d delta frames, want 2", got)
	}
	// Pan into the prefetched region; the promoted box must hold the
	// same rows per-item GETs return.
	if _, err := c.Pan(next); err != nil {
		t.Fatal(err)
	}
	for li := 0; li < 2; li++ {
		checkPerItemObjects(t, hs.URL, c, li)
	}
	// The promoted box carries its payload identity, so the next pan
	// can delta against it.
	if st := c.boxes[0]; st == nil || st.wireID == 0 {
		t.Fatal("promoted prefetched box lost its delta-base id")
	}
}

// TestDecodeFrameCorrupt covers the client's handling of hostile or
// damaged v3 frames: corrupt DEFLATE, truncated delta bodies, and a
// delta frame for a sub-request that never declared a base all surface
// as errors instead of panics or silent misdecodes.
func TestDecodeFrameCorrupt(t *testing.T) {
	c := &Client{opts: Options{Codec: server.CodecJSON}}
	dboxSub := &batchSub{item: server.BatchItem{Kind: "dbox"}}

	if _, err := c.decodeFrame(dboxSub, wire.Frame{
		Codec: wire.CodecFlate, Payload: []byte{0xde, 0xad, 0xbe, 0xef},
	}); err == nil {
		t.Fatal("corrupt flate payload must error")
	}
	good, _ := wire.Compress(bytes.Repeat([]byte(`{"cols":[]}`), 50))
	if _, err := c.decodeFrame(dboxSub, wire.Frame{
		Codec: wire.CodecFlate, Payload: good[:len(good)/2],
	}); err == nil {
		t.Fatal("truncated flate payload must error")
	}
	if _, err := c.decodeFrame(dboxSub, wire.Frame{
		Codec: wire.CodecDelta, Payload: []byte{0x01},
	}); err == nil {
		t.Fatal("delta for a baseless sub must error")
	}
	withBase := &batchSub{
		item: server.BatchItem{Kind: "dbox"},
		base: &boxState{data: &server.Columns{}},
	}
	if _, err := c.decodeFrame(withBase, wire.Frame{
		Codec: wire.CodecDelta, Payload: []byte{0x01},
	}); err == nil {
		t.Fatal("truncated delta body must error")
	}
	// The happy flate path through decodeFrame still works: a valid
	// compressed payload inflates and decodes. (Oversized bombs are
	// covered at the wire layer, whose bound decodeFrame reuses.)
	payload, err := server.Encode(&server.DataResponse{Cols: []string{"id"}, Types: server.ColTypes{storage.TInt64}}, server.CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := wire.Compress(payload)
	if fr, err := c.decodeFrame(dboxSub, wire.Frame{Codec: wire.CodecFlate, Payload: comp}); err != nil || fr.data == nil {
		t.Fatalf("valid flate frame failed: %v", err)
	} else if fr.rawN != int64(len(payload)) {
		t.Fatalf("rawN = %d, want inflated size %d", fr.rawN, len(payload))
	}
}

// TestParallelChunkErrorIsolation: one chunk's failed items must not
// discard sibling frames' merges or stop the next chunk.
func TestParallelChunkErrorIsolation(t *testing.T) {
	db, ca := multiLayerApp(t, 1200)
	_, hs := startBackend(t, db, ca)
	c, err := NewClient(hs.URL, ca, Options{
		Scheme: fetch.DBoxExact, Codec: server.CodecJSON, CacheBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	// Hand-build > MaxBatchItems subs so the batch splits into two
	// chunks, half of them broken (no such layer).
	var subs []batchSub
	merged := 0
	for i := 0; i < server.MaxBatchItems+8; i++ {
		layer := 0
		if i%2 == 1 {
			layer = 9 // broken
		}
		subs = append(subs, batchSub{
			item: server.BatchItem{Kind: "dbox", Layer: layer,
				MinX: float64(i), MinY: 0, MaxX: float64(i) + 50, MaxY: 50},
			merge: func(fr frameResult) { merged++ },
		})
	}
	var rep FetchReport
	err = c.runBatch(subs, &rep, time.Now())
	if err == nil {
		t.Fatal("broken items must surface an error")
	}
	if merged != (server.MaxBatchItems+8)/2 {
		t.Fatalf("good siblings merged %d times, want %d", merged, (server.MaxBatchItems+8)/2)
	}
	if rep.Requests != 2 {
		t.Fatalf("expected 2 chunk round trips, got %d", rep.Requests)
	}
}
