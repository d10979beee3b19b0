package frontend

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// TestBatchStreamKeepsConnectionAlive: a framed batch is read to the end
// of its body — chunked terminator included — before it is closed, so
// net/http returns the connection to the pool and sequential batches
// share one TCP connection. Before the drain every batch dialed anew.
func TestBatchStreamKeepsConnectionAlive(t *testing.T) {
	db, ca := multiLayerApp(t, 3000)
	srv, err := server.New(db, ca, server.Options{
		Cache:      server.CacheOptions{L1: server.L1CacheOptions{Bytes: 8 << 20}},
		Precompute: fetch.Options{BuildSpatial: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c, err := NewClient(hs.URL, ca, Options{
		Scheme: fetch.DBoxExact, Codec: server.CodecBinary, HTTPClient: hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rep, err := c.PanBy(7, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Requests != 1 {
			t.Fatalf("pan %d issued %d requests, want one batch", i, rep.Requests)
		}
	}
	// The per-frame-error path drains too: the stream still ends cleanly
	// after an error frame.
	var rep FetchReport
	bad := []batchSub{{item: server.BatchItem{Kind: "dbox", Layer: 99, MaxX: 10, MaxY: 10}}}
	if err := c.postBatch(bad, &rep, time.Now()); err == nil {
		t.Fatal("bad layer must surface as a frame error")
	}
	if _, err := c.PanBy(7, 3); err != nil {
		t.Fatal(err)
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("52 sequential batches opened %d connections, want 1", got)
	}
}

// taggedApp is a one-layer app whose rows carry a text and a bool
// column next to the numeric ones, so variable-width rows and awkward
// string bytes cross the delta path. Half the ids sit above 2^53, odd
// and two apart — no two of them survive a trip through float64 — and
// the int64 extremes are among them: the server's delta planner reads
// ids exactly, so a client that did not would drop the wrong rows.
func taggedApp(t *testing.T, rng *rand.Rand, n int) (*sqldb.DB, *spec.CompiledApp) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE pts (id INT, x DOUBLE, y DOUBLE, tag TEXT, ok BOOL)"); err != nil {
		t.Fatal(err)
	}
	tags := []string{"", "plain", `quo"te`, `back\slash`, "a,b", "]}", "[[1,2]", `"rows":[`, "<&>", "ünï-✓", "tab\tnl\n"}
	for i := 0; i < n; i++ {
		id := int64(i)*13 - 5000
		switch {
		case i == 0:
			id = math.MaxInt64
		case i == 1:
			id = math.MinInt64
		case i%2 == 0:
			id = 1<<53 + 1 + int64(i)
		}
		if err := db.InsertRow("pts", storage.Row{
			storage.I64(id), storage.F64(rng.Float64() * 2048), storage.F64(rng.Float64() * 1024),
			storage.Str(tags[rng.Intn(len(tags))]), storage.Bool(rng.Intn(2) == 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	app := &spec.App{
		Name: "tagged",
		Canvases: []spec.Canvas{{
			ID: "main", W: 2048, H: 1024,
			Transforms: []spec.Transform{{ID: "pts", Query: "SELECT * FROM pts", Columns: []spec.ColumnSpec{
				{Name: "id", Type: "int"}, {Name: "x", Type: "double"}, {Name: "y", Type: "double"},
				{Name: "tag", Type: "text"}, {Name: "ok", Type: "bool"},
			}}},
			Layers: []spec.Layer{{TransformID: "pts",
				Placement: &spec.Placement{XCol: "x", YCol: "y", Radius: 1}, Renderer: "dots"}},
		}},
		InitialCanvas: "main", InitialX: 1024, InitialY: 512, ViewportW: 512, ViewportH: 512,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	return db, ca
}

// postStream posts a v3 batch and returns the whole response stream.
func postStream(t testing.TB, url string, req server.BatchRequestV2) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s, %v: %s", resp.Status, err, stream)
	}
	return stream
}

// postOneV3 posts a single-item v3 batch and returns its one frame.
func postOneV3(t testing.TB, url string, codec server.Codec, it server.BatchItem) wire.Frame {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(postStream(t, url, server.BatchRequestV2{
		V: wire.V3, Canvas: "main", Codec: codec, Items: []server.BatchItem{it},
	})))
	if _, n, err := wire.ReadHeader(br); err != nil || n != 1 {
		t.Fatalf("v3 header: %d frames, %v", n, err)
	}
	f, err := wire.ReadFrame(br, wire.V3)
	if err != nil || f.Status != wire.FrameOK {
		t.Fatalf("v3 frame: %v %s", err, f.Payload)
	}
	return f
}

// postFullV3 posts a single-item v3 batch with no delta base and returns
// the full payload its frame carries, inflated.
func postFullV3(t testing.TB, url string, codec server.Codec, it server.BatchItem) []byte {
	t.Helper()
	f := postOneV3(t, url, codec, it)
	if !f.Codec.Compressed() {
		return f.Payload
	}
	payload, err := wire.Decompress(f.Payload, wire.MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDeltaApplyReconstructsFullPayload: over random overlapping box
// pairs and both codecs, the server's delta frame — assembled from byte
// ranges of its cached payload, never from decoded rows — applied by
// applyDelta to the base the client holds yields exactly the rows of
// the full payload it stands for, and names that payload as the next
// base id.
func TestDeltaApplyReconstructsFullPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, codec := range []server.Codec{server.CodecJSON, server.CodecBinary} {
		db, ca := taggedApp(t, rng, 4000)
		_, hs := startBackend(t, db, ca)
		c := &Client{opts: Options{Codec: codec}}
		deltas := 0
		for trial := 0; trial < 60; trial++ {
			w, h := 200+rng.Float64()*700, 150+rng.Float64()*500
			x, y := rng.Float64()*(2048-w), rng.Float64()*(1024-h)
			base := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			dx, dy := (rng.Float64()-0.5)*w, (rng.Float64()-0.5)*h
			next := geom.Rect{MinX: x + dx, MinY: y + dy, MaxX: x + dx + w, MaxY: y + dy + h}
			item := func(r geom.Rect) server.BatchItem {
				return server.BatchItem{Kind: "dbox", Layer: 0, MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
			}
			held := postFullV3(t, hs.URL, codec, item(base))
			heldData, err := server.DecodeColumns(held, codec)
			if err != nil {
				t.Fatal(err)
			}
			full := postFullV3(t, hs.URL, codec, item(next))
			fullDR, err := server.Decode(full, codec)
			if err != nil {
				t.Fatal(err)
			}

			it := item(next)
			it.Base = &server.BaseRef{MinX: base.MinX, MinY: base.MinY, MaxX: base.MaxX, MaxY: base.MaxY,
				ID: strconv.FormatUint(wire.PayloadID(held), 16)}
			f := postOneV3(t, hs.URL, codec, it)
			if f.Codec.IsDelta() {
				deltas++
			}
			sub := &batchSub{item: it, base: &boxState{box: base, data: heldData, wireID: wire.PayloadID(held)}}
			fr, err := c.decodeFrame(sub, f)
			if err != nil {
				t.Fatalf("%s trial %d: %v", codec, trial, err)
			}
			if fr.boxID != wire.PayloadID(full) || fr.rawN != int64(len(full)) {
				t.Fatalf("%s trial %d: frame stands for id %x len %d, full payload is %x len %d",
					codec, trial, fr.boxID, fr.rawN, wire.PayloadID(full), len(full))
			}
			want := make(map[int64]storage.Row, len(fullDR.Rows))
			for _, row := range fullDR.Rows {
				want[row[0].AsInt()] = row
			}
			got := fr.data.Response()
			if len(got.Rows) != len(fullDR.Rows) {
				t.Fatalf("%s trial %d: reconstructed %d rows, full payload has %d", codec, trial, len(got.Rows), len(fullDR.Rows))
			}
			for _, row := range got.Rows {
				if !reflect.DeepEqual(row, want[row[0].AsInt()]) {
					t.Fatalf("%s trial %d: row %v, full payload has %v", codec, trial, row, want[row[0].AsInt()])
				}
			}
		}
		if deltas < 20 {
			t.Fatalf("%s: only %d of 60 overlapping pans shipped as deltas", codec, deltas)
		}
	}
}
