package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kyrix/internal/fetch"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

func testResponse() *DataResponse {
	return &DataResponse{
		Cols:  []string{"id", "x", "name", "flag"},
		Types: []storage.ColType{storage.TInt64, storage.TFloat64, storage.TString, storage.TBool},
		Rows: []storage.Row{
			{storage.I64(1), storage.F64(2.5), storage.Str("a"), storage.Bool(true)},
			{storage.I64(-7), storage.F64(math.Pi), storage.Str("héllo'\"x"), storage.Bool(false)},
		},
	}
}

func TestWireRoundtrip(t *testing.T) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(string(codec), func(t *testing.T) {
			dr := testResponse()
			data, err := Encode(dr, codec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Decode(data, codec)
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Rows) != 2 || len(back.Cols) != 4 {
				t.Fatalf("shape = %dx%d", len(back.Rows), len(back.Cols))
			}
			for i := range dr.Rows {
				for j := range dr.Rows[i] {
					if !back.Rows[i][j].Equal(dr.Rows[i][j]) {
						t.Fatalf("cell %d,%d: %v vs %v", i, j, back.Rows[i][j], dr.Rows[i][j])
					}
				}
			}
		})
	}
}

func TestWireEmptyResult(t *testing.T) {
	dr := &DataResponse{Cols: []string{"a"}, Types: []storage.ColType{storage.TFloat64}}
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		data, err := Encode(dr, codec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data, codec)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Rows) != 0 || len(back.Cols) != 1 {
			t.Fatalf("%s: empty roundtrip = %+v", codec, back)
		}
	}
}

func TestWireBinarySmallerThanJSON(t *testing.T) {
	dr := &DataResponse{
		Cols:  []string{"id", "x", "y"},
		Types: []storage.ColType{storage.TInt64, storage.TFloat64, storage.TFloat64},
	}
	for i := 0; i < 1000; i++ {
		dr.Rows = append(dr.Rows, storage.Row{
			storage.I64(int64(i)), storage.F64(float64(i) * 1.37), storage.F64(float64(i) * 9.1),
		})
	}
	j, _ := Encode(dr, CodecJSON)
	b, _ := Encode(dr, CodecBinary)
	if len(b) >= len(j) {
		t.Fatalf("binary %d >= json %d", len(b), len(j))
	}
}

func TestWireErrors(t *testing.T) {
	if _, err := Encode(testResponse(), "xml"); err == nil {
		t.Fatal("unknown codec must fail")
	}
	if _, err := Decode([]byte("{bad"), CodecJSON); err == nil {
		t.Fatal("bad json must fail")
	}
	if _, err := Decode([]byte{0xFF}, CodecBinary); err == nil {
		t.Fatal("truncated binary must fail")
	}
	good, _ := Encode(testResponse(), CodecBinary)
	if _, err := Decode(good[:len(good)-3], CodecBinary); err == nil {
		t.Fatal("truncated binary rows must fail")
	}
}

// newPointsApp loads a small uniform dataset and compiles the
// single-canvas separable app the experiments use; servers over it are
// built by newPointsServer (default options) or directly by tests that
// need custom Options (the L2 tests rebuild servers over one app).
func newPointsApp(t testing.TB, n int, canvasW, canvasH float64) (*sqldb.DB, *spec.CompiledApp) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	d := workload.Uniform(n, canvasW, canvasH, 11)
	for _, p := range d.Points {
		if err := db.InsertRow("points", storage.Row{
			storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val),
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	app := &spec.App{
		Name: "pts",
		Canvases: []spec.Canvas{{
			ID: "main", W: canvasW, H: canvasH,
			Transforms: []spec.Transform{{
				ID: "t", Query: "SELECT * FROM points",
				Columns: []spec.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "t",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", Radius: 1},
				Renderer:    "dots",
			}},
		}},
		InitialCanvas: "main", InitialX: canvasW / 2, InitialY: canvasH / 2,
		ViewportW: 512, ViewportH: 512,
	}
	ca, err := spec.Compile(app, reg)
	if err != nil {
		t.Fatal(err)
	}
	return db, ca
}

// newPointsServer builds a complete backend over a small uniform
// dataset: the single-canvas separable app the experiments use.
func newPointsServer(t testing.TB, n int, canvasW, canvasH float64) (*Server, *httptest.Server) {
	t.Helper()
	db, ca := newPointsApp(t, n, canvasW, canvasH)
	srv, err := New(db, ca, Options{
		Cache: CacheOptions{L1: L1CacheOptions{Bytes: 8 << 20}},
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    []float64{512},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func getJSON(t *testing.T, url string, v any) {
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
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func TestAppEndpoint(t *testing.T) {
	_, hs := newPointsServer(t, 500, 4096, 2048)
	var meta AppMeta
	getJSON(t, hs.URL+"/app", &meta)
	if meta.Name != "pts" || len(meta.Canvases) != 1 {
		t.Fatalf("meta = %+v", meta)
	}
	lm := meta.Canvases[0].Layers[0]
	if !lm.HasData || !lm.Separable || lm.Radius != 1 {
		t.Fatalf("layer meta = %+v", lm)
	}
	if lm.XScale != 1 || lm.YScale != 1 {
		t.Fatalf("scales = %g %g", lm.XScale, lm.YScale)
	}
	if len(lm.TileSizes) != 1 || lm.TileSizes[0] != 512 {
		t.Fatalf("tile sizes = %v", lm.TileSizes)
	}
	// RowBox from meta matches the placement.
	row := storage.Row{storage.I64(1), storage.F64(100), storage.F64(50), storage.F64(0)}
	box := lm.RowBox(row)
	if box.Center() != (struct{ X, Y float64 }{100, 50}) && (box.MinX != 99 || box.MaxY != 51) {
		t.Fatalf("rowbox = %v", box)
	}
}

func TestTileEndpointBothDesigns(t *testing.T) {
	srv, hs := newPointsServer(t, 2000, 4096, 2048)
	fetchTile := func(design string) *DataResponse {
		resp, err := http.Get(fmt.Sprintf("%s/tile?canvas=main&layer=0&size=512&col=2&row=1&design=%s", hs.URL, design))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("tile %s: %s: %s", design, resp.Status, body)
		}
		dr, err := Decode(body, CodecJSON)
		if err != nil {
			t.Fatal(err)
		}
		return dr
	}
	sp := fetchTile("spatial")
	mp := fetchTile("mapping")
	if len(sp.Rows) == 0 {
		t.Fatal("empty tile")
	}
	ids := func(dr *DataResponse) map[int64]bool {
		out := map[int64]bool{}
		for _, r := range dr.Rows {
			out[r[0].AsInt()] = true
		}
		return out
	}
	si, mi := ids(sp), ids(mp)
	if len(si) != len(mi) {
		t.Fatalf("spatial %d ids, mapping %d ids", len(si), len(mi))
	}
	for id := range si {
		if !mi[id] {
			t.Fatalf("id %d missing from mapping result", id)
		}
	}
	if srv.Stats.TileRequests.Load() != 2 {
		t.Fatalf("tile requests = %d", srv.Stats.TileRequests.Load())
	}
}

func TestTileCacheHit(t *testing.T) {
	srv, hs := newPointsServer(t, 500, 4096, 2048)
	url := hs.URL + "/tile?canvas=main&layer=0&size=512&col=0&row=0&design=spatial"
	for i := 0; i < 3; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if hits := srv.Stats.CacheHits.Load(); hits != 2 {
		t.Fatalf("backend cache hits = %d want 2", hits)
	}
}

func TestDBoxEndpoint(t *testing.T) {
	srv, hs := newPointsServer(t, 2000, 4096, 2048)
	resp, err := http.Get(hs.URL + "/dbox?canvas=main&layer=0&minx=1000&miny=500&maxx=1512&maxy=1012&codec=binary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("dbox: %s: %s", resp.Status, body)
	}
	dr, err := Decode(body, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Rows) == 0 {
		t.Fatal("empty dbox")
	}
	// All returned rows intersect the requested box (radius 1 pad).
	for _, r := range dr.Rows {
		x, y := r[1].AsFloat(), r[2].AsFloat()
		if x < 999 || x > 1513 || y < 499 || y > 1013 {
			t.Fatalf("row outside box: %v", r)
		}
	}
	if srv.Stats.BoxRequests.Load() != 1 {
		t.Fatal("box request not counted")
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newPointsServer(t, 50, 4096, 2048)
	for _, u := range []string{
		"/tile?canvas=main&layer=9&size=512&col=0&row=0",
		"/tile?canvas=nope&layer=0&size=512&col=0&row=0",
		"/tile?canvas=main&layer=0&size=0&col=0&row=0",
		"/tile?canvas=main&layer=0&size=512&col=-1&row=0",
		"/tile?canvas=main&layer=0&size=512&col=0&row=0&design=quantum",
		"/tile?canvas=main&layer=0&size=777&col=0&row=0&design=mapping", // no mapping table
		"/dbox?canvas=main&layer=0&minx=9&miny=0&maxx=0&maxy=1",
		"/dbox?canvas=main&layer=0&minx=abc&miny=0&maxx=1&maxy=1",
		"/tile?canvas=main&layer=abc&size=512&col=0&row=0",
	} {
		resp, err := http.Get(hs.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s should fail", u)
		}
	}
}

// TestUnknownCodecRefused: /tile and /dbox answer 400 to a codec other
// than json or binary before consulting either cache tier. keySpace
// names the binary key space, so without the check a warm L1 would
// answer it with columnar bytes labelled as JSON.
func TestUnknownCodecRefused(t *testing.T) {
	srv, hs := newPointsServer(t, 200, 4096, 2048)
	get := func(u string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(hs.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}
	const tile = "/tile?canvas=main&layer=0&size=512&col=0&row=0"
	const box = "/dbox?canvas=main&layer=0&minx=0&miny=0&maxx=512&maxy=512"
	for _, u := range []string{tile + "&codec=binary", box + "&codec=binary"} {
		if resp, body := get(u); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", u, resp.Status, body)
		}
	}
	hits, queries := srv.Stats.CacheHits.Load(), srv.Stats.DBQueries.Load()
	for _, u := range []string{
		tile + "&codec=" + keySpace, box + "&codec=" + keySpace,
		tile + "&codec=xml", box + "&codec=xml",
	} {
		if resp, body := get(u); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: %s (%s), want 400", u, resp.Status, resp.Header.Get("Content-Type"))
		} else if !strings.Contains(string(body), "unknown codec") {
			t.Errorf("GET %s: body %q does not name the codec", u, body)
		}
	}
	if h, q := srv.Stats.CacheHits.Load(), srv.Stats.DBQueries.Load(); h != hits || q != queries {
		t.Fatalf("refused codecs reached the cache or database: hits %d -> %d, queries %d -> %d", hits, h, queries, q)
	}
}

// TestNonFiniteWindowRefused: a tile size that is NaN or infinite, or a
// box with an infinite edge, is a 400 — it has no tile grid and no cache
// key, and an infinite box would answer every row of the table — and
// the refusal costs L1 neither a miss nor a byte.
func TestNonFiniteWindowRefused(t *testing.T) {
	_, hs := newPointsServer(t, 200, 4096, 2048)
	l1 := func() L1Stats {
		var snap StatsSnapshot
		getJSON(t, hs.URL+"/stats", &snap)
		return snap.Cache.L1
	}
	before := l1()
	for _, u := range []string{
		"/tile?canvas=main&layer=0&size=NaN&col=0&row=0",
		"/tile?canvas=main&layer=0&size=Inf&col=0&row=0",
		"/tile?canvas=main&layer=0&size=NaN&col=0&row=0&codec=binary",
		"/dbox?canvas=main&layer=0&minx=-Inf&miny=-Inf&maxx=Inf&maxy=Inf",
		"/dbox?canvas=main&layer=0&minx=0&miny=0&maxx=Inf&maxy=512&codec=binary",
	} {
		resp, err := http.Get(hs.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: %s (%d bytes), want 400", u, resp.Status, len(body))
		}
	}
	if after := l1(); after.Misses != before.Misses || after.Bytes != before.Bytes {
		t.Fatalf("refused windows reached L1: misses %d -> %d, bytes %d -> %d",
			before.Misses, after.Misses, before.Bytes, after.Bytes)
	}
}

func TestUpdateEndpoint(t *testing.T) {
	srv, hs := newPointsServer(t, 100, 4096, 2048)
	// Warm the backend cache.
	resp, _ := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=0&row=0")
	tile, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if srv.BackendCache().Stats().Entries == 0 {
		t.Fatal("cache should be warm")
	}
	dr, err := Decode(tile, CodecJSON)
	if err != nil || len(dr.Rows) == 0 {
		t.Fatalf("tile 0/0 should hold rows (err %v)", err)
	}
	// Issue an update through the §4 update endpoint, to a row the cached
	// tile holds.
	req := UpdateRequest{
		SQL:  "UPDATE points SET val = ? WHERE id = ?",
		Args: []ArgValue{{Kind: storage.TFloat64, F: 99.5}, {Kind: storage.TInt64, I: dr.Rows[0][0].AsInt()}},
	}
	body, _ := json.Marshal(req)
	resp, err = http.Post(hs.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("update: %s: %s", resp.Status, b)
	}
	var out map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["affected"] != 1 {
		t.Fatalf("affected = %d", out["affected"])
	}
	// Update removes the cached tile holding the row.
	if srv.BackendCache().Stats().Entries != 0 {
		t.Fatal("cache not invalidated by update")
	}
	// GET is rejected; bad SQL is rejected.
	resp, _ = http.Get(hs.URL + "/update")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatal("GET /update should 405")
	}
	resp, _ = http.Post(hs.URL+"/update", "application/json", bytes.NewReader([]byte(`{"sql":"DROP nonsense"}`)))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("bad SQL should fail")
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, hs := newPointsServer(t, 100, 4096, 2048)
	resp, _ := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=0&row=0")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Default is the versioned structured schema (v2).
	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	if snap.V != 2 {
		t.Fatalf("stats version = %d, want 2", snap.V)
	}
	if snap.Serving.TileRequests != 1 || snap.Serving.RowsServed == 0 {
		t.Fatalf("v2 serving stats = %+v", snap.Serving)
	}
	if snap.Cache.L2 != nil {
		t.Fatal("L2 section present with no persistent store configured")
	}
	if snap.Cluster != nil {
		t.Fatal("cluster section present on a standalone node")
	}
	// The served tile is resident in L1, and the snapshot says so.
	if snap.Cache.L1.Bytes <= 0 || snap.Cache.L1.Shards <= 0 {
		t.Fatalf("v2 L1 stats = %+v", snap.Cache.L1)
	}
}
