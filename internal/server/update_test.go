package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// scaledApp is a points layer whose placement is not the identity: canvas
// x = 2·x, canvas y = y/2, dots of radius 3. rows are (id, x, y, val).
func scaledApp(t testing.TB, rows []storage.Row) (*sqldb.DB, *spec.CompiledApp) {
	t.Helper()
	db := sqldb.NewDB()
	if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := db.InsertRow("points", append(storage.Row(nil), r...)); err != nil {
			t.Fatal(err)
		}
	}
	reg := spec.NewRegistry()
	reg.RegisterRenderer("dots")
	ca, err := spec.Compile(&spec.App{
		Name: "scaled",
		Canvases: []spec.Canvas{{
			ID: "main", W: 2048, H: 1024,
			Transforms: []spec.Transform{{
				ID: "t", Query: "SELECT * FROM points",
				Columns: []spec.ColumnSpec{
					{Name: "id", Type: "int"}, {Name: "x", Type: "double"},
					{Name: "y", Type: "double"}, {Name: "val", Type: "double"},
				},
			}},
			Layers: []spec.Layer{{
				TransformID: "t",
				Placement:   &spec.Placement{XCol: "x", YCol: "y", XScale: 2, YScale: 0.5, Radius: 3},
				Renderer:    "dots",
			}},
		}},
		InitialCanvas: "main", InitialX: 1024, InitialY: 512,
		ViewportW: 512, ViewportH: 512,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	return db, ca
}

func scaledOptions(l2dir string) Options {
	o := Options{
		Cache: CacheOptions{L1: L1CacheOptions{Bytes: 64 << 20}},
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    []float64{512},
		},
	}
	if l2dir != "" {
		o.Cache.L2 = L2CacheOptions{Path: l2dir, MaxBytes: 256 << 20, WriteQueueDepth: 4096, FlushInterval: time.Hour}
	}
	return o
}

// sortedRows decodes a payload into printable rows sorted by id: two
// payloads over the same rows may list them in different R-tree orders.
func sortedRows(t testing.TB, raw []byte, codec Codec) []string {
	t.Helper()
	dr, err := Decode(raw, codec)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(dr.Rows, func(i, j int) bool { return dr.Rows[i][0].AsInt() < dr.Rows[j][0].AsInt() })
	out := make([]string, len(dr.Rows))
	for i, r := range dr.Rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestBoxKeyCollisionServesDistinctRows: boxes [10.0, …] and [10.4, …]
// used to share a cache key, so the second /dbox was served the first's
// rows — including the dot at canvas x = 10.2 that only the first holds.
func TestBoxKeyCollisionServesDistinctRows(t *testing.T) {
	db, ca := newPointsApp(t, 0, 4096, 2048)
	for i, x := range []float64{9.2, 50} { // radius 1: the first dot spans canvas x 8.2..10.2
		if err := db.InsertRow("points", storage.Row{storage.I64(int64(i)), storage.F64(x), storage.F64(5), storage.F64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(db, ca, Options{Cache: CacheOptions{L1: L1CacheOptions{Bytes: 8 << 20}}, Precompute: fetch.Options{BuildSpatial: true}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ids := func(minx float64) string {
		dr := getBox(t, hs, minx, 0, 100, 10)
		var out []string
		for _, r := range dr.Rows {
			out = append(out, fmt.Sprint(r[0].AsInt()))
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	if got := ids(10.0); got != "0,1" {
		t.Fatalf("box from 10.0 holds ids %s, want 0,1", got)
	}
	if got := ids(10.4); got != "1" {
		t.Fatalf("box from 10.4 holds ids %s, want 1: served the neighbouring box's payload", got)
	}
	if got := srv.Stats.DBQueries.Load(); got != 2 {
		t.Fatalf("two distinct boxes ran %d queries", got)
	}
}

// window is one cacheable request of the coherence test.
type window struct {
	item  BatchItem
	codec Codec
	rect  geom.Rect
}

// serve returns the window's payload as a client of its codec receives
// it.
func (w *window) serve(t testing.TB, srv *Server) *payload {
	t.Helper()
	p, err := srv.serveItem(context.Background(), "main", w.item, false)
	if err == nil && w.codec == CodecJSON {
		var doc []byte
		if doc, err = srv.document(context.Background(), p, w.codec); err == nil {
			p = &payload{raw: doc}
		}
	}
	if err != nil {
		t.Fatalf("serve %+v: %v", w.item, err)
	}
	return p
}

// TestScopedInvalidationCoherence checks the update path against the
// database as the model. Random INSERTs, DELETEs, UPDATEs that move a row
// and UPDATEs of its value run over a layer with non-identity placement
// (scale 2 × 0.5, radius 3) while boxes and tiles of both designs in both
// codecs sit in L1 and L2. After every acked statement, every window
// requested so far is served again and must equal a fresh query — whether
// L1 answers or (L1 dropped by the test) L2 does — and a window none of
// the statement's row rectangles intersects must be served without a
// database query: it was not removed. (Mapping-design tiles are exempt
// from the second half: their contents follow the build-time tuple–tile
// table, not the rows' positions, so every edit sweeps them.)
func TestScopedInvalidationCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var rows []storage.Row
	type pt struct{ x, y float64 }
	model := map[int64]pt{}
	for i := 0; i < 600; i++ {
		p := pt{rng.Float64() * 1000, rng.Float64() * 2000}
		model[int64(i)] = p
		rows = append(rows, storage.Row{storage.I64(int64(i)), storage.F64(p.x), storage.F64(p.y), storage.F64(0)})
	}
	db, ca := scaledApp(t, rows)
	srv, err := New(db, ca, scaledOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pl, _ := srv.Layer("main", 0)
	rowRect := func(p pt) geom.Rect { return geom.RectAround(geom.Point{X: p.x * 2, Y: p.y * 0.5}, 3) }

	var windows []*window
	addWindows := func(n int) {
		for i := 0; i < n; i++ {
			codec := []Codec{CodecJSON, CodecBinary}[rng.Intn(2)]
			w := &window{codec: codec}
			switch rng.Intn(3) {
			case 0:
				x, y := rng.Float64()*1800, rng.Float64()*900
				w.rect = geom.Rect{MinX: x, MinY: y, MaxX: x + 40 + rng.Float64()*300, MaxY: y + 40 + rng.Float64()*200}
				w.item = BatchItem{Kind: "dbox", MinX: w.rect.MinX, MinY: w.rect.MinY, MaxX: w.rect.MaxX, MaxY: w.rect.MaxY}
			default:
				tid := geom.TileID{Col: rng.Intn(4), Row: rng.Intn(2)}
				w.rect = tid.TileRect(512)
				w.item = BatchItem{Kind: "tile", Size: 512, Col: tid.Col, Row: tid.Row, Design: []string{"spatial", "mapping"}[rng.Intn(2)]}
			}
			windows = append(windows, w)
		}
	}
	addWindows(60)

	nextID := int64(len(model))
	someID := func() int64 {
		for id := range model {
			return id
		}
		return 0
	}
	for step := 0; step < 80; step++ {
		for _, w := range windows { // make sure everything requested so far is in both tiers
			w.serve(t, srv)
		}
		if err := srv.l2.Flush(); err != nil {
			t.Fatal(err)
		}

		// One statement; touched collects the rectangles of every row
		// image it changed, computed from the test's own model.
		var touched []geom.Rect
		var sql string
		var args []storage.Value
		switch rng.Intn(5) {
		case 0:
			p := pt{rng.Float64() * 1000, rng.Float64() * 2000}
			sql = "INSERT INTO points VALUES (?, ?, ?, 1)"
			args = []storage.Value{storage.I64(nextID), storage.F64(p.x), storage.F64(p.y)}
			model[nextID] = p
			touched = append(touched, rowRect(p))
			nextID++
		case 1:
			id := someID()
			sql, args = "DELETE FROM points WHERE id = ?", []storage.Value{storage.I64(id)}
			touched = append(touched, rowRect(model[id]))
			delete(model, id)
		case 2: // moves the row: old and new rectangle
			id := someID()
			p := pt{rng.Float64() * 1000, rng.Float64() * 2000}
			sql, args = "UPDATE points SET x = ?, y = ? WHERE id = ?", []storage.Value{storage.F64(p.x), storage.F64(p.y), storage.I64(id)}
			touched = append(touched, rowRect(model[id]), rowRect(p))
			model[id] = p
		case 3: // a handful of rows by range, in place
			lo := someID()
			sql, args = "UPDATE points SET val = val + 1 WHERE id >= ? AND id < ?", []storage.Value{storage.I64(lo), storage.I64(lo + 5)}
			for id := lo; id < lo+5; id++ {
				if p, ok := model[id]; ok {
					touched = append(touched, rowRect(p))
				}
			}
		default:
			id := someID()
			sql, args = "UPDATE points SET val = ? WHERE id = ?", []storage.Value{storage.F64(float64(step)), storage.I64(id)}
			touched = append(touched, rowRect(model[id]))
		}
		_, inv, err := srv.execUpdate(sql, args)
		if err != nil {
			t.Fatalf("step %d %q: %v", step, sql, err)
		}
		if inv.scope != "rows" {
			t.Fatalf("step %d %q took the %q path", step, sql, inv.scope)
		}
		dropL1 := rng.Intn(2) == 0
		if dropL1 {
			srv.bcache.Clear() // L2 must now answer, and must not answer stale
		}
		for wi, w := range windows {
			before := srv.Stats.DBQueries.Load()
			got := w.serve(t, srv)
			queried := srv.Stats.DBQueries.Load() - before
			var q string
			var qargs []storage.Value
			if w.item.Kind == "tile" && w.item.Design == "mapping" {
				q, qargs, _ = pl.TileSQLMapping(geom.TileID{Col: w.item.Col, Row: w.item.Row}, 512)
			} else {
				q, qargs = pl.WindowSQL(w.rect)
			}
			fresh, err := srv.runQuery(context.Background(), q, qargs)
			if err != nil {
				t.Fatal(err)
			}
			g, f := sortedRows(t, got.raw, w.codec), sortedRows(t, fresh.raw, CodecBinary)
			if strings.Join(g, ";") != strings.Join(f, ";") {
				t.Fatalf("step %d %q %v: window %d %+v (%s, L1 dropped %v) serves\n %v\nfresh query says\n %v", step, sql, args, wi, w.item, w.codec, dropL1, g, f)
			}
			// A mapping tile lists rows by where they were at build time,
			// so any edit to the layer sweeps all of them.
			hit := w.item.Design == "mapping"
			for _, r := range touched {
				hit = hit || r.Intersects(w.rect)
			}
			if !hit && queried != 0 {
				t.Fatalf("step %d %q %v: window %d %+v (%s) is outside every touched rectangle %v but was re-queried (L1 dropped %v)",
					step, sql, args, wi, w.item, w.codec, touched, dropL1)
			}
		}
		if step%10 == 0 {
			addWindows(5)
		}
	}
	if srv.Stats.InvalidationsFull.Load() != 0 || srv.Stats.InvalidationsScoped.Load() != 80 {
		t.Fatalf("invalidations: %d scoped, %d full", srv.Stats.InvalidationsScoped.Load(), srv.Stats.InvalidationsFull.Load())
	}
	if srv.Stats.L1Removed.Load() == 0 || srv.l2.Stats.Tombstones.Load() == 0 {
		t.Fatalf("nothing was ever removed: L1 %d, L2 %d", srv.Stats.L1Removed.Load(), srv.l2.Stats.Tombstones.Load())
	}
}

func postUpdateArgs(t testing.TB, baseURL, sql string, args ...ArgValue) (int, string) {
	t.Helper()
	body, _ := json.Marshal(UpdateRequest{SQL: sql, Args: args})
	resp, err := http.Post(baseURL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestScopedInvalidationConcurrentV3 (run with -race -count=10): sixteen
// v3 readers, each declaring the payload it holds as its delta base, race
// a stream of updates that rewrite val for the dots of the left strip
// only. Left-box readers must never see a value older than the last ack
// before their request — whether the frame is full (their base was
// removed) or a delta (the server vouches for what they hold). Right-box
// readers hold a base no update touches: it stays cached, so every one of
// their frames is a delta and the right box never reaches the database
// again.
func TestScopedInvalidationConcurrentV3(t *testing.T) {
	srv, hs := newPointsServer(t, 3000, 4096, 2048)
	left := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 900, MaxY: 1200}
	right := BatchItem{Kind: "dbox", Layer: 0, MinX: 2000, MinY: 0, MaxX: 3400, MaxY: 1200}
	const codec = CodecBinary
	// The strip the writer edits: well inside left, nowhere near right,
	// few enough dots (≈ 100 of 3000) to stay on the scoped path.
	const stripSQL = "UPDATE points SET val = ? WHERE x < 150"

	var acked atomic.Int64
	update := func(k int) {
		if code, msg := postUpdateArgs(t, hs.URL, stripSQL, ArgValue{Kind: storage.TFloat64, F: float64(k)}); code != http.StatusOK {
			t.Errorf("/update: %d %s", code, msg)
		}
		acked.Store(int64(k))
	}
	update(1)
	// Warm the right box before the stream, so its entry is resident (a
	// fill racing an update is never stored, by the generation fence).
	if _, err := postOneV3(hs.URL, codec, right); err != nil {
		t.Fatal(err)
	}
	rightQueries := srv.Stats.DBQueries.Load()

	var (
		wg                     sync.WaitGroup
		leftFull, leftDelta    atomic.Int64
		rightFull, rightDeltas atomic.Int64
	)
	stop := make(chan struct{})
	reader := func(box BatchItem, isLeft bool) {
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
				it.Base = &BaseRef{MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY, ID: strconv.FormatUint(heldID, 16)}
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
				d, err := wire.DecodeDelta(body)
				if err != nil || len(d.Tombstones) != 0 || d.NewID != heldID {
					t.Errorf("same-box delta: %v, %d tombstones, id %x vs held %x", err, len(d.Tombstones), d.NewID, heldID)
					return
				}
				if isLeft {
					leftDelta.Add(1)
				} else {
					rightDeltas.Add(1)
				}
			} else {
				if held != nil && !isLeft {
					rightFull.Add(1)
				}
				if isLeft {
					leftFull.Add(1)
				}
				if held, err = Decode(body, codec); err != nil {
					t.Error(err)
					return
				}
				heldID = wire.PayloadID(body)
			}
			if isLeft {
				for _, row := range held.Rows {
					if row[1].AsFloat() < 150 && row[3].AsFloat() < floor {
						t.Errorf("dot %d carries val %g after the update to %g was acked (delta frame: %v)", row[0].AsInt(), row[3].AsFloat(), floor, f.Codec.IsDelta())
						return
					}
				}
			}
		}
	}
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go reader([]BatchItem{left, right}[g%2], g%2 == 0)
	}
	for k := 2; k <= 14; k++ {
		update(k)
		time.Sleep(2 * time.Millisecond) // let deltas against the new payload happen too
	}
	close(stop)
	wg.Wait()
	if leftFull.Load() < 13 {
		t.Errorf("left readers saw %d full frames over 13 updates: removed bases must come back full", leftFull.Load())
	}
	if rightFull.Load() != 0 || rightDeltas.Load() == 0 {
		t.Errorf("right readers: %d full frames after their first, %d deltas; an untouched base must keep yielding deltas", rightFull.Load(), rightDeltas.Load())
	}
	// The right box was queried once, before the stream, and never again.
	rightKey := keySpace + "/" + fetch.BoxKeyOf("main/0", right.Box())
	if !srv.bcache.Contains(rightKey) {
		t.Error("the untouched box was removed from L1")
	}
	leftQueries := srv.Stats.DBQueries.Load() - rightQueries
	if leftQueries > 14*16 {
		t.Errorf("%d queries after warm-up", leftQueries)
	}
	t.Logf("left: %d full, %d delta frames; right: %d delta frames; %d queries for the left box", leftFull.Load(), leftDelta.Load(), rightDeltas.Load(), leftQueries)
}

// TestFailedStatementInvalidatesTouchedRows: an UPDATE that fails on its
// third matching row has already rewritten the first two, and the cached
// windows holding them must go before the error is surfaced — they used
// to stay, serving values the heap no longer has.
func TestFailedStatementInvalidatesTouchedRows(t *testing.T) {
	rows := []storage.Row{
		{storage.I64(1), storage.F64(10), storage.F64(100), storage.F64(0)},   // canvas (20, 50)
		{storage.I64(2), storage.F64(300), storage.F64(100), storage.F64(0)},  // canvas (600, 50)
		{storage.I64(3), storage.F64(600), storage.F64(100), storage.F64(0)},  // canvas (1200, 50): x - 600 = 0
		{storage.I64(4), storage.F64(900), storage.F64(100), storage.F64(0)},  // canvas (1800, 50): never reached
		{storage.I64(5), storage.F64(900), storage.F64(1800), storage.F64(0)}, // canvas (1800, 900): not matched
	}
	db, ca := scaledApp(t, rows)
	srv, err := New(db, ca, scaledOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	box := func(cx float64) *window {
		r := geom.Rect{MinX: cx - 20, MinY: 0, MaxX: cx + 20, MaxY: 100}
		return &window{codec: CodecJSON, rect: r, item: BatchItem{Kind: "dbox", MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}}
	}
	wins := []*window{box(20), box(600), box(1200), box(1800)}
	for _, w := range wins {
		w.serve(t, srv)
	}
	if err := srv.l2.Flush(); err != nil {
		t.Fatal(err)
	}
	code, msg := postUpdateArgs(t, hs.URL, "UPDATE points SET val = 1 / (x - ?) WHERE y < 1000", ArgValue{Kind: storage.TFloat64, F: 600})
	if code != http.StatusBadRequest || !strings.Contains(msg, "division by zero") {
		t.Fatalf("/update = %d %q, want the division error", code, msg)
	}
	for i, w := range wins {
		key := keySpace + "/" + fetch.BoxKeyOf("main/0", w.rect)
		_, inL2 := srv.l2.Get(key)
		if changed := i < 2; srv.bcache.Contains(key) == changed || inL2 == changed {
			t.Errorf("window %d (row changed: %v): in L1 %v, in L2 %v", i, changed, srv.bcache.Contains(key), inL2)
		}
		dr, err := Decode(w.serve(t, srv).raw, w.codec)
		if err != nil || len(dr.Rows) != 1 {
			t.Fatalf("window %d: %v rows, %v", i, dr, err)
		}
		want := []float64{1 / (10.0 - 600), 1 / (300.0 - 600), 0, 0}[i]
		if got := dr.Rows[0][3].AsFloat(); got != want {
			t.Errorf("window %d serves val %g, the heap holds %g", i, got, want)
		}
	}
	if srv.Stats.Updates.Load() != 0 || srv.Stats.InvalidationsScoped.Load() != 1 {
		t.Fatalf("a failed statement counts as %d updates, %d scoped invalidations", srv.Stats.Updates.Load(), srv.Stats.InvalidationsScoped.Load())
	}
}

// TestRestartOverTombstonedL2: what a scoped update removed from L2 stays
// removed after a restart over the same directory; what it left alone is
// served without a query.
func TestRestartOverTombstonedL2(t *testing.T) {
	dir := t.TempDir()
	mk := func() []storage.Row {
		return []storage.Row{
			{storage.I64(1), storage.F64(10), storage.F64(100), storage.F64(0)},
			{storage.I64(2), storage.F64(900), storage.F64(1800), storage.F64(0)},
		}
	}
	db, ca := scaledApp(t, mk())
	srv, err := New(db, ca, scaledOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	near := &window{codec: CodecBinary, item: BatchItem{Kind: "tile", Size: 512, Design: "spatial"}}                // holds id 1
	far := &window{codec: CodecBinary, item: BatchItem{Kind: "tile", Size: 512, Col: 3, Row: 1, Design: "spatial"}} // holds id 2
	near.serve(t, srv)
	farBefore := far.serve(t, srv)
	if err := srv.l2.Flush(); err != nil {
		t.Fatal(err)
	}
	const edit = "UPDATE points SET val = 9 WHERE id = 1"
	if _, inv, err := srv.execUpdate(edit, nil); err != nil || inv.l2Removed != 1 || inv.l1Removed != 1 {
		t.Fatalf("update: %+v, %v", inv, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	db2, ca2 := scaledApp(t, mk())
	if _, err := db2.Exec(edit); err != nil { // the restarted node's data is post-update
		t.Fatal(err)
	}
	srv2, err := New(db2, ca2, scaledOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := far.serve(t, srv2); srv2.Stats.DBQueries.Load() != 0 || !bytes.Equal(got.raw, farBefore.raw) {
		t.Fatalf("untouched tile after restart: %d queries", srv2.Stats.DBQueries.Load())
	}
	dr, err := Decode(near.serve(t, srv2).raw, near.codec)
	if err != nil || len(dr.Rows) != 1 || dr.Rows[0][3].AsFloat() != 9 {
		t.Fatalf("tombstoned tile after restart: %v, %v", dr, err)
	}
	if srv2.Stats.DBQueries.Load() != 1 {
		t.Fatalf("tombstoned tile was served without a query: the pre-update record came back")
	}
}

// TestUpdateBodyBounded: an /update body over 1 MiB, or one whose log
// command would re-encode past 1 MiB, is refused with 413 before it
// reaches the replicated log, so every logged command fits one append.
func TestUpdateBodyBounded(t *testing.T) {
	db, ca := scaledApp(t, nil)
	opts := scaledOptions("")
	opts.Cluster.Replog.Dir = t.TempDir()
	srv, err := New(db, ca, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The single member elects itself and appends its election no-op in
	// the background; wait until that has happened, so LastIndex only
	// moves if a refused body reached the log.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		st := srv.Replog().Snapshot()
		if st.Role == "leader" && st.Applied == st.LastIndex {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("single-member log never settled as leader: %+v", st)
		}
	}
	for name, sql := range map[string]string{
		"body":    strings.Repeat("a", 2<<20),
		"command": strings.Repeat("<", 300<<10), // re-encoded as \u003c, 6 bytes each
	} {
		before := srv.Replog().Snapshot().LastIndex
		body := []byte(`{"sql":"` + sql + `"}`)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body answered %d, want 413", name, len(body), w.Code)
		}
		if after := srv.Replog().Snapshot().LastIndex; after != before {
			t.Errorf("%s: log LastIndex moved %d -> %d", name, before, after)
		}
	}
}

// TestUpdateCutShortIsAnError: the replicated log applies an /update's
// SQL on its applier goroutine, on every node and again at every
// replay, so a statement cut short must come back as a parse error
// rather than a panic that would take the process down with it.
func TestUpdateCutShortIsAnError(t *testing.T) {
	db, ca := scaledApp(t, nil)
	opts := scaledOptions("")
	opts.Cluster.Replog.Dir = t.TempDir()
	srv, err := New(db, ca, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, body := range []string{`{"sql":"CREATE TABLE A(A"}`, `{"sql":"CREATE TABLE ok (a INT)"}`} {
		var w *httptest.ResponseRecorder
		for try := 0; try < 100; try++ { // 503 until the single member elects itself
			w = httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body)))
			if w.Code != http.StatusServiceUnavailable {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		want := http.StatusOK
		if strings.Contains(body, "A(A") {
			want = http.StatusBadRequest
		}
		if w.Code != want {
			t.Fatalf("%s answered %d (%s), want %d", body, w.Code, strings.TrimSpace(w.Body.String()), want)
		}
	}
}

// TestFirstUpdateBuildsIDIndex: a server that only reads never indexes
// the id column; the first update does, once, and from then on a point
// update is an index probe.
func TestFirstUpdateBuildsIDIndex(t *testing.T) {
	db, ca := newPointsApp(t, 500, 4096, 2048)
	srv, err := New(db, ca, Options{Cache: CacheOptions{L1: L1CacheOptions{Bytes: 8 << 20}}, Precompute: fetch.Options{BuildSpatial: true}})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("points")
	if tbl.HasPointIndex("id") {
		t.Fatal("server.New indexed the id column: set-up pays for updates that may never come")
	}
	for i, want := range []bool{true, false} {
		_, inv, err := srv.execUpdate("UPDATE points SET val = 2 WHERE id = 3", nil)
		if err != nil || inv.indexBuilt != want || inv.rows != 1 {
			t.Fatalf("update %d: %+v, %v; want indexBuilt=%v", i, inv, err, want)
		}
	}
	res, err := db.Query("EXPLAIN SELECT * FROM points WHERE id = 3")
	if err != nil || !strings.Contains(res.Rows[0][0].S, "BTree Eq Scan") {
		t.Fatalf("plan after the first update: %v, %v", res, err)
	}
}

// TestInvalidationScopeObservable: what the update path did is readable
// from the http.update span, /stats and /metrics — including which
// statements fell back to dropping both tiers whole, and why.
func TestInvalidationScopeObservable(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newPointsServerOpts(t, 400, func(o *Options) {
		o.Cache.L2 = L2CacheOptions{Path: dir, MaxBytes: 64 << 20, FlushInterval: time.Hour}
	})
	if _, err := srv.db.Exec("CREATE TABLE notes (id INT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	dr := getBox(t, hs, 0, 0, 4096, 2048)
	warm := func() {
		t.Helper()
		getBox(t, hs, 0, 0, 4096, 2048)
		getTile(t, hs.URL, geom.TileID{})
		if err := srv.l2.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	attrs := func() map[string]string {
		t.Helper()
		sp := findSpan(srv.FlightRecorder().Snapshot().Recent[0], "http.update")
		if sp == nil {
			t.Fatal("no http.update span in the latest trace")
		}
		out := map[string]string{}
		for _, a := range sp.Attrs {
			out[a.Key] = a.Value
		}
		return out
	}
	id := dr.Rows[0][0].AsInt()
	for i, c := range []struct {
		sql   string
		want  map[string]string
		clear bool // both tiers end empty
	}{
		{fmt.Sprintf("UPDATE points SET val = 3 WHERE id = %d", id),
			map[string]string{"rows": "1", "rects": "1", "scope": "rows", "indexBuilt": "false"}, false},
		{fmt.Sprintf("UPDATE points SET x = x + 700 WHERE id = %d", id),
			map[string]string{"rows": "1", "rects": "2", "scope": "rows"}, false},
		{"UPDATE points SET val = 1 WHERE id = -5",
			map[string]string{"rows": "0", "rects": "0", "scope": "rows", "l1.removed": "0", "l2.removed": "0"}, false},
		{"UPDATE points SET val = val + 1",
			map[string]string{"scope": fmt.Sprintf("full:rows>%d", maxScopedRows)}, true},
		{"CREATE INDEX points_val ON points USING BTREE (id)",
			map[string]string{"scope": "full:ddl"}, true},
		{"INSERT INTO notes VALUES (1, 'not a layer table')",
			map[string]string{"scope": "full:table"}, true},
	} {
		warm()
		if code, msg := postUpdateArgs(t, hs.URL, c.sql); code != http.StatusOK {
			t.Fatalf("case %d %q: %d %s", i, c.sql, code, msg)
		}
		got := attrs()
		for k, v := range c.want {
			if got[k] != v {
				t.Errorf("case %d %q: span %s=%q, want %q (all: %v)", i, c.sql, k, got[k], v, got)
			}
		}
		if c.clear && (srv.bcache.Stats().Entries != 0 || srv.l2.Len() != 0) {
			t.Errorf("case %d %q: whole-tier path left %d L1 entries, %d L2 keys", i, c.sql, srv.bcache.Stats().Entries, srv.l2.Len())
		}
		if i == 0 && (got["l1.removed"] == "0" || got["l2.removed"] == "0") {
			t.Errorf("case 0: the full-canvas box holds the row but was not removed: %v", got)
		}
	}

	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	if snap.Cache.InvalidationsScoped != 3 || snap.Cache.InvalidationsFull != 3 {
		t.Errorf("/stats: %d scoped, %d full invalidations, want 3 and 3", snap.Cache.InvalidationsScoped, snap.Cache.InvalidationsFull)
	}
	if snap.Cache.L1.Removed == 0 || snap.Cache.L2 == nil || snap.Cache.L2.Tombstones == 0 {
		t.Errorf("/stats: l1.removed %d, l2 %+v", snap.Cache.L1.Removed, snap.Cache.L2)
	}
	exp := scrape(t, hs.URL)
	for _, m := range []struct {
		want float64
		name string
		kv   []string
	}{
		{3, "kyrix_invalidations_total", []string{"scope", "rows"}},
		{3, "kyrix_invalidations_total", []string{"scope", "full"}},
		{float64(snap.Cache.L1.Removed), "kyrix_cache_events_total", []string{"tier", "l1", "event", "removed"}},
		{float64(snap.Cache.L2.Tombstones), "kyrix_cache_events_total", []string{"tier", "l2", "event", "tombstone"}},
	} {
		if got := sampleValue(exp, m.name, m.kv...); got != m.want {
			t.Errorf("/metrics %s%v = %v, /stats says %v", m.name, m.kv, got, m.want)
		}
	}
}

// BenchmarkUpdateAck is one `UPDATE … WHERE id = ?` through the /update
// handler over a 200k-row layer with a warm L1: index probe, row image
// pair, generation bump and key sweep — with L2, also the tombstone
// append and its fsync.
func BenchmarkUpdateAck(b *testing.B) {
	for _, withL2 := range []bool{false, true} {
		name := "l1"
		if withL2 {
			name = "l1+l2"
		}
		b.Run(name, func(b *testing.B) {
			db, ca := newPointsApp(b, 200_000, 131072, 16384)
			opts := Options{
				Cache:      CacheOptions{L1: L1CacheOptions{Bytes: 256 << 20, Admission: "lfu"}},
				Obs:        ObsOptions{DisableTracing: true},
				Precompute: fetch.Options{BuildSpatial: true},
			}
			if withL2 {
				opts.Cache.L2 = L2CacheOptions{Path: b.TempDir(), MaxBytes: 256 << 20}
			}
			srv, err := New(db, ca, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			pl, _ := srv.Layer("main", 0)
			// 512 resident boxes of 1536², as a dbox-50% client leaves behind.
			for i := 0; i < 512; i++ {
				x, y := float64(i%32)*4000, float64(i/32)*900
				if _, err := srv.serveItem(context.Background(), pl.CanvasID, boxItem(pl, geom.Rect{MinX: x, MinY: y, MaxX: x + 1536, MaxY: y + 1536}), false); err != nil {
					b.Fatal(err)
				}
			}
			post := func(id int) {
				body := fmt.Sprintf(`{"sql":"UPDATE points SET val = ? WHERE id = ?","args":[{"k":%d,"f":%d.5},{"k":%d,"i":%d}]}`,
					storage.TFloat64, id, storage.TInt64, id)
				req := httptest.NewRequest(http.MethodPost, "/update", strings.NewReader(body))
				w := &discardResponse{h: http.Header{}}
				h.ServeHTTP(w, req)
			}
			post(0) // the first update builds the id index
			if withL2 {
				if err := srv.l2.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post((i*7919 + 1) % 200_000)
			}
			b.StopTimer()
			if got := srv.Stats.InvalidationsScoped.Load(); got != int64(b.N)+1 || srv.Stats.InvalidationsFull.Load() != 0 {
				b.Fatalf("%d scoped / %d full invalidations over %d updates", got, srv.Stats.InvalidationsFull.Load(), b.N+1)
			}
		})
	}
}
