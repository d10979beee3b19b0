package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/storage"
	"kyrix/internal/store"
)

// l2Options is a server config with a small L1 and the persistent tile
// store enabled at dir.
func l2Options(dir string) Options {
	return Options{
		Cache: CacheOptions{
			L1: L1CacheOptions{Bytes: 8 << 20},
			L2: L2CacheOptions{
				Path:          dir,
				MaxBytes:      64 << 20,
				FlushInterval: 2 * time.Millisecond,
			},
		},
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    []float64{512},
		},
	}
}

// TestL2WarmRestart is the tier's reason to exist: a server that dies
// and comes back over the same L2 directory serves its working set
// from disk — zero database queries — with byte-identical payloads.
func TestL2WarmRestart(t *testing.T) {
	dir := t.TempDir()
	db, ca := newPointsApp(t, 500, 4096, 2048)

	srv1, err := New(db, ca, l2Options(dir))
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := srv1.Layer("main", 0)
	tiles := []geom.TileID{{Col: 0, Row: 0}, {Col: 1, Row: 0}, {Col: 2, Row: 1}}
	want := make(map[geom.TileID][]byte)
	for _, tid := range tiles {
		payload, err := srv1.serveItem(context.Background(), pl.CanvasID, tileItem(pl, 512, tid), false)
		if err != nil {
			t.Fatal(err)
		}
		want[tid] = payload.raw
	}
	if got := srv1.Stats.DBQueries.Load(); got != int64(len(tiles)) {
		t.Fatalf("cold serve ran %d db queries, want %d", got, len(tiles))
	}
	// Close drains the write-behind queue to disk.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same dataset (workload seeds are
	// deterministic) and the same L2 directory.
	db2, ca2 := newPointsApp(t, 500, 4096, 2048)
	srv2, err := New(db2, ca2, l2Options(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	pl2, _ := srv2.Layer("main", 0)
	for _, tid := range tiles {
		payload, err := srv2.serveItem(context.Background(), pl2.CanvasID, tileItem(pl2, 512, tid), false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload.raw, want[tid]) {
			t.Fatalf("tile %v: restarted payload differs from original", tid)
		}
	}
	if got := srv2.Stats.DBQueries.Load(); got != 0 {
		t.Fatalf("warm restart ran %d db queries, want 0 (L2 should answer)", got)
	}
	snap := srv2.Snapshot()
	if snap.Cache.L2 == nil || snap.Cache.L2.Hits != int64(len(tiles)) {
		t.Fatalf("L2 stats after warm serve: %+v", snap.Cache.L2)
	}
	// And the L2 hits were promoted into L1: a re-serve touches
	// neither disk nor database.
	l2HitsBefore := srv2.l2.Stats.Hits.Load()
	for _, tid := range tiles {
		if _, err := srv2.serveItem(context.Background(), pl2.CanvasID, tileItem(pl2, 512, tid), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv2.l2.Stats.Hits.Load(); got != l2HitsBefore {
		t.Fatalf("re-serve read L2 again (%d extra hits), L1 promotion failed", got-l2HitsBefore)
	}
}

// TestL2UpdateInvalidates: an /update must make every persisted payload
// holding a row it touched invisible — including across a restart — so
// the tier can never serve pre-update rows. 200 deleted rows are within
// maxScopedRows, so this is the tombstone path, not a generation bump.
func TestL2UpdateInvalidates(t *testing.T) {
	dir := t.TempDir()
	db, ca := newPointsApp(t, 200, 4096, 2048)

	srv, err := New(db, ca, l2Options(dir))
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := srv.Layer("main", 0)
	tid := geom.TileID{Col: 0, Row: 0}
	if _, err := srv.serveItem(context.Background(), pl.CanvasID, tileItem(pl, 512, tid), false); err != nil {
		t.Fatal(err)
	}
	if err := srv.l2.Flush(); err != nil {
		t.Fatal(err)
	}
	genBefore := srv.l2.Generation()
	if _, _, err := srv.execUpdate("DELETE FROM points WHERE id >= 0", nil); err != nil {
		t.Fatal(err)
	}
	if got := srv.l2.Generation(); got != genBefore {
		t.Fatalf("scoped update bumped the L2 generation %d -> %d", genBefore, got)
	}
	if got := srv.l2.Stats.Tombstones.Load(); got != 1 {
		t.Fatalf("tombstones = %d, want 1 (the one resident tile)", got)
	}
	dbqBefore := srv.Stats.DBQueries.Load()
	post, err := srv.serveItem(context.Background(), pl.CanvasID, tileItem(pl, 512, tid), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats.DBQueries.Load(); got != dbqBefore+1 {
		t.Fatalf("post-update serve must re-query the database (queries %d -> %d)", dbqBefore, got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The invalidation is durable: a restarted server over the same
	// directory still refuses the pre-update record. The fresh DB gets
	// the same DELETE so its rows match the post-update state.
	db2, ca2 := newPointsApp(t, 200, 4096, 2048)
	if _, err := db2.Exec("DELETE FROM points WHERE id >= 0"); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(db2, ca2, l2Options(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	pl2, _ := srv2.Layer("main", 0)
	dbqBefore = srv2.Stats.DBQueries.Load()
	payload, err := srv2.serveItem(context.Background(), pl2.CanvasID, tileItem(pl2, 512, tid), false)
	if err != nil {
		t.Fatal(err)
	}
	// The post-update fill was persisted under the new generation, so
	// it may legitimately be served from L2 — but it must be the
	// post-update payload, never the pre-update one.
	if !bytes.Equal(payload.raw, post.raw) {
		t.Fatal("restarted server served a pre-update payload from L2")
	}
	_ = dbqBefore
}

// TestL2StaleFillDropped: a query that raced an update must not keep
// its pre-update payload in either tier. The queryHook holds the fill
// open while an update edits a row of its window, then one elsewhere:
// the generation and the L2 fence are global, so either keeps it out.
func TestL2StaleFillDropped(t *testing.T) {
	dir := t.TempDir()
	db, ca := newPointsApp(t, 200, 4096, 2048)
	opts := l2Options(dir)
	srv, err := New(db, ca, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pl, _ := srv.Layer("main", 0)
	tid := geom.TileID{Col: 0, Row: 0}

	res, err := db.Query("SELECT id FROM points WHERE x < 500 AND y < 500")
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("no row inside tile 0/0: %v", err)
	}
	inside := res.Rows[0][0]
	res, err = db.Query("SELECT id FROM points WHERE x > 2000")
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("no row far from tile 0/0: %v", err)
	}
	key := tileKeyFor("spatial", 512, tid)
	for i, id := range []storage.Value{inside, res.Rows[0][0]} {
		fired := false
		srv.queryHook = func() {
			if fired {
				return
			}
			fired = true
			if _, _, err := srv.execUpdate("UPDATE points SET val = val + 1 WHERE id = ?", []storage.Value{id}); err != nil {
				t.Error(err)
			}
		}
		if _, err := srv.serveItem(context.Background(), pl.CanvasID, tileItem(pl, 512, tid), false); err != nil {
			t.Fatal(err)
		}
		srv.queryHook = nil
		if err := srv.l2.Flush(); err != nil {
			t.Fatal(err)
		}
		// The racing fill ran under the pre-update generation and was
		// enqueued with the pre-update fence: stored nowhere.
		if srv.bcache.Contains(key) {
			t.Fatalf("update %d: the held fill was stored in L1", i)
		}
		if got := srv.l2.Len(); got != 0 {
			t.Fatalf("update %d: stale fill persisted: %d L2 keys", i, got)
		}
		if got := srv.l2.Stats.DroppedStale.Load(); got != int64(i+1) {
			t.Fatalf("update %d: %d fence drops, want %d", i, got, i+1)
		}
	}
}

// TestL2WriteErrorsExported: the store's count of fills that never
// reached disk is served under cache.l2 in /stats and as
// kyrix_l2_write_errors_total in /metrics, apart from the fence drops.
func TestL2WriteErrorsExported(t *testing.T) {
	db, ca := newPointsApp(t, 200, 4096, 2048)
	srv, err := New(db, ca, l2Options(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	srv.l2.Stats.WriteErrors.Add(2)

	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	if snap.Cache.L2 == nil || snap.Cache.L2.WriteErrors != 2 || snap.Cache.L2.DroppedStale != 0 {
		t.Fatalf("/stats cache.l2 = %+v, want writeErrors 2, droppedStale 0", snap.Cache.L2)
	}
	if got := sampleValue(scrape(t, hs.URL), "kyrix_l2_write_errors_total"); got != 2 {
		t.Fatalf("kyrix_l2_write_errors_total = %v, want 2", got)
	}
}

// TestL2ClusterPeerFillTombstoned: in a cluster, a non-owner's peer
// fill lands in its local L2 (so the payload survives that node's
// restart without a network hop), and an update posted at the owner
// tombstones it there when the non-owner applies the update from the
// log — scoped, with the store's generation untouched.
func TestL2ClusterPeerFillTombstoned(t *testing.T) {
	nodes := newTestCluster(t, 2, 300, func(i int, o *Options) {
		o.Cluster.HotReplicate = -1 // keep fills out of L1 so L2 answers
		o.Cache.L2 = L2CacheOptions{
			Path:          t.TempDir(),
			MaxBytes:      64 << 20,
			FlushInterval: 2 * time.Millisecond,
		}
	})
	owner, other := nodes[0], nodes[1]
	tid, id := rowInTile(t, owner)
	key := tileKeyFor("spatial", 512, tid)

	// Non-owner miss: peer fill from the owner, persisted locally.
	want := getTile(t, other.url, tid)
	if err := other.srv.l2.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := other.srv.l2.Get(key)
	if !ok {
		t.Fatal("peer fill did not land in the non-owner's L2")
	}
	if doc, err := jsonPayload(got); err != nil || !bytes.Equal(doc, want) {
		t.Fatalf("L2 holds a payload whose JSON form differs from the served tile (%v)", err)
	}

	// Re-request: with hot-replication off the payload is not in L1, so
	// the local persistent tier must answer before any peer exchange.
	fetchesBefore := other.srv.cluster.Stats.PeerFills.Load()
	l2HitsBefore := other.srv.l2.Stats.Hits.Load()
	if again := getTile(t, other.url, tid); !bytes.Equal(again, want) {
		t.Fatal("re-served payload differs")
	}
	if got := other.srv.cluster.Stats.PeerFills.Load(); got != fetchesBefore {
		t.Fatalf("re-request went to the peer (%d new fills), L2 should have answered", got-fetchesBefore)
	}
	if other.srv.l2.Stats.Hits.Load() == l2HitsBefore {
		t.Fatal("re-request did not read the persistent tier")
	}

	gen := other.srv.l2.Generation()
	postUpdate(t, owner.url, fmt.Sprintf("UPDATE points SET val = 7.5 WHERE id = %d", id))
	waitConverged(t, nodes)
	if _, ok := other.srv.l2.Get(key); ok {
		t.Fatal("pre-update peer fill still visible in the non-owner's L2")
	}
	if other.srv.l2.Stats.Tombstones.Load() == 0 {
		t.Fatal("the non-owner's L2 recorded no tombstone")
	}
	if other.srv.l2.Generation() != gen {
		t.Fatal("a one-row update bumped the non-owner's whole L2 generation")
	}
	if got := valOf(t, getTile(t, other.url, tid), CodecJSON, id); got != 7.5 {
		t.Fatalf("non-owner served val %v after the update, want 7.5", got)
	}
}

// TestCacheOptionsAliasCompat: the Cache.L1 budget reaches the serving
// cache.
func TestCacheOptionsAliasCompat(t *testing.T) {
	db, ca := newPointsApp(t, 100, 4096, 2048)
	srv, err := New(db, ca, Options{
		Cache: CacheOptions{L1: L1CacheOptions{Bytes: 4 << 20}},
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    []float64{512},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pl, _ := srv.Layer("main", 0)
	if _, err := srv.serveItem(context.Background(), pl.CanvasID, tileItem(pl, 512, geom.TileID{}), false); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.serveItem(context.Background(), pl.CanvasID, tileItem(pl, 512, geom.TileID{}), false); err != nil {
		t.Fatal(err)
	}
	if srv.Stats.CacheHits.Load() == 0 {
		t.Fatal("Cache.L1.Bytes did not enable the cache")
	}
}

// encodeRowMajor writes dr in the binary layout that preceded the
// columnar one: the same header, then each row as one storage tuple,
// rows abutting. An L2 directory written before the change holds these
// bytes.
func encodeRowMajor(t testing.TB, dr *DataResponse) []byte {
	t.Helper()
	out := binary.AppendUvarint(nil, uint64(len(dr.Cols)))
	for i, c := range dr.Cols {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
		out = append(out, byte(dr.Types[i]))
	}
	out = binary.AppendUvarint(out, uint64(len(dr.Rows)))
	for _, row := range dr.Rows {
		var err error
		if out, err = storage.EncodeRow(out, dr.Schema(), row); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestL2RowMajorRecordMisses: an L2 directory written by a build with
// the row-major binary layout, one that cached a JSON copy of each
// payload, or one whose columnar payloads kept each column's byte planes
// together, must never serve those bytes to this build's decoder. The
// old records — checksummed, under the keys those builds used — are
// dropped when the store opens; the box is queried, served with the
// right rows and refilled under the current key space, and that record
// survives the next open.
func TestL2RowMajorRecordMisses(t *testing.T) {
	dir := t.TempDir()
	box := geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 800}

	db, ca := newPointsApp(t, 2000, 4096, 2048)
	ref, err := New(db, ca, l2Options(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := ref.Layer("main", 0)
	p, err := ref.serveItem(context.Background(), pl.CanvasID, boxItem(pl, box), false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(p.raw, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	old, err := store.Open(store.Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	oldKey := "binary/" + fetch.BoxKeyOf(layerKey(pl.CanvasID, pl.LayerIdx), box)
	if !old.Put(oldKey, encodeRowMajor(t, want)) {
		t.Fatal("write-behind queue refused the record")
	}
	// Builds that cached a JSON copy beside the binary one kept it under
	// "json/".
	jsonKey := "json/" + fetch.BoxKeyOf(layerKey(pl.CanvasID, pl.LayerIdx), box)
	jsonDoc, err := rowWriterDocument(want.Cols, want.Types, want.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if !old.Put(jsonKey, jsonDoc) {
		t.Fatal("write-behind queue refused the JSON record")
	}
	// Builds whose columnar payloads left the byte planes in column
	// order kept them under "bincol/".
	colKey := "bincol/" + fetch.BoxKeyOf(layerKey(pl.CanvasID, pl.LayerIdx), box)
	if !old.Put(colKey, encodeColumnMajor(t, want)) {
		t.Fatal("write-behind queue refused the column-major record")
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same dataset and the old directory.
	db2, ca2 := newPointsApp(t, 2000, 4096, 2048)
	srv, err := New(db2, ca2, l2Options(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.l2.Get(oldKey); ok {
		t.Fatal("the row-major record survived the open")
	}
	if _, ok := srv.l2.Get(jsonKey); ok {
		t.Fatal("the JSON record survived the open")
	}
	if _, ok := srv.l2.Get(colKey); ok {
		t.Fatal("the column-major record survived the open")
	}
	if n := srv.l2.Stats.Tombstones.Load(); n != 3 {
		t.Fatalf("open wrote %d tombstones, want 3: the row-major, the JSON and the column-major record", n)
	}
	p, err = srv.serveItem(context.Background(), pl.CanvasID, boxItem(pl, box), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(p.raw, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) || len(want.Rows) == 0 {
		t.Fatalf("served %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !slices.Equal(got.Rows[i], want.Rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
	if q := srv.Stats.DBQueries.Load(); q != 1 {
		t.Fatalf("served with %d db queries, want 1: the old record must miss and refill", q)
	}
	newKey := boxCacheKey(pl, box)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if raw, ok := srv.l2.Get(newKey); ok {
			if !bytes.Equal(raw, p.raw) {
				t.Fatal("the refilled record differs from the served payload")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the miss was never refilled into L2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The columnar record is not in a retired key space: the next
	// process serves the box from it without a query.
	db3, ca3 := newPointsApp(t, 2000, 4096, 2048)
	srv3, err := New(db3, ca3, l2Options(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	p3, err := srv3.serveItem(context.Background(), pl.CanvasID, boxItem(pl, box), false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p3.raw, p.raw) || srv3.Stats.DBQueries.Load() != 0 {
		t.Fatalf("reopened store served %d bytes with %d queries, want the %d-byte record and none",
			len(p3.raw), srv3.Stats.DBQueries.Load(), len(p.raw))
	}
}
