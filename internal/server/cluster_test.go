package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kyrix/internal/cluster"
	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
	"kyrix/internal/workload"
)

// clusterNode is one in-process cluster member: a full Server on a
// real loopback listener. stop force-closes the node mid-test (the
// dead-peer scenarios).
type clusterNode struct {
	srv  *Server
	url  string
	stop func()
	// peer, when set, answers /peer in srv's place: a stand-in for a
	// node running another build.
	peer atomic.Pointer[http.HandlerFunc]
}

// newTestCluster builds n servers over identical datasets (same seed,
// separate embedded DBs — the stand-in for a shared backing store),
// all joined to one ring and one replicated update log (a fresh WAL
// directory per node). Listeners come first so every node knows the
// full peer list at construction.
func newTestCluster(t testing.TB, n, points int, mutate func(i int, o *Options)) []*clusterNode {
	t.Helper()
	const canvasW, canvasH = 4096.0, 2048.0
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	d := workload.Uniform(points, canvasW, canvasH, 11)
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		db := sqldb.NewDB()
		if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
			t.Fatal(err)
		}
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
		opts := Options{
			Cache: CacheOptions{L1: L1CacheOptions{Bytes: 8 << 20, Admission: "lfu"}},
			Cluster: ClusterOptions{
				Self:        urls[i],
				Peers:       urls,
				PeerTimeout: 5 * time.Second,
				Replog:      ReplogOptions{Dir: t.TempDir(), ElectionTimeout: 100 * time.Millisecond},
			},
			Precompute: fetch.Options{
				BuildSpatial: true,
				TileSizes:    []float64{512},
			},
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		srv, err := New(db, ca, opts)
		if err != nil {
			t.Fatal(err)
		}
		node := &clusterNode{srv: srv, url: urls[i]}
		h := srv.Handler()
		hsrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if f := node.peer.Load(); f != nil && r.URL.Path == cluster.PeerPath {
				(*f)(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})}
		ln := lns[i]
		go func() { _ = hsrv.Serve(ln) }()
		node.stop = func() { _ = hsrv.Close(); _ = ln.Close(); _ = srv.Close() }
		t.Cleanup(node.stop)
		nodes[i] = node
	}
	return nodes
}

// tileKeyFor reproduces serveItem's canonical tile cache key.
func tileKeyFor(design string, size float64, tid geom.TileID) string {
	return fmt.Sprintf("%s/%s/%s", keySpace, design, fetch.TileKeyOf("main/0", size, tid))
}

// tileItem and boxItem address a spatial tile or a dynamic box of pl as
// the item serveItem takes.
func tileItem(pl *fetch.PhysicalLayer, size float64, tid geom.TileID) BatchItem {
	return BatchItem{Kind: "tile", Layer: pl.LayerIdx, Size: size, Col: tid.Col, Row: tid.Row}
}

func boxItem(pl *fetch.PhysicalLayer, box geom.Rect) BatchItem {
	return BatchItem{Kind: "dbox", Layer: pl.LayerIdx, MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY}
}

// ownerAndOther finds a tile whose key node 0 does NOT own, returning
// (owner, nonOwner, tileID) — guaranteed to exist with two nodes and a
// handful of candidate tiles.
func ownerAndOther(t *testing.T, nodes []*clusterNode) (*clusterNode, *clusterNode, geom.TileID) {
	t.Helper()
	for col := 0; col < 8; col++ {
		for row := 0; row < 4; row++ {
			tid := geom.TileID{Col: col, Row: row}
			key := tileKeyFor("spatial", 512, tid)
			ownerURL := nodes[0].srv.cluster.Owner(key)
			var owner, other *clusterNode
			for _, n := range nodes {
				if n.url == ownerURL {
					owner = n
				} else {
					other = n
				}
			}
			if owner != nil && other != nil {
				return owner, other, tid
			}
		}
	}
	t.Fatal("no tile found with distinct owner/non-owner")
	return nil, nil, geom.TileID{}
}

// getTileErr fetches one tile; goroutine-safe (no t.Fatal off the test
// goroutine).
func getTileErr(baseURL string, tid geom.TileID) ([]byte, error) {
	resp, err := http.Get(fmt.Sprintf("%s/tile?canvas=main&layer=0&size=512&col=%d&row=%d", baseURL, tid.Col, tid.Row))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("tile: %s: %s", resp.Status, body)
	}
	return body, nil
}

func getTile(t testing.TB, baseURL string, tid geom.TileID) []byte {
	t.Helper()
	body, err := getTileErr(baseURL, tid)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// updateSeq mints idempotency keys, so postUpdate's retries apply once.
var updateSeq atomic.Int64

// postUpdate acks one /update through baseURL.
func postUpdate(t *testing.T, baseURL, sql string) {
	t.Helper()
	postUpdateID(t, baseURL, fmt.Sprintf("test-%d", updateSeq.Add(1)), sql)
}

// postUpdateID acks one /update carrying idempotency key id, retrying
// the 503 a node answers until the replicated log has a leader.
func postUpdateID(t *testing.T, baseURL, id, sql string) {
	t.Helper()
	body, _ := json.Marshal(UpdateRequest{ID: id, SQL: sql})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(baseURL+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("update: %s: %s", resp.Status, b)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// rowInTile finds a tile n owns and a row whose rectangle lies inside
// it with a margin, so an edit to the row touches that tile's window and
// no other.
func rowInTile(t *testing.T, n *clusterNode) (geom.TileID, int64) {
	t.Helper()
	pl, _ := n.srv.Layer("main", 0)
	res, err := n.srv.db.Query("SELECT * FROM points")
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < 8; col++ {
		for row := 0; row < 4; row++ {
			tid := geom.TileID{Col: col, Row: row}
			if !n.srv.cluster.Owns(tileKeyFor("spatial", 512, tid)) {
				continue
			}
			r := tid.TileRect(512)
			inner := geom.Rect{MinX: r.MinX + 1, MinY: r.MinY + 1, MaxX: r.MaxX - 1, MaxY: r.MaxY - 1}
			for _, img := range res.Rows {
				box, err := pl.RowBox(img)
				if err != nil {
					t.Fatal(err)
				}
				if inner.Contains(box) {
					return tid, img[0].AsInt()
				}
			}
		}
	}
	t.Fatal("no owned tile holds a row")
	return geom.TileID{}, 0
}

// valOf returns the val column of row id in a payload of codec.
func valOf(t *testing.T, raw []byte, codec Codec, id int64) float64 {
	t.Helper()
	dr, err := Decode(raw, codec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dr.Rows {
		for i, c := range dr.Cols {
			if r[0].AsInt() == id && c == "val" {
				return r[i].AsFloat()
			}
		}
	}
	t.Fatalf("row %d has no val in the payload", id)
	return 0
}

// waitConverged waits until every node has applied the same updates:
// equal cacheGen, the one data version.
func waitConverged(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		gens := make([]int64, len(nodes))
		same := true
		for i, n := range nodes {
			gens[i] = n.srv.cacheGen.Load()
			same = same && gens[i] == gens[0]
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never converged: cacheGen %v", gens)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterCrossNodeSingleflight is the acceptance property: one hot
// key hammered through BOTH nodes concurrently executes exactly one
// database query cluster-wide per generation. The non-owner's misses
// coalesce onto one peer fetch; the owner's flight dedupes that fetch
// with its own local misses; the query hook holds the single execution
// open until all callers are in flight. Run with -race this doubles as
// the cluster stress test.
func TestClusterCrossNodeSingleflight(t *testing.T) {
	nodes := newTestCluster(t, 2, 500, func(i int, o *Options) {
		// Replication would serve later generations from the
		// non-owner's cache; keep every request flowing to the owner
		// so the per-generation count is exact.
		o.Cluster.HotReplicate = -1
	})
	owner, other, tid := ownerAndOther(t, nodes)
	key := tileKeyFor("spatial", 512, tid)

	for gen := 0; gen < 2; gen++ {
		release := make(chan struct{})
		owner.srv.queryHook = func() { <-release }
		ownerBefore := owner.srv.Stats.DBQueries.Load()
		otherBefore := other.srv.Stats.DBQueries.Load()

		const n = 8
		var wg sync.WaitGroup
		bodies := make([][]byte, 2*n)
		errs := make([]error, 2*n)
		for i := 0; i < n; i++ {
			for j, node := range []*clusterNode{owner, other} {
				wg.Add(1)
				go func(slot int, url string) {
					defer wg.Done()
					bodies[slot], errs[slot] = getTileErr(url, tid)
				}(2*i+j, node.url)
			}
		}
		// The owner's flight key sees both its local callers and the
		// non-owner's forwarded fill; wait until the execution is held
		// open with at least one caller, then let the herd pile up
		// briefly and release.
		fkey := flightKey(owner.srv.cacheGen.Load(), key)
		deadline := time.Now().Add(10 * time.Second)
		for owner.srv.flight.Pending(fkey) < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("gen %d: no flight formed for %q", gen, fkey)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		close(release)
		wg.Wait()
		owner.srv.queryHook = nil

		for i, err := range errs {
			if err != nil {
				t.Fatalf("gen %d: caller %d: %v", gen, i, err)
			}
		}
		for i := 1; i < len(bodies); i++ {
			if !bytes.Equal(bodies[i], bodies[0]) {
				t.Fatalf("gen %d: caller %d saw a different payload", gen, i)
			}
		}
		if got := owner.srv.Stats.DBQueries.Load() - ownerBefore; got != 1 {
			t.Fatalf("gen %d: owner ran %d queries, want exactly 1", gen, got)
		}
		if got := other.srv.Stats.DBQueries.Load() - otherBefore; got != 0 {
			t.Fatalf("gen %d: non-owner ran %d queries, want 0", gen, got)
		}
		if fills := other.srv.cluster.Stats.PeerFills.Load(); fills == 0 {
			t.Fatalf("gen %d: non-owner recorded no peer fills", gen)
		}
		// Next generation: an update through the owner clears its
		// cache; the non-owner applies it from the log, possibly
		// mid-round. The same key must again cost exactly one database
		// query cluster-wide.
		// (All 500 rows: past maxScopedRows, so whichever rows the tile
		// holds, the owner's whole cache goes.)
		postUpdate(t, owner.url, "UPDATE points SET val = 1 WHERE id >= 0")
	}
}

// TestClusterUpdateInvalidatesEveryNode: an update acked through one
// node reaches the others only through the replicated log, and each
// applies it with the same scoped sweep. Once the owner has applied an
// update posted through the non-owner, its cached tile holding the row
// is gone, a cached tile outside the row's rectangle survives, and the
// non-owner's next read of the tile carries the new value.
func TestClusterUpdateInvalidatesEveryNode(t *testing.T) {
	nodes := newTestCluster(t, 2, 500, nil)
	owner, other := nodes[0], nodes[1]
	tid, id := rowInTile(t, owner)
	key := tileKeyFor("spatial", 512, tid)

	// Warm the owner's cache: the edited tile plus a witness the edit
	// does not touch.
	getTile(t, owner.url, tid)
	var witnessKey string
	for col := 0; col < 8 && witnessKey == ""; col++ {
		for row := 0; row < 4 && witnessKey == ""; row++ {
			cand := geom.TileID{Col: col, Row: row}
			k := tileKeyFor("spatial", 512, cand)
			if cand != tid && owner.srv.cluster.Owns(k) {
				getTile(t, owner.url, cand)
				witnessKey = k
			}
		}
	}
	if witnessKey == "" {
		t.Fatal("no second owner-owned tile available as a witness")
	}
	if !owner.srv.bcache.Contains(key) || !owner.srv.bcache.Contains(witnessKey) {
		t.Fatal("owner did not cache its own keys")
	}

	postUpdate(t, other.url, fmt.Sprintf("UPDATE points SET val = 2.5 WHERE id = %d", id))
	waitConverged(t, nodes)
	if owner.srv.bcache.Contains(key) {
		t.Fatal("owner kept the tile holding the edited row")
	}
	if !owner.srv.bcache.Contains(witnessKey) {
		t.Fatal("owner dropped a tile the edit does not touch: the log apply was not scoped")
	}
	if full := owner.srv.Stats.InvalidationsFull.Load(); full != 0 {
		t.Fatalf("owner cleared whole tiers %d times, want 0", full)
	}
	if got := valOf(t, getTile(t, other.url, tid), CodecJSON, id); got != 2.5 {
		t.Fatalf("non-owner served val %v after the update, want 2.5", got)
	}
}

// TestPeerFillNeverOlderThanRequester: a node that acked an update never
// serves (or persists) an owner's pre-update copy. The leader and the
// owner O are cut off from each other, so the leader commits with the
// other follower A alone and O stays behind; A's read of O's tile then
// gets a reply at an older data version, which it must refuse and
// answer locally — and after the partition heals, A's L1 and L2 still
// hold the new rows.
func TestPeerFillNeverOlderThanRequester(t *testing.T) {
	nodes := newTestCluster(t, 3, 500, func(i int, o *Options) {
		o.Cluster.HotReplicate = 1 // peer fills enter L1 as well as L2
		o.Cache.L2 = L2CacheOptions{Path: t.TempDir(), MaxBytes: 64 << 20, FlushInterval: 2 * time.Millisecond}
	})
	postUpdate(t, nodes[0].url, "UPDATE points SET val = 0 WHERE id = 0") // waits out the first election
	waitConverged(t, nodes)
	var leader *clusterNode
	var followers []*clusterNode
	for _, n := range nodes {
		if n.srv.replog.Snapshot().Role == "leader" {
			leader = n
		} else {
			followers = append(followers, n)
		}
	}
	if leader == nil || len(followers) != 2 {
		t.Fatal("no single leader after an acked update")
	}
	owner, a := followers[0], followers[1]
	tid, id := rowInTile(t, owner)
	key := tileKeyFor("spatial", 512, tid)
	getTile(t, a.url, tid) // A holds a peer-filled copy for the update to sweep

	leader.srv.cluster.Transport().FailDrop(owner.url, true)
	owner.srv.cluster.Transport().FailDrop(leader.url, true)
	const want = 4242.5
	postUpdate(t, a.url, fmt.Sprintf("UPDATE points SET val = %v WHERE id = %d", want, id))
	if owner.srv.cacheGen.Load() >= a.srv.cacheGen.Load() {
		t.Fatal("the partitioned owner applied the update: the partition did not hold")
	}
	if got := valOf(t, getTile(t, a.url, tid), CodecJSON, id); got != want {
		t.Fatalf("A acked val = %v, then served %v from the lagging owner", want, got)
	}
	// The refusal is told apart from a peer failure: its own counter in
	// /stats and /metrics, and behind=true on the peer.fetch span.
	behind := a.srv.Snapshot().Cluster.BehindFills
	if got := sampleValue(scrape(t, a.url), "kyrix_peer_behind_fills_total"); behind == 0 || got != float64(behind) {
		t.Fatalf("behindFills: /stats %d, /metrics %v; want equal and > 0", behind, got)
	}
	if errs := a.srv.cluster.Stats.PeerErrors.Load(); errs != 0 {
		t.Fatalf("A counted %d peer errors; the owner was reachable", errs)
	}
	marked := false
	for _, d := range a.srv.FlightRecorder().Snapshot().Recent {
		if sp := findSpan(d, "peer.fetch"); sp != nil {
			for _, at := range sp.Attrs {
				marked = marked || (at.Key == "behind" && at.Value == "true")
			}
		}
	}
	if !marked {
		t.Fatal("no peer.fetch span carries behind=true")
	}

	for _, n := range nodes {
		n.srv.cluster.Transport().FailReset()
	}
	waitConverged(t, nodes)
	p, ok := a.srv.bcache.Peek(key)
	if !ok {
		t.Fatal("A's L1 does not hold the tile")
	}
	if got := valOf(t, p.(*payload).raw, CodecBinary, id); got != want {
		t.Fatalf("A's L1 holds val %v, want %v", got, want)
	}
	if err := a.srv.l2.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, ok := a.srv.l2.Get(key)
	if !ok {
		t.Fatal("A's L2 does not hold the tile")
	}
	if got := valOf(t, raw, CodecBinary, id); got != want {
		t.Fatalf("A's L2 holds val %v, want %v", got, want)
	}
}

// TestClusterUpdateIdempotencyKey: on the replicated path, re-POSTing
// an /update carrying the same client id applies the statement once —
// the retry-after-ambiguous-503 contract for non-idempotent SQL.
func TestClusterUpdateIdempotencyKey(t *testing.T) {
	nodes := newTestCluster(t, 2, 50, nil)
	postKeyed := func(id, sql string) {
		t.Helper()
		postUpdateID(t, nodes[0].url, id, sql)
	}
	valAt := func(n *clusterNode, id int) float64 {
		t.Helper()
		res, err := n.srv.db.Query(fmt.Sprintf("SELECT val FROM points WHERE id = %d", id))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("query val: %v (%d rows)", err, len(res.Rows))
		}
		return res.Rows[0][0].F
	}
	v0 := valAt(nodes[0], 1)

	// The same non-idempotent statement twice under one key, then a
	// sentinel under its own key. Log order means the sentinel's
	// visibility proves the earlier commands have fully applied.
	postKeyed("req-1", "UPDATE points SET val = val + 1 WHERE id = 1")
	postKeyed("req-1", "UPDATE points SET val = val + 1 WHERE id = 1")
	postKeyed("req-2", "UPDATE points SET val = val + 1 WHERE id = 2")

	s0 := valAt(nodes[0], 2)
	deadline := time.Now().Add(10 * time.Second)
	for valAt(nodes[1], 2) != s0 {
		if time.Now().After(deadline) {
			t.Fatal("sentinel update never reached node 1")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, n := range nodes {
		if got := valAt(n, 1); got != v0+1 {
			t.Fatalf("node %d: val = %v, want %v (keyed retry must apply once)", i, got, v0+1)
		}
	}
}

// TestClusterHotKeyReplication: a non-owned key crossing the sketch-
// frequency threshold is admitted into the non-owner's local cache, so
// later requests are local hits and stop paying the peer hop.
func TestClusterHotKeyReplication(t *testing.T) {
	nodes := newTestCluster(t, 2, 500, func(i int, o *Options) {
		o.Cluster.HotReplicate = 3
	})
	owner, other, tid := ownerAndOther(t, nodes)
	key := tileKeyFor("spatial", 512, tid)

	// Each miss records one sketch sighting; the fill whose recorded
	// frequency reaches the threshold replicates.
	var fillsAtReplication int64
	for i := 0; i < 6 && !other.srv.bcache.Contains(key); i++ {
		getTile(t, other.url, tid)
		fillsAtReplication = other.srv.cluster.Stats.PeerFills.Load()
	}
	if !other.srv.bcache.Contains(key) {
		t.Fatal("hot key never replicated into the non-owner's cache")
	}
	if other.srv.cluster.Stats.HotReplicas.Load() == 0 {
		t.Fatal("HotReplicas counter did not move")
	}
	// From here on the non-owner serves locally: no new peer fills.
	hitsBefore := other.srv.Stats.CacheHits.Load()
	getTile(t, other.url, tid)
	if got := other.srv.cluster.Stats.PeerFills.Load(); got != fillsAtReplication {
		t.Fatalf("replicated key still paid a peer fill (%d -> %d)", fillsAtReplication, got)
	}
	if other.srv.Stats.CacheHits.Load() == hitsBefore {
		t.Fatal("replicated key did not serve as a local cache hit")
	}
	_ = owner
}

// TestClusterLocalFallback: a dead owner degrades the non-owner to a
// local database query — same payload, no error, fallback counted.
func TestClusterLocalFallback(t *testing.T) {
	nodes := newTestCluster(t, 2, 500, func(i int, o *Options) {
		o.Cluster.PeerTimeout = 300 * time.Millisecond
	})
	owner, other, tid := ownerAndOther(t, nodes)

	// Sanity: the peer path works while the owner is alive.
	if got := getTile(t, other.url, tid); len(got) == 0 {
		t.Fatal("peer-filled payload empty")
	}

	// Kill the owner, then ask the non-owner for a fresh (uncached,
	// non-replicated) key the dead node owns.
	ownerURL := owner.url
	owner.stop()

	var fresh geom.TileID
	found := false
	for col := 0; col < 16 && !found; col++ {
		for row := 0; row < 8 && !found; row++ {
			tid2 := geom.TileID{Col: col, Row: row}
			k := tileKeyFor("spatial", 512, tid2)
			if other.srv.cluster.Owner(k) == ownerURL && !other.srv.bcache.Contains(k) {
				fresh, found = tid2, true
			}
		}
	}
	if !found {
		t.Fatal("no fresh owner-owned tile available")
	}
	got := getTile(t, other.url, fresh)
	if len(got) == 0 {
		t.Fatal("fallback returned an empty payload")
	}
	if other.srv.cluster.Stats.LocalFallbacks.Load() == 0 {
		t.Fatal("LocalFallbacks did not count the degraded fill")
	}
	if other.srv.Stats.DBQueries.Load() == 0 {
		t.Fatal("fallback did not run a local query")
	}
}

// unownedBox finds a dynamic box whose binary payload nodes[0] does not
// own, returning its owner.
func unownedBox(t *testing.T, nodes []*clusterNode) (*clusterNode, geom.Rect) {
	t.Helper()
	pl, _ := nodes[0].srv.Layer("main", 0)
	for i := 0; i < 64; i++ {
		box := geom.Rect{MinX: float64(i) * 50, MinY: 0, MaxX: float64(i)*50 + 1500, MaxY: 1500}
		owner := nodes[0].srv.cluster.Owner(boxCacheKey(pl, box))
		for _, n := range nodes[1:] {
			if n.url == owner {
				return n, box
			}
		}
	}
	t.Fatal("no box owned by another node")
	return nil, geom.Rect{}
}

// TestPeerFillNamesLayout: a binary fill names the columnar layout, so
// an owner still on the row-major build (simulated: it serves row-major
// bytes for "binary" and rejects any other codec, as that build did)
// can only refuse it. The requester then queries locally and serves,
// caches and persists the right rows — never the owner's row-major
// bytes, which for a fixed-width schema parse as a columnar payload of
// the same length.
func TestPeerFillNamesLayout(t *testing.T) {
	nodes := newTestCluster(t, 2, 2000, nil)
	req := nodes[0]
	owner, box := unownedBox(t, nodes)
	pl, _ := req.srv.Layer("main", 0)
	ref, err := owner.srv.serveItem(context.Background(), pl.CanvasID, boxItem(pl, box), true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(ref.raw, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	var asked sync.Map
	oldBuild := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var fr cluster.FillRequest
		if err := json.NewDecoder(r.Body).Decode(&fr); err != nil {
			t.Error(err)
			return
		}
		asked.Store(fr.Codec, true)
		v := owner.srv.cacheGen.Load()
		if fr.Codec == "binary" {
			_ = cluster.WritePeerResponse(w, &v, cluster.FrameKindOf(fr.Kind), encodeRowMajor(t, want), nil, false)
			return
		}
		_ = cluster.WritePeerResponse(w, &v, cluster.FrameKindOf(fr.Kind), nil, fmt.Errorf("server: unknown codec %q", fr.Codec), false)
	})
	owner.peer.Store(&oldBuild)

	p, err := req.srv.serveItem(context.Background(), pl.CanvasID, boxItem(pl, box), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := asked.Load(keySpace); !ok {
		t.Fatal("the fill request did not name the columnar layout")
	}
	if !bytes.Equal(p.raw, ref.raw) {
		got, _ := Decode(p.raw, CodecBinary)
		t.Fatalf("served %d bytes (%d rows), want the owner's local %d bytes (%d rows)", len(p.raw), len(got.Rows), len(ref.raw), len(want.Rows))
	}
	if req.srv.cluster.Stats.LocalFallbacks.Load() == 0 || req.srv.Stats.DBQueries.Load() != 1 {
		t.Fatalf("fallbacks %d, db queries %d: the refused fill must be queried locally once",
			req.srv.cluster.Stats.LocalFallbacks.Load(), req.srv.Stats.DBQueries.Load())
	}
}

// TestPeerRefusesUnknownLayout: an owner answers a fill for a layout it
// does not cache — "binary" from a row-major requester, "json" (or the
// empty name, which meant JSON) from a build that cached JSON copies,
// "bincol" from a build whose byte planes were not ordered by class —
// with a bad-request frame, and a keySpace fill with the columnar
// payload.
func TestPeerRefusesUnknownLayout(t *testing.T) {
	nodes := newTestCluster(t, 2, 500, nil)
	owner, box := unownedBox(t, nodes)
	pl, _ := owner.srv.Layer("main", 0)
	ref, err := owner.srv.serveItem(context.Background(), pl.CanvasID, boxItem(pl, box), true)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(codec string) wire.Frame {
		body, _ := json.Marshal(cluster.FillRequest{
			Canvas: "main", Kind: "dbox", Codec: codec,
			MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
		})
		resp, err := http.Post(owner.url+cluster.PeerPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		v, _, err := wire.ReadHeader(br)
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.ReadFrame(br, v)
		if err != nil {
			t.Fatal(err)
		}
		if f.Codec.Compressed() {
			if f.Payload, err = wire.Decompress(f.Payload, 0); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	for _, layout := range []string{"binary", "json", "", "bincol"} {
		if f := fill(layout); f.Status != wire.FrameBadRequest {
			t.Fatalf("a %q fill got status %d (%.60q), want bad request", layout, f.Status, f.Payload)
		}
	}
	if f := fill(keySpace); f.Status != wire.FrameOK || !bytes.Equal(f.Payload, ref.raw) {
		t.Fatalf("a columnar fill got status %d and %d bytes, want OK and the %d-byte payload", f.Status, len(f.Payload), len(ref.raw))
	}
}
