package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// clusterNode is one in-process cluster member: a full Server on a
// real loopback listener. stop force-closes the node mid-test (the
// dead-peer scenarios).
type clusterNode struct {
	srv  *Server
	url  string
	stop func()
}

// newTestCluster builds n servers over identical datasets (same seed,
// separate embedded DBs — the stand-in for a shared backing store),
// all joined to one ring. Listeners come first so every node knows the
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
			},
			Precompute: fetch.Options{
				BuildSpatial: true,
				TileSizes:    []float64{512},
				MappingIndex: sqldb.IndexBTree,
			},
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		srv, err := New(db, ca, opts)
		if err != nil {
			t.Fatal(err)
		}
		hsrv := &http.Server{Handler: srv.Handler()}
		ln := lns[i]
		go func() { _ = hsrv.Serve(ln) }()
		stop := func() { _ = hsrv.Close(); _ = ln.Close() }
		t.Cleanup(stop)
		nodes[i] = &clusterNode{srv: srv, url: urls[i], stop: stop}
	}
	return nodes
}

// tileKeyFor reproduces serveTile's canonical cache key.
func tileKeyFor(codec Codec, design string, size float64, tid geom.TileID) string {
	return fmt.Sprintf("%s/%s/%s", codec, design, fetch.TileKeyOf("main/0", size, tid))
}

// ownerAndOther finds a tile whose key node 0 does NOT own, returning
// (owner, nonOwner, tileID) — guaranteed to exist with two nodes and a
// handful of candidate tiles.
func ownerAndOther(t *testing.T, nodes []*clusterNode) (*clusterNode, *clusterNode, geom.TileID) {
	t.Helper()
	for col := 0; col < 8; col++ {
		for row := 0; row < 4; row++ {
			tid := geom.TileID{Col: col, Row: row}
			key := tileKeyFor(CodecJSON, "spatial", 512, tid)
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

func postUpdate(t *testing.T, baseURL, sql string) {
	body, _ := json.Marshal(UpdateRequest{SQL: sql})
	resp, err := http.Post(baseURL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("update: %s: %s", resp.Status, b)
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
	key := tileKeyFor(CodecJSON, "spatial", 512, tid)

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
		// cache and bumps the epoch; the non-owner adopts mid-round on
		// its first peer exchange. The same key must again cost
		// exactly one database query cluster-wide.
		// (All 500 rows: past maxScopedRows, so whichever rows the tile
		// holds, the owner's whole cache goes.)
		postUpdate(t, owner.url, "UPDATE points SET val = 1 WHERE id >= 0")
	}
}

// TestClusterEpochInvalidation: an update at one node invalidates the
// other's cache on the very next peer exchange — the gossiped-epoch
// contract (stale nodes clear + refetch, bounded staleness of one
// exchange).
func TestClusterEpochInvalidation(t *testing.T) {
	nodes := newTestCluster(t, 2, 500, nil)
	owner, other, tid := ownerAndOther(t, nodes)
	key := tileKeyFor(CodecJSON, "spatial", 512, tid)

	// Warm the owner's cache: the exchanged tile plus a second witness
	// key that nothing will re-request — the proof the adoption
	// actually cleared the cache (the exchanged tile itself is
	// re-cached fresh by the very fill that gossips the epoch).
	getTile(t, owner.url, tid)
	var witnessKey string
	for col := 0; col < 16 && witnessKey == ""; col++ {
		for row := 0; row < 8 && witnessKey == ""; row++ {
			cand := geom.TileID{Col: col, Row: row}
			k := tileKeyFor(CodecJSON, "spatial", 512, cand)
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

	// Update through the NON-owner: its epoch bumps locally; the owner
	// is now stale and must learn via gossip.
	postUpdate(t, other.url, "UPDATE points SET val = 2 WHERE id = 1")
	if e := other.srv.cluster.Epoch(); e != 1 {
		t.Fatalf("updating node epoch = %d, want 1", e)
	}
	if e := owner.srv.cluster.Epoch(); e != 0 {
		t.Fatalf("owner epoch = %d before any exchange, want 0", e)
	}

	// The non-owner's next miss forwards to the owner carrying epoch 1
	// in the fill request; the owner must adopt it and clear.
	getTile(t, other.url, tid)
	deadline := time.Now().Add(5 * time.Second)
	for owner.srv.cluster.Epoch() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("owner never adopted epoch 1 (at %d)", owner.srv.cluster.Epoch())
		}
		time.Sleep(time.Millisecond)
	}
	if owner.srv.bcache.Contains(witnessKey) {
		t.Fatal("owner kept a stale cached payload across the epoch adoption")
	}
	if owner.srv.cluster.Stats.EpochAdoptions.Load() != 1 {
		t.Fatalf("owner adoptions = %d, want 1", owner.srv.cluster.Stats.EpochAdoptions.Load())
	}
	// And the owner's generation moved, so in-flight pre-update
	// queries cannot repopulate the cache.
	if gen := owner.srv.cacheGen.Load(); gen == 0 {
		t.Fatal("epoch adoption did not bump the cache generation")
	}
}

// TestClusterUpdateIdempotencyKey: on the replicated path, re-POSTing
// an /update carrying the same client id applies the statement once —
// the retry-after-ambiguous-503 contract for non-idempotent SQL.
func TestClusterUpdateIdempotencyKey(t *testing.T) {
	root := t.TempDir()
	nodes := newTestCluster(t, 2, 50, func(i int, o *Options) {
		o.Cluster.Replog = ReplogOptions{
			Dir:             filepath.Join(root, fmt.Sprintf("n%d", i)),
			ElectionTimeout: 50 * time.Millisecond,
		}
	})
	postKeyed := func(id, sql string) {
		t.Helper()
		body, _ := json.Marshal(UpdateRequest{ID: id, SQL: sql})
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Post(nodes[0].url+"/update", "application/json", bytes.NewReader(body))
			if err == nil {
				rb, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
				err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, rb)
			}
			// 503 until the log elects a leader; retry.
			if time.Now().After(deadline) {
				t.Fatalf("update never acked: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
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
	key := tileKeyFor(CodecJSON, "spatial", 512, tid)

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
			k := tileKeyFor(CodecJSON, "spatial", 512, tid2)
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
