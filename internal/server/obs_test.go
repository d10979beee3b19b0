package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/wire"
)

// newPointsServerOpts is newPointsServer with caller-controlled options
// (the obs tests toggle tracing and the flight recorder).
func newPointsServerOpts(t testing.TB, n int, mutate func(o *Options)) (*Server, *httptest.Server) {
	t.Helper()
	db, ca := newPointsApp(t, n, 4096, 2048)
	opts := Options{
		Cache: CacheOptions{L1: L1CacheOptions{Bytes: 8 << 20}},
		Precompute: fetch.Options{
			BuildSpatial: true,
			TileSizes:    []float64{512},
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := New(db, ca, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

func scrape(t testing.TB, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s: %s", resp.Status, body)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parse exposition: %v\n%s", err, body)
	}
	return exp
}

// sampleValue finds the first sample matching name and the given
// label=value filter pairs; -1 when absent.
func sampleValue(exp *obs.Exposition, name string, kv ...string) float64 {
	for _, s := range exp.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.Value
		}
	}
	return -1
}

// TestMetricsEndpoint: after real traffic, /metrics carries the stage
// histograms and every counter family, and the values agree with /stats
// (both render the same atomics).
func TestMetricsEndpoint(t *testing.T) {
	srv, hs := newPointsServerOpts(t, 500, nil)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=0&row=0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	exp := scrape(t, hs.URL)
	for _, want := range []string{
		"kyrix_stage_duration_seconds", "kyrix_requests_total",
		"kyrix_cache_events_total", "kyrix_db_queries_total",
		"kyrix_rows_served_total", "kyrix_bytes_total",
		"kyrix_uptime_seconds", "kyrix_build_info",
	} {
		if !exp.HasFamily(want) {
			t.Errorf("family %s missing from /metrics", want)
		}
	}

	// Stage histogram: the item stage saw all three requests, db.query
	// exactly one (two were cache hits).
	if got := sampleValue(exp, "kyrix_stage_duration_seconds_count", "stage", "item"); got != 3 {
		t.Errorf("item stage count = %v, want 3", got)
	}
	if got := sampleValue(exp, "kyrix_stage_duration_seconds_count", "stage", "db.query"); got != 1 {
		t.Errorf("db.query stage count = %v, want 1", got)
	}

	// Single-source check: /metrics and /stats must agree.
	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	reqTile := sampleValue(exp, "kyrix_requests_total", "kind", "tile")
	dbq := sampleValue(exp, "kyrix_db_queries_total")
	// /stats is re-fetched after the scrape, so >= covers the window.
	if int64(reqTile) > snap.Serving.TileRequests || int64(dbq) != snap.Serving.DBQueries {
		t.Errorf("metrics/stats disagree: tile %v vs %d, dbq %v vs %d",
			reqTile, snap.Serving.TileRequests, dbq, snap.Serving.DBQueries)
	}
	if snap.UptimeSeconds <= 0 {
		t.Errorf("uptimeSeconds = %v, want > 0", snap.UptimeSeconds)
	}
	if snap.Build.GoVersion == "" || snap.Build.Version == "" {
		t.Errorf("build info incomplete: %+v", snap.Build)
	}
	_ = srv
}

// TestWireMemoObservability: the trace and the counters say whether a
// response was shipped from memoized forms. The second response of one
// payload shows a compress span with cached=true, the second pan of one
// (base, new) pair a delta.plan span with cached=true; the compress
// stage histogram counts only the real deflates — one per payload, one
// per pair — and /stats and /metrics report the same memo events and
// residency.
func TestWireMemoObservability(t *testing.T) {
	srv, hs := newPointsServer(t, 3000, 4096, 2048)
	box := BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 1500, MaxY: 1200}
	spanAttr := func(name, key string) string {
		t.Helper()
		recent := srv.FlightRecorder().Snapshot().Recent
		sp := findSpan(recent[0], name) // newest first
		if sp == nil {
			t.Fatalf("no %s span in the latest trace", name)
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		t.Fatalf("%s span has no %q attr: %+v", name, key, sp.Attrs)
		return ""
	}
	for i, want := range []string{"false", "true"} {
		if f, err := postOneV3(hs.URL, CodecJSON, box); err != nil || f.Codec != FrameFlate {
			t.Fatalf("response %d: codec %d, %v", i, f.Codec, err)
		}
		if got := spanAttr("compress", "cached"); got != want {
			t.Fatalf("response %d: compress span cached=%s, want %s", i, got, want)
		}
	}
	_, id := fetchBoxPayload(t, hs.URL, box, CodecJSON)
	pan := BatchItem{Kind: "dbox", Layer: 0, MinX: 200, MinY: 0, MaxX: 1700, MaxY: 1200,
		Base: &BaseRef{MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY, ID: strconv.FormatUint(id, 16)}}
	for i, want := range []string{"false", "true"} {
		if f, err := postOneV3(hs.URL, CodecJSON, pan); err != nil || f.Codec != FrameDeltaFlate {
			t.Fatalf("pan %d: codec %d, %v", i, f.Codec, err)
		}
		if got := spanAttr("delta.plan", "cached"); got != want {
			t.Fatalf("pan %d: delta.plan span cached=%s, want %s", i, got, want)
		}
	}

	exp := scrape(t, hs.URL)
	// One full payload deflated once, one (base, new) pair deflated
	// once. The memo built four forms — the compressed full frame, the
	// pair's frame and the two row indexes it diffed — and served the
	// second and third full responses and the second pan from memory.
	// The JSON ids the planner checks and names ride on the cached
	// payloads, not in the memo.
	if got := sampleValue(exp, "kyrix_stage_duration_seconds_count", "stage", "compress"); got != 2 {
		t.Errorf("compress stage count = %v, want 2", got)
	}
	var snap StatsSnapshot
	getJSON(t, hs.URL+"/stats", &snap)
	sv := snap.Serving
	if sv.WireMemoMisses != 4 || sv.WireMemoHits != 3 {
		t.Errorf("wire memo: %d hits %d misses, want 3 and 4", sv.WireMemoHits, sv.WireMemoMisses)
	}
	if sv.WireMemoEntries != 4 || sv.WireMemoBytes <= 4*memoEntryOverhead || sv.WireMemoEvictions != 0 {
		t.Errorf("wire memo residency: %d entries, %d bytes, %d evictions; want 4 entries over %d bytes, none evicted",
			sv.WireMemoEntries, sv.WireMemoBytes, sv.WireMemoEvictions, 4*memoEntryOverhead)
	}
	if hit, miss := sampleValue(exp, "kyrix_wire_memo_events_total", "event", "hit"),
		sampleValue(exp, "kyrix_wire_memo_events_total", "event", "miss"); int64(hit) != sv.WireMemoHits || int64(miss) != sv.WireMemoMisses {
		t.Errorf("/metrics wire memo %v/%v disagrees with /stats %d/%d", hit, miss, sv.WireMemoHits, sv.WireMemoMisses)
	}
	if b, ev := sampleValue(exp, "kyrix_wire_memo_bytes"), sampleValue(exp, "kyrix_wire_memo_evictions_total"); int64(b) != sv.WireMemoBytes || int64(ev) != sv.WireMemoEvictions {
		t.Errorf("/metrics wire memo %v bytes, %v evictions disagrees with /stats %d, %d", b, ev, sv.WireMemoBytes, sv.WireMemoEvictions)
	}
}

// TestObsDisabled: with tracing off the span machinery is fully elided
// (empty flight recorder) but the metrics histograms keep recording.
func TestObsDisabled(t *testing.T) {
	srv, hs := newPointsServerOpts(t, 200, func(o *Options) {
		o.Obs.DisableTracing = true
	})
	resp, err := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=0&row=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if rec := srv.FlightRecorder(); rec != nil {
		t.Fatal("flight recorder present with tracing disabled")
	}
	var snap obs.Snapshot
	getJSON(t, hs.URL+"/debug/requests", &snap)
	if len(snap.Recent) != 0 || len(snap.Slowest) != 0 {
		t.Fatalf("debug snapshot not empty: %d recent, %d slowest", len(snap.Recent), len(snap.Slowest))
	}
	n := sampleValue(scrape(t, hs.URL), "kyrix_stage_duration_seconds_count", "stage", "item")
	if n != 1 {
		t.Fatalf("item stage count with tracing off = %v, want 1 (histograms must stay live)", n)
	}
}

// findSpan walks a span tree depth-first for the first span named name.
func findSpan(d *obs.SpanData, name string) *obs.SpanData {
	if d == nil {
		return nil
	}
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if hit := findSpan(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestStitchedTraceAcrossPeerFill is the tracing acceptance test: a
// client-traced tile request served through a cross-node peer fill
// yields ONE trace in the requester's /debug/requests — the client's
// trace ID on the root, the peer.fetch hop under it, and grafted inside
// it the owner node's peer.serve subtree down to its db.query span.
func TestStitchedTraceAcrossPeerFill(t *testing.T) {
	nodes := newTestCluster(t, 2, 500, nil)
	owner, other, tid := ownerAndOther(t, nodes)

	const clientTrace = "abc123-77" // traceID "abc123", client span "77"
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/tile?canvas=main&layer=0&size=512&col=%d&row=%d", other.url, tid.Col, tid.Row), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, clientTrace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tile: %s: %s", resp.Status, body)
	}

	// The requester's flight recorder, via the HTTP surface.
	var snap obs.Snapshot
	getJSON(t, other.url+"/debug/requests", &snap)
	var root *obs.SpanData
	for _, d := range snap.Recent {
		if d.TraceID == "abc123" && d.Name == "http.tile" {
			root = d
			break
		}
	}
	if root == nil {
		t.Fatalf("no http.tile trace with the client's trace ID in /debug/requests (%d recent)", len(snap.Recent))
	}
	if root.Parent != "77" {
		t.Errorf("root parent = %q, want the client span id 77", root.Parent)
	}
	fetchSp := findSpan(root, "peer.fetch")
	if fetchSp == nil {
		t.Fatalf("trace has no peer.fetch span: %+v", root)
	}
	serveSp := findSpan(fetchSp, "peer.serve")
	if serveSp == nil {
		t.Fatal("owner's peer.serve subtree was not grafted under peer.fetch")
	}
	if serveSp.TraceID != "abc123" {
		t.Errorf("grafted subtree trace ID = %q, want abc123", serveSp.TraceID)
	}
	dbSp := findSpan(serveSp, "db.query")
	if dbSp == nil {
		t.Fatal("stitched trace does not reach the owner's db.query span")
	}
	if dbSp.TraceID != "abc123" {
		t.Errorf("db.query trace ID = %q, want abc123", dbSp.TraceID)
	}

	// The owner's own recorder holds the same serve under the same trace.
	ownerSnap := owner.srv.FlightRecorder().Snapshot()
	foundServe := false
	for _, d := range ownerSnap.Recent {
		if d.TraceID == "abc123" && d.Name == "peer.serve" {
			foundServe = true
		}
	}
	if !foundServe {
		t.Error("owner's flight recorder is missing the peer.serve root")
	}
}

// TestMetricsScrapeDuringBatchRace hammers /metrics and /debug/requests
// while framed batches are live — the -race proof that scrape-time
// collection and the recorder never conflict with the serving path.
func TestMetricsScrapeDuringBatchRace(t *testing.T) {
	_, hs := newPointsServerOpts(t, 1000, func(o *Options) {
		o.Obs.FlightRecorderSize = 4 // force ring wraparound under load
	})
	var items []BatchItem
	for col := 0; col < 4; col++ {
		items = append(items, BatchItem{Kind: "tile", Layer: 0, Size: 512, Col: col, Row: 0})
	}
	items = append(items, BatchItem{Kind: "dbox", Layer: 0, MinX: 0, MinY: 0, MaxX: 900, MaxY: 700})
	body, _ := json.Marshal(BatchRequestV2{V: wire.V3, Canvas: "main", Items: items})

	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, 8*rounds)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(hs.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, path := range []string{"/metrics", "/debug/requests", "/stats"} {
					resp, err := http.Get(hs.URL + path)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := sampleValue(scrape(t, hs.URL), "kyrix_requests_total", "kind", "batch"); got != 4*rounds {
		t.Fatalf("batch count = %v, want %d", got, 4*rounds)
	}
}

// BenchmarkObsOverhead measures the served hot tile path (GET /tile, L1
// cache hit) with tracing on vs off — the bench-regression job tracks
// the on/off gap (acceptance: tracing costs < 3% at p50 on this path).
// The request goes over real HTTP because that is what a hot tile costs
// in production; BenchmarkObsOverheadDirect isolates the per-span cost.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			_, hs := newPointsServerOpts(b, 2000, func(o *Options) {
				o.Obs.DisableTracing = mode.disable
			})
			url := hs.URL + "/tile?canvas=main&layer=0&size=512&col=1&row=1"
			get := func() {
				resp, err := http.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("tile: %s", resp.Status)
				}
			}
			get() // warm the cache; every iteration below is an L1 hit
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}

// BenchmarkObsOverheadDirect is the microbenchmark companion: the bare
// serve call plus the handler's per-request obs work (root span + stage
// sample), no HTTP. The on/off delta is the absolute per-request cost of
// tracing — nanoseconds, not a ratio against transport time.
func BenchmarkObsOverheadDirect(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			srv, _ := newPointsServerOpts(b, 2000, func(o *Options) {
				o.Obs.DisableTracing = mode.disable
			})
			pl, ok := srv.Layer("main", 0)
			if !ok {
				b.Fatal("no layer")
			}
			tid := geom.TileID{Col: 1, Row: 1}
			ctx := context.Background()
			if _, err := srv.serveTile(ctx, pl, "spatial", 512, tid, false); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sctx, sp := srv.tracer().Start(ctx, "http.tile")
				start := time.Now()
				if _, err := srv.serveTile(sctx, pl, "spatial", 512, tid, false); err != nil {
					b.Fatal(err)
				}
				srv.obs.stageItem.Observe(time.Since(start))
				sp.End()
			}
		})
	}
}
