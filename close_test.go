package kyrix_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"kyrix"
	"kyrix/internal/fetch"
	"kyrix/internal/server"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// TestInstanceCloseDrainsInFlight: Close must let a request already in
// flight finish (up to the grace period) instead of snapping the
// connection under it. The request is held open deterministically by
// streaming its body through a pipe: the /batch handler blocks in the
// JSON decoder until the second half of the body arrives, which we
// send only after Close has begun waiting.
func TestInstanceCloseDrainsInFlight(t *testing.T) {
	db, app, reg := buildDemo(t, 500)
	inst, err := kyrix.Launch(db, app, reg, kyrix.ServerOptions{
		Cache:      kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 4 << 20}},
		Precompute: fetch.Options{BuildSpatial: true, TileSizes: []float64{512}},
	}, kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	type result struct {
		status int
		body   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		req, rerr := http.NewRequest(http.MethodPost, inst.BaseURL+"/batch", pr)
		if rerr != nil {
			done <- result{err: rerr}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, rerr := http.DefaultClient.Do(req)
		if rerr != nil {
			done <- result{err: rerr}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: string(body)}
	}()

	// First half of the body: once it is on the wire and the server
	// has picked the connection up, the handler blocks mid-decode and
	// the connection counts as active. The settle delay covers the
	// accept + header-read window (pw.Write returns when the client
	// transport consumed the bytes, not when the server did).
	if _, err := pw.Write([]byte(`{"v":3,"canvas":"main",`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- inst.Close() }()

	// Give Shutdown time to stop the listener and start draining; the
	// in-flight request must still be alive (no result yet).
	select {
	case r := <-done:
		t.Fatalf("request finished before its body did: status=%d body=%q err=%v", r.status, r.body, r.err)
	case <-time.After(150 * time.Millisecond):
	}

	// Finish the request; the drained server must answer it whole.
	if _, err := pw.Write([]byte(`"items":[{"kind":"tile","layer":0,"size":512,"col":0,"row":0}]}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed under Close: %v", r.err)
	}
	if r.status != http.StatusOK || !strings.Contains(inflatedFrame(t, r.body), `"rows"`) {
		t.Fatalf("in-flight request: status %d body %q", r.status, r.body)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}

	// And the listener really is gone for NEW work.
	if _, err := http.Get(inst.BaseURL + "/app"); err == nil {
		t.Fatal("server still accepting after Close")
	}
}

// inflatedFrame reads the one frame of a /batch stream and returns its
// payload, inflated when the frame is compressed.
func inflatedFrame(t *testing.T, stream string) string {
	t.Helper()
	br := bufio.NewReader(strings.NewReader(stream))
	if _, n, err := wire.ReadHeader(br); err != nil || n != 1 {
		t.Fatalf("batch stream header: %d frames, %v", n, err)
	}
	f, err := wire.ReadFrame(br, wire.V3)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Codec.Compressed() {
		return string(f.Payload)
	}
	payload, err := wire.Decompress(f.Payload, wire.MaxFramePayload)
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

// TestInstanceCloseFlushesL2 is the write-behind drain contract at the
// facade level: a tile served moments before Close — its L2 fill still
// sitting in the write-behind queue — must be readable from the
// persistent store after a reopen. The flush interval is pinned to an
// hour so nothing but Close's drain could have persisted it.
func TestInstanceCloseFlushesL2(t *testing.T) {
	dir := t.TempDir()
	l2opts := func() kyrix.ServerOptions {
		return kyrix.ServerOptions{
			Cache: kyrix.CacheOptions{
				L1: kyrix.L1CacheOptions{Bytes: 4 << 20},
				L2: kyrix.L2CacheOptions{Path: dir, FlushInterval: time.Hour},
			},
			Precompute: fetch.Options{BuildSpatial: true, TileSizes: []float64{512}},
		}
	}
	getTile := func(base string) []byte {
		resp, err := http.Get(base + "/tile?canvas=main&layer=0&size=512&col=0&row=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tile: %s: %s", resp.Status, body)
		}
		return body
	}

	db, app, reg := buildDemo(t, 500)
	inst, err := kyrix.Launch(db, app, reg, l2opts(), kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := getTile(inst.BaseURL)
	// No flush, no wait: the fill is (at best) queued when Close runs.
	if err := inst.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}

	db2, app2, reg2 := buildDemo(t, 500)
	inst2, err := kyrix.Launch(db2, app2, reg2, l2opts(), kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Close()
	got := getTile(inst2.BaseURL)
	if string(got) != string(want) {
		t.Fatal("reopened instance served a different payload")
	}
	snap := inst2.Server.Snapshot()
	if snap.Cache.L2 == nil || snap.Cache.L2.Hits == 0 {
		t.Fatalf("reopened serve did not hit the persistent store: %+v", snap.Cache.L2)
	}
	if snap.Serving.DBQueries != 0 {
		t.Fatalf("reopened serve ran %d db queries, want 0", snap.Serving.DBQueries)
	}
}

// replogOpts is a standalone instance with the replicated update log
// attached (single member, quorum 1): the Close-ordering surface under
// test without cluster networking in the way.
func replogOpts(dir string) kyrix.ServerOptions {
	return kyrix.ServerOptions{
		Cache: kyrix.CacheOptions{L1: kyrix.L1CacheOptions{Bytes: 4 << 20}},
		Cluster: kyrix.ClusterOptions{
			Replog: kyrix.ReplogOptions{Dir: dir, ElectionTimeout: 30 * time.Millisecond},
		},
		Precompute: fetch.Options{BuildSpatial: true, TileSizes: []float64{512}},
	}
}

func postUpdate(t *testing.T, base, sql string, args ...server.ArgValue) {
	t.Helper()
	body, _ := json.Marshal(server.UpdateRequest{SQL: sql, Args: args})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(base+"/update", "application/json", bytes.NewReader(body))
		if err == nil {
			rb, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
			err = &httpError{resp.StatusCode, string(rb)}
		}
		// 503 until the single-member log elects itself; retry briefly.
		if time.Now().After(deadline) {
			t.Fatalf("update never acked: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return e.body }

// TestInstanceCloseWithReplog is the shutdown-ordering contract with
// the replicated log attached: Close must drain the log's applier and
// fsync its WAL (an update acked before Close is replayed after the
// next Launch over the same dir), release every goroutine the log
// started (checked under -race), and stay idempotent.
func TestInstanceCloseWithReplog(t *testing.T) {
	dir := t.TempDir()
	before := runtime.NumGoroutine()

	db, app, reg := buildDemo(t, 500)
	inst, err := kyrix.Launch(db, app, reg, replogOpts(dir), kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	postUpdate(t, inst.BaseURL, "UPDATE pts SET x = ? WHERE id = 0",
		server.ArgValue{Kind: storage.TFloat64, F: 777})

	if err := inst.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := inst.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}

	// The log's WAL must exist and be non-empty — the acked update is
	// on disk.
	for _, name := range []string{"replog.kyx", "meta.kyx"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s after Close: %v (size %d)", name, err, fi.Size())
		}
	}

	// Every goroutine the instance started (HTTP serve, replog timer,
	// applier, election helpers) must exit. Idle HTTP keepalive
	// connections linger briefly; poll with a deadline.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after Close: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Crash-recovery: a fresh Launch over the same dir (fresh DB — the
	// in-memory state machine rebuilds each boot) has replayed the
	// committed update by the time it returns.
	db2, app2, reg2 := buildDemo(t, 500)
	inst2, err := kyrix.Launch(db2, app2, reg2, replogOpts(dir), kyrix.DefaultClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Close()
	res, err := db2.Query("SELECT x FROM pts WHERE id = 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].F != 777 {
		t.Fatalf("acked update not replayed when Launch returned: %v", res.Rows)
	}
}
