package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/storage"
)

// TestUpdateDropsStaleFlight pins the ROADMAP "coalescing under
// updates" fix: a query in flight when /update lands must not
// repopulate the just-cleared backend cache with pre-update rows. The
// query hook holds the tile query open across the update, so the race
// is deterministic.
func TestUpdateDropsStaleFlight(t *testing.T) {
	srv, hs := newPointsServer(t, 500, 4096, 2048)

	hold := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	srv.queryHook = func() {
		once.Do(func() {
			close(started)
			<-hold
		})
	}

	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=1&row=1")
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("%s: %s", resp.Status, body)
			return
		}
		done <- nil
	}()

	<-started // the tile query is now in flight, pre-update

	// The update bumps the cache generation and clears the cache while
	// that query is still running.
	upd := UpdateRequest{
		SQL:  "UPDATE points SET val = ? WHERE id = ?",
		Args: []ArgValue{{Kind: storage.TFloat64, F: 1.5}, {Kind: storage.TInt64, I: 1}},
	}
	body, _ := json.Marshal(upd)
	resp, err := http.Post(hs.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d", resp.StatusCode)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The stale query completed after the update — its payload must
	// not be resident in the backend cache.
	key := fmt.Sprintf("%s/%s/%s", keySpace, "spatial",
		fetch.TileKeyOf("main/0", 512, geom.TileID{Col: 1, Row: 1}))
	if srv.bcache.Contains(key) {
		t.Fatal("stale pre-update query repopulated the backend cache")
	}

	// A fresh request for the same tile runs a new (post-update)
	// query instead of hitting a stale cache entry or flight.
	dbqBefore := srv.Stats.DBQueries.Load()
	resp, err = http.Get(hs.URL + "/tile?canvas=main&layer=0&size=512&col=1&row=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := srv.Stats.DBQueries.Load() - dbqBefore; got != 1 {
		t.Fatalf("post-update request ran %d queries, want a fresh one", got)
	}
	// And that fresh result is cached under the new generation.
	if !srv.bcache.Contains(key) {
		t.Fatal("post-update query should repopulate the cache")
	}
}

// TestPlanCacheBounded pins the plan-cache satellite: ad-hoc statement
// shapes through preparedSelect cannot grow the cache past
// planCacheSize; hot shapes stay resident under LRU.
func TestPlanCacheBounded(t *testing.T) {
	srv, _ := newPointsServer(t, 50, 4096, 2048)
	const cap = planCacheSize
	for i := 0; i < cap+300; i++ {
		sql := fmt.Sprintf("SELECT id FROM points WHERE id = %d", i)
		if _, err := srv.preparedSelect(sql); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.plans.Stats().Entries; got > cap {
		t.Fatalf("plan cache holds %d entries, cap %d", got, cap)
	}
	// Repeating a resident statement is a cache hit (no reparse): the
	// most recent statement survives the churn above.
	last := fmt.Sprintf("SELECT id FROM points WHERE id = %d", cap+299)
	hitsBefore := srv.plans.Stats().Hits
	if _, err := srv.preparedSelect(last); err != nil {
		t.Fatal(err)
	}
	if srv.plans.Stats().Hits != hitsBefore+1 {
		t.Fatal("resident plan should be served from the cache")
	}
}
