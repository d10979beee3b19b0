package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestFetchRetriesTransientFailure: a peer that fails its first two
// exchanges and then recovers is ridden out by the backoff retry — the
// caller sees success, and the retry counter records the extra
// attempts.
func TestFetchRetriesTransientFailure(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		_ = WritePeerResponse(w, nil, FrameKindOf("tile"), []byte("ok"), nil, false)
	}))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{Timeout: 5 * time.Second, Retries: 2})
	got, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{Key: "k", Kind: "tile"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" {
		t.Fatalf("payload = %q", got)
	}
	if calls.Load() != 3 {
		t.Fatalf("peer saw %d attempts, want 3", calls.Load())
	}
	st := tr.PeerStatsSnapshot()[hs.URL]
	if st.Retries != 2 || st.Consecutive != 0 {
		t.Fatalf("stats = %+v, want 2 retries and a reset run", st)
	}
}

// TestBreakerOpensAndProbes: consecutive failures past the threshold
// open the circuit (calls fail fast with ErrBreakerOpen, the peer sees
// no more traffic); after the cooldown a half-open probe goes through,
// and a successful probe closes the circuit again.
func TestBreakerOpensAndProbes(t *testing.T) {
	var fail atomic.Bool
	var calls atomic.Int64
	fail.Store(true)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if fail.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		_ = WritePeerResponse(w, nil, FrameKindOf("tile"), []byte("ok"), nil, false)
	}))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{
		Timeout:          time.Second,
		Retries:          -1,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})

	for i := 0; i < 3; i++ {
		if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); err == nil {
			t.Fatal("failing peer fetch succeeded")
		}
	}
	seen := calls.Load()
	// Circuit is open: fail fast, no wire traffic.
	_, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open circuit returned %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != seen {
		t.Fatal("open circuit still sent traffic to the peer")
	}
	st := tr.PeerStatsSnapshot()[hs.URL]
	if !st.BreakerOpen || st.BreakerOpens == 0 || st.Consecutive != 3 {
		t.Fatalf("stats while open = %+v", st)
	}

	// Heal the peer; after the cooldown, the half-open probe closes
	// the circuit and traffic flows again.
	fail.Store(false)
	time.Sleep(60 * time.Millisecond)
	if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); err != nil {
		t.Fatalf("closed circuit: %v", err)
	}
	st = tr.PeerStatsSnapshot()[hs.URL]
	if st.BreakerOpen || st.Consecutive != 0 {
		t.Fatalf("stats after heal = %+v", st)
	}
}

// TestBreakerFailedProbeReopens: while the peer stays down, each
// cooldown expiry admits exactly one probe; the failed probe re-opens
// the circuit instead of letting traffic through.
func TestBreakerFailedProbeReopens(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{
		Timeout:          time.Second,
		Retries:          -1,
		BreakerThreshold: 2,
		BreakerCooldown:  40 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		_, _, _ = tr.FetchContext(context.Background(), hs.URL, &FillRequest{})
	}
	time.Sleep(50 * time.Millisecond)
	_, _, _ = tr.FetchContext(context.Background(), hs.URL, &FillRequest{}) // the probe, fails
	seen := calls.Load()
	if seen != 3 {
		t.Fatalf("peer saw %d calls, want 3 (2 openers + 1 probe)", seen)
	}
	// Immediately after the failed probe the circuit is open again.
	_, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("after failed probe: %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != seen {
		t.Fatal("re-opened circuit sent traffic")
	}
}

// TestFailpointDropAndHeal: an injected drop makes every exchange fail
// without touching the network (feeding the breaker like a real
// partition), and FailReset heals it.
func TestFailpointDropAndHeal(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		_ = WritePeerResponse(w, nil, FrameKindOf("tile"), []byte("ok"), nil, false)
	}))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{Timeout: time.Second, Retries: -1, BreakerThreshold: -1})
	tr.FailDrop(hs.URL, true)
	if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); err == nil {
		t.Fatal("dropped exchange succeeded")
	}
	if calls.Load() != 0 {
		t.Fatal("dropped exchange reached the peer")
	}
	if st := tr.PeerStatsSnapshot()[hs.URL]; st.Failures != 1 {
		t.Fatalf("drop not counted as failure: %+v", st)
	}
	tr.FailReset()
	if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestFailpointDelay: an injected delay slows the exchange but within
// the deadline it still completes; past the deadline it fails.
func TestFailpointDelay(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = WritePeerResponse(w, nil, FrameKindOf("tile"), []byte("ok"), nil, false)
	}))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{Timeout: 150 * time.Millisecond, Retries: -1, BreakerThreshold: -1})
	tr.FailDelay(hs.URL, 30*time.Millisecond)
	start := time.Now()
	if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); err != nil {
		t.Fatalf("delayed exchange: %v", err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("delay failpoint did not delay")
	}
	tr.FailDelay(hs.URL, 500*time.Millisecond) // beyond the deadline
	if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); err == nil {
		t.Fatal("over-deadline delay succeeded")
	}
}

// TestPostJSONBypassesBreakerGate: an open circuit fails fills fast
// but does not throttle the replog RPC channel — consensus traffic is
// the thing that notices a peer recovering, so it must keep flowing
// (and its successes close the circuit for fills again).
func TestPostJSONBypassesBreakerGate(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PeerPath {
			http.Error(w, "fills down", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{}`))
	}))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{
		Timeout:          time.Second,
		Retries:          -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	})
	for i := 0; i < 2; i++ {
		_, _, _ = tr.FetchContext(context.Background(), hs.URL, &FillRequest{})
	}
	if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("fill with open circuit: %v, want ErrBreakerOpen", err)
	}
	var out struct{}
	if err := tr.PostJSON(context.Background(), hs.URL, "/replog/append", struct{}{}, &out); err != nil {
		t.Fatalf("replog RPC throttled by open circuit: %v", err)
	}
	if st := tr.PeerStatsSnapshot()[hs.URL]; st.Consecutive != 0 {
		t.Fatalf("RPC success did not reset the failure run: %+v", st)
	}
}

// TestPostJSONRoundtrip: the generic JSON RPC shares the transport's
// failpoints and works end to end.
func TestPostJSONRoundtrip(t *testing.T) {
	type echo struct {
		N int `json:"n"`
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/replog/test" {
			http.NotFound(w, r)
			return
		}
		var in echo
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		in.N++
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(in)
	}))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{Timeout: time.Second})
	var out echo
	if err := tr.PostJSON(context.Background(), hs.URL, "/replog/test", echo{N: 41}, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 42 {
		t.Fatalf("echo = %d, want 42", out.N)
	}
	tr.FailDrop(hs.URL, true)
	if err := tr.PostJSON(context.Background(), hs.URL, "/replog/test", echo{}, &out); err == nil {
		t.Fatal("dropped RPC succeeded")
	}
	if err := tr.PostJSON(context.Background(), "http://unknown", "/x", echo{}, nil); err == nil {
		t.Fatal("unknown peer RPC succeeded")
	}
}
