package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peerStub serves /peer with a fixed payload and data version (nil: no
// version header).
func peerStub(t *testing.T, version *int64, payload []byte, serveErr error) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PeerPath {
			http.NotFound(w, r)
			return
		}
		_ = WritePeerResponse(w, version, FrameKindOf("tile"), payload, serveErr, false)
	}))
}

// TestTransportFetchRoundtrip: the payload and the owner's data version
// cross the hop; a reply without a version header reads as -1.
func TestTransportFetchRoundtrip(t *testing.T) {
	payload := []byte(`{"rows":[[1,2.5]]}`)
	v := int64(7)
	for _, c := range []struct {
		version *int64
		want    int64
	}{{&v, 7}, {nil, -1}} {
		hs := peerStub(t, c.version, payload, nil)
		tr := NewTransport([]string{hs.URL}, TransportConfig{PerPeer: 4, Timeout: time.Second})
		got, version, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{Key: "k", Kind: "tile"})
		hs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(payload) {
			t.Fatalf("payload = %q", got)
		}
		if cap(got) != len(got) {
			t.Fatalf("payload cap %d != len %d: a cached fill would pin unbudgeted bytes", cap(got), len(got))
		}
		if version != c.want {
			t.Fatalf("version = %d, want %d", version, c.want)
		}
	}
}

// TestTransportCompressedFill: a payload that DEFLATE shrinks
// crosses the wire DEFLATE-compressed and is inflated transparently —
// the wire v3 codec reuse the peer protocol exists for.
func TestTransportCompressedFill(t *testing.T) {
	big := make([]byte, 32<<10)
	for i := range big {
		big[i] = byte("abcd"[i%4]) // compressible
	}
	hs := peerStub(t, nil, big, nil)
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{PerPeer: 4, Timeout: time.Second})
	got, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{Key: "k", Kind: "tile"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(big) {
		t.Fatal("compressed fill did not round-trip")
	}
	if cap(got) != len(got) {
		t.Fatalf("inflated fill cap %d != len %d: a cached fill would pin unbudgeted bytes", cap(got), len(got))
	}
}

func TestTransportErrors(t *testing.T) {
	hs := peerStub(t, nil, nil, errors.New("no such layer"))
	defer hs.Close()
	tr := NewTransport([]string{hs.URL}, TransportConfig{PerPeer: 4, Timeout: time.Second})
	if _, _, err := tr.FetchContext(context.Background(), hs.URL, &FillRequest{}); err == nil {
		t.Fatal("error frame must surface as an error")
	}
	if _, _, err := tr.FetchContext(context.Background(), "http://not-registered", &FillRequest{}); err == nil {
		t.Fatal("unknown peer must fail")
	}
	// A dead peer fails within the timeout instead of hanging.
	dead := NewTransport([]string{"http://127.0.0.1:1"}, TransportConfig{PerPeer: 1, Timeout: 200 * time.Millisecond, Retries: -1})
	start := time.Now()
	if _, _, err := dead.FetchContext(context.Background(), "http://127.0.0.1:1", &FillRequest{}); err == nil {
		t.Fatal("dead peer must fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("dead-peer failure took too long")
	}
}

// TestTransportConcurrencyBound: the per-peer semaphore admits at most
// perPeer fills at once; the rest queue (and eventually run).
func TestTransportConcurrencyBound(t *testing.T) {
	const bound = 2
	var inFlight, maxSeen atomic.Int64
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		for {
			m := maxSeen.Load()
			if cur <= m || maxSeen.CompareAndSwap(m, cur) {
				break
			}
		}
		<-release
		inFlight.Add(-1)
		_ = WritePeerResponse(w, nil, FrameKindOf("tile"), []byte("x"), nil, false)
	}))
	defer hs.Close()

	tr := NewTransport([]string{hs.URL}, TransportConfig{PerPeer: bound, Timeout: 5 * time.Second})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = tr.FetchContext(context.Background(), hs.URL, &FillRequest{})
		}()
	}
	// Let the first `bound` fills arrive, then release everyone.
	deadline := time.Now().Add(5 * time.Second)
	for inFlight.Load() < bound && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if maxSeen.Load() > bound {
		t.Fatalf("peer saw %d concurrent fills, bound %d", maxSeen.Load(), bound)
	}
}

// TestNodeFetchRefusesOlderVersion: a fill served at a version below
// the requester's is refused with ErrBehind and counted apart from peer
// failures; one at or above it is accepted.
func TestNodeFetchRefusesOlderVersion(t *testing.T) {
	v := int64(4)
	hs := peerStub(t, &v, []byte("p"), nil)
	defer hs.Close()
	n, err := New(Options{Self: "http://self", Peers: []string{"http://self", hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := n.FetchContext(context.Background(), hs.URL, &FillRequest{Kind: "tile"}, 5); !errors.Is(err, ErrBehind) || got != 4 {
		t.Fatalf("fill at 4 for a requester at 5: version %d, err %v; want 4, ErrBehind", got, err)
	}
	for _, atLeast := range []int64{4, 0} {
		p, _, err := n.FetchContext(context.Background(), hs.URL, &FillRequest{Kind: "tile"}, atLeast)
		if err != nil || string(p) != "p" {
			t.Fatalf("fill at 4 for a requester at %d: %q, %v", atLeast, p, err)
		}
	}
	if f, b, e := n.Stats.PeerFills.Load(), n.Stats.BehindFills.Load(), n.Stats.PeerErrors.Load(); f != 2 || b != 1 || e != 0 {
		t.Fatalf("stats: fills %d behind %d errors %d, want 2/1/0", f, b, e)
	}
}

func TestOptionsEnabled(t *testing.T) {
	cases := []struct {
		o    Options
		want bool
	}{
		{Options{}, false},
		{Options{Self: "a"}, false},
		{Options{Self: "a", Peers: []string{"a"}}, false},
		{Options{Self: "a", Peers: []string{""}}, false},
		{Options{Self: "a", Peers: []string{"a", "b"}}, true},
		{Options{Peers: []string{"a", "b"}}, false},
	}
	for i, c := range cases {
		if c.o.Enabled() != c.want {
			t.Fatalf("case %d: Enabled = %v", i, c.o.Enabled())
		}
	}
	if _, err := New(Options{Self: "a"}); err == nil {
		t.Fatal("New must reject peerless options")
	}
}
