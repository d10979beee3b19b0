package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"kyrix/internal/obs"
	"kyrix/internal/wire"
)

// PeerPath is the HTTP endpoint peers fill from; the server mounts its
// handler there.
const PeerPath = "/peer"

// VersionHeader carries, on a peer reply, the data version the owner
// served the fill at (decimal; the server's count of applied update
// transitions, equal on every member at the same log position).
const VersionHeader = "X-Kyrix-Version"

// PeerContentType is the /peer response body: a one-frame stream in
// the internal/wire v3 framing (header + exactly one frame), so the
// peer protocol reuses the batch codec — per-frame status, bounded
// DEFLATE, the works — instead of inventing a second envelope.
const PeerContentType = "application/x-kyrix-peer-v3"

// ErrBreakerOpen is returned (wrapped) when a peer's circuit breaker is
// rejecting calls: the peer failed BreakerThreshold consecutive times
// and the cooldown has not elapsed (or a half-open probe is already in
// flight). Callers fall back exactly as for any other peer error; the
// point is failing in microseconds instead of burning a timeout per
// request on a peer already known dead.
var ErrBreakerOpen = errors.New("cluster: peer circuit open")

// errFailpointDrop is what an injected drop failpoint reports; it
// counts as a peer failure (feeding the breaker) like a real network
// drop would.
var errFailpointDrop = errors.New("cluster: failpoint: dropped")

// FillRequest asks a key's owner to produce one tile or dynamic-box
// payload. It carries the same addressing fields as a /batch item plus
// the canonical cache key (debugging identity; the owner recomputes
// its own). Codec names the payload layout wanted, as the key space of
// that key ("binplane"): an owner that cannot produce the layout
// answers with an error frame and the requester queries locally, so
// nodes of two builds never trade bytes one of them would misread.
type FillRequest struct {
	Key    string  `json:"key"`
	Canvas string  `json:"canvas"`
	Layer  int     `json:"layer"`
	Kind   string  `json:"kind"` // "tile" | "dbox"
	Codec  string  `json:"codec"`
	Design string  `json:"design,omitempty"`
	Size   float64 `json:"size,omitempty"`
	Col    int     `json:"col,omitempty"`
	Row    int     `json:"row,omitempty"`
	MinX   float64 `json:"minx,omitempty"`
	MinY   float64 `json:"miny,omitempty"`
	MaxX   float64 `json:"maxx,omitempty"`
	MaxY   float64 `json:"maxy,omitempty"`
}

// TransportConfig tunes the peer transport. The zero value gets
// sensible defaults everywhere.
type TransportConfig struct {
	// PerPeer bounds in-flight exchanges per peer (0 = 32).
	PerPeer int
	// Timeout bounds one Fetch end to end — queue wait, every retry
	// attempt and backoff sleep included (0 = 2s).
	Timeout time.Duration
	// Retries is the number of extra Fetch attempts after the first
	// fails, each preceded by jittered exponential backoff within the
	// same Timeout budget (0 = 2; < 0 disables retry).
	Retries int
	// BreakerThreshold opens a peer's circuit after this many
	// consecutive failures; while open, exchanges fail fast with
	// ErrBreakerOpen until a cooldown elapses, then a single half-open
	// probe tests recovery (0 = 8; < 0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// allowing the half-open probe (0 = 1s).
	BreakerCooldown time.Duration
}

func (c TransportConfig) withDefaults() TransportConfig {
	if c.PerPeer <= 0 {
		c.PerPeer = 32
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// PeerStats is a point-in-time snapshot of one peer's health counters.
type PeerStats struct {
	// Failures is the lifetime count of failed exchanges (transport
	// errors, timeouts, non-OK statuses, injected drops).
	Failures int64 `json:"failures"`
	// Consecutive is the current run of back-to-back failures; it
	// resets to zero on any success.
	Consecutive int64 `json:"consecutive"`
	// Retries counts Fetch retry attempts (first attempts excluded).
	Retries int64 `json:"retries"`
	// BreakerOpens counts transitions into the open state.
	BreakerOpens int64 `json:"breakerOpens"`
	// BreakerOpen reports whether the circuit is currently rejecting.
	BreakerOpen bool `json:"breakerOpen"`
}

// peer is one remote node: a shared pooled HTTP client plus a per-peer
// concurrency bound (so one slow or dead peer saturates its own slots
// and nothing else) and the circuit-breaker state feeding fail-fast
// behavior when the peer is down.
type peer struct {
	base string
	sem  chan struct{}

	mu          sync.Mutex
	consecutive int64     // guarded by mu; back-to-back failures; 0 = circuit closed
	openUntil   time.Time // guarded by mu; while in the future, reject (open state)
	probing     bool      // guarded by mu; a half-open probe is in flight
	failures    int64     // guarded by mu
	retries     int64     // guarded by mu
	opens       int64     // guarded by mu
}

// allow gates one exchange on the breaker. A nil return either means
// the circuit is closed or grants this call the half-open probe slot.
func (p *peer) allow(threshold int, now time.Time) error {
	if threshold <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.consecutive < int64(threshold) {
		return nil
	}
	if now.Before(p.openUntil) {
		return fmt.Errorf("%w: %s", ErrBreakerOpen, p.base)
	}
	if p.probing {
		return fmt.Errorf("%w: %s (probe in flight)", ErrBreakerOpen, p.base)
	}
	p.probing = true
	return nil
}

// record folds one exchange outcome into the breaker state.
func (p *peer) record(ok bool, threshold int, cooldown time.Duration, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probing = false
	if ok {
		p.consecutive = 0
		return
	}
	p.failures++
	p.consecutive++
	if threshold > 0 && p.consecutive >= int64(threshold) {
		if p.consecutive == int64(threshold) || now.After(p.openUntil) {
			p.opens++ // newly opened, or a failed probe re-opening
		}
		p.openUntil = now.Add(cooldown)
	}
}

func (p *peer) stats() PeerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PeerStats{
		Failures:     p.failures,
		Consecutive:  p.consecutive,
		Retries:      p.retries,
		BreakerOpens: p.opens,
		BreakerOpen:  p.openUntil.After(time.Now()),
	}
}

// Transport performs peer exchanges (cache fills and replicated-log
// RPCs) over HTTP with pooled connections, per-peer bounded
// concurrency, a hard timeout, retry with jittered exponential backoff
// and a per-peer circuit breaker. It also hosts the fault-injection
// failpoints the chaos tests steer. Safe for concurrent use.
type Transport struct {
	peers  map[string]*peer
	client *http.Client
	cfg    TransportConfig

	failMu sync.Mutex
	drops  map[string]bool          // guarded by failMu
	delays map[string]time.Duration // guarded by failMu
}

// NewTransport builds a transport to the given peer base URLs.
func NewTransport(peers []string, cfg TransportConfig) *Transport {
	cfg = cfg.withDefaults()
	t := &Transport{
		peers: make(map[string]*peer, len(peers)),
		cfg:   cfg,
		// No http.Client.Timeout: every exchange already runs under a
		// context deadline (Fetch's own, or the caller's / the default
		// in PostJSON), and a hard client-wide cap would silently clip
		// RPCs whose callers budget more — e.g. a propose forward
		// riding out an election under SubmitTimeout.
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        4 * cfg.PerPeer,
				MaxIdleConnsPerHost: cfg.PerPeer,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for _, p := range peers {
		if p != "" {
			t.peers[p] = &peer{base: p, sem: make(chan struct{}, cfg.PerPeer)}
		}
	}
	return t
}

// FailDrop injects (or clears) a drop failpoint: every exchange with
// node fails immediately as if the network ate it, counting toward the
// breaker like a real failure. Two transports dropping each other's
// node form a symmetric partition. Test hook; cheap when unused.
func (t *Transport) FailDrop(node string, on bool) {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	if t.drops == nil {
		t.drops = make(map[string]bool)
	}
	if on {
		t.drops[node] = true
	} else {
		delete(t.drops, node)
	}
}

// FailDelay injects (or clears, with d <= 0) a latency failpoint:
// every exchange with node first sleeps d (bounded by the exchange's
// own deadline). Test hook.
func (t *Transport) FailDelay(node string, d time.Duration) {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	if t.delays == nil {
		t.delays = make(map[string]time.Duration)
	}
	if d > 0 {
		t.delays[node] = d
	} else {
		delete(t.delays, node)
	}
}

// FailReset clears every failpoint (heals all injected faults).
func (t *Transport) FailReset() {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	t.drops, t.delays = nil, nil
}

func (t *Transport) failState(node string) (drop bool, delay time.Duration) {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	return t.drops[node], t.delays[node]
}

// PeerStatsSnapshot returns per-peer health counters keyed by base URL.
func (t *Transport) PeerStatsSnapshot() map[string]PeerStats {
	out := make(map[string]PeerStats, len(t.peers))
	for name, p := range t.peers {
		out[name] = p.stats()
	}
	return out
}

// exchange runs one attempt against p: failpoint delay, breaker gate
// (when gated), failpoint drop, semaphore, then fn; the outcome is
// recorded into the breaker. Breaker rejections do not count as
// failures (no exchange happened); injected drops do (a real network
// would have failed). Ungated exchanges skip the fail-fast rejection
// but still feed the breaker state, so a recovering peer is noticed by
// whichever traffic reaches it first.
func (t *Transport) exchange(ctx context.Context, p *peer, gated bool, fn func(ctx context.Context) error) error {
	drop, delay := t.failState(p.base)
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			p.record(false, t.cfg.BreakerThreshold, t.cfg.BreakerCooldown, time.Now())
			return fmt.Errorf("cluster: peer %s: %w", p.base, ctx.Err())
		}
	}
	if gated {
		if err := p.allow(t.cfg.BreakerThreshold, time.Now()); err != nil {
			return err
		}
	}
	if drop {
		p.record(false, t.cfg.BreakerThreshold, t.cfg.BreakerCooldown, time.Now())
		return fmt.Errorf("%w: %s", errFailpointDrop, p.base)
	}
	// Bounded concurrency with a bounded wait: a peer that is slow
	// enough to back its queue up past the deadline is treated as
	// down. Time spent queuing comes out of the same budget the
	// request itself runs under.
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-ctx.Done():
		p.record(false, t.cfg.BreakerThreshold, t.cfg.BreakerCooldown, time.Now())
		return fmt.Errorf("cluster: peer %s at concurrency limit", p.base)
	}
	err := fn(ctx)
	p.record(err == nil, t.cfg.BreakerThreshold, t.cfg.BreakerCooldown, time.Now())
	return err
}

// FetchContext asks node to produce the payload for fr, returning the
// payload and the data version the node served it at (-1 when the reply
// names none). One deadline covers the whole fill — semaphore queue
// wait, every retry attempt and the backoff sleeps between them all
// share it, so a fill never outlives Timeout (or an earlier ctx
// deadline). A failed attempt is retried up to Retries times with
// jittered exponential backoff (unless the circuit breaker is
// rejecting, which already means the peer is known dead). Every
// terminal failure mode — unknown node, a full concurrency budget that
// does not drain in time, transport errors, non-OK frames, an open
// breaker — comes back as an error the caller treats as "fall back to a
// local query"; a peer problem degrades the cluster to N independent
// nodes, never to an outage. An active obs span on ctx rides the
// request header, so the owner's serving spans come back stitched into
// the caller's trace.
func (t *Transport) FetchContext(ctx context.Context, node string, fr *FillRequest) (payload []byte, version int64, err error) {
	p, ok := t.peers[node]
	if !ok {
		return nil, -1, fmt.Errorf("cluster: unknown peer %q", node)
	}
	ctx, cancel := context.WithTimeout(ctx, t.cfg.Timeout)
	defer cancel()
	backoff := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err = t.exchange(ctx, p, true, func(ctx context.Context) error {
			payload, version, err = t.fetchOnce(ctx, p, fr)
			return err
		})
		if err == nil {
			return payload, version, nil
		}
		if attempt >= t.cfg.Retries || errors.Is(err, ErrBreakerOpen) {
			return nil, -1, err
		}
		// Jittered exponential backoff: sleep in [backoff/2, backoff],
		// doubling each round, so a brief peer hiccup is ridden out
		// without N requesters hammering it back down in lockstep.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		backoff *= 2
		p.mu.Lock()
		p.retries++
		p.mu.Unlock()
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, -1, err
		}
	}
}

// fetchOnce is one HTTP exchange of the fill protocol.
func (t *Transport) fetchOnce(ctx context.Context, p *peer, fr *FillRequest) (payload []byte, version int64, err error) {
	body, err := json.Marshal(fr)
	if err != nil {
		return nil, -1, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+PeerPath, bytes.NewReader(body))
	if err != nil {
		return nil, -1, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the caller's trace so the owner's serving spans join it.
	obs.InjectHeader(ctx, req.Header)
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, -1, fmt.Errorf("cluster: peer %s: %w", p.base, err)
	}
	defer resp.Body.Close()
	// Graft the owner node's finished span subtree (if it sent one) into
	// the caller's active span: the cross-node fill reads as one trace.
	if sh := resp.Header.Get(obs.SpansHeader); sh != "" {
		obs.SpanFromContext(ctx).Graft(obs.DecodeSpansHeader(sh))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, -1, fmt.Errorf("cluster: peer %s: HTTP %d", p.base, resp.StatusCode)
	}
	// An absent or malformed version is unknown (-1): older than any
	// version a requester holds, so the payload is never trusted as fresh.
	version, perr := strconv.ParseInt(resp.Header.Get(VersionHeader), 10, 64)
	if perr != nil {
		version = -1
	}
	payload, err = readPeerResponse(bufio.NewReader(resp.Body))
	return payload, version, err
}

// PostJSON performs one JSON request/response exchange with node at
// path — the RPC channel the replicated log (internal/replog) runs
// over. It shares the failpoints and per-peer concurrency bound with
// Fetch but makes a single attempt: the log's own heartbeat/election
// loops are the retry policy there, and layering another one under
// them would only distort their timing. For the same reason it is
// exempt from the breaker's fail-fast gate (the breaker is tuned for
// fill traffic; throttling a rejoining follower's catch-up appends to
// one probe per cooldown would stall consensus), though its outcomes
// still feed the breaker state and per-peer stats. If ctx carries no
// deadline the transport's Timeout applies.
func (t *Transport) PostJSON(ctx context.Context, node, path string, req, resp any) error {
	p, ok := t.peers[node]
	if !ok {
		return fmt.Errorf("cluster: unknown peer %q", node)
	}
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.cfg.Timeout)
		defer cancel()
	}
	return t.exchange(ctx, p, false, func(ctx context.Context) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		obs.InjectHeader(ctx, hreq.Header)
		hresp, err := t.client.Do(hreq)
		if err != nil {
			return fmt.Errorf("cluster: peer %s: %w", p.base, err)
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
			return fmt.Errorf("cluster: peer %s %s: HTTP %d: %s", p.base, path, hresp.StatusCode, bytes.TrimSpace(msg))
		}
		if resp == nil {
			return nil
		}
		if err := json.NewDecoder(io.LimitReader(hresp.Body, 1<<20)).Decode(resp); err != nil {
			return fmt.Errorf("cluster: peer %s %s: decode: %w", p.base, path, err)
		}
		return nil
	})
}

// readPeerResponse decodes the one-frame wire stream of a /peer reply.
func readPeerResponse(br *bufio.Reader) ([]byte, error) {
	version, n, err := wire.ReadHeader(br)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer reply: %w", err)
	}
	if n != 1 {
		return nil, fmt.Errorf("cluster: peer reply has %d frames, want 1", n)
	}
	f, err := wire.ReadFrame(br, version)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer reply: %w", err)
	}
	if f.Status != wire.FrameOK {
		return nil, fmt.Errorf("cluster: peer fill failed (status %d): %s", f.Status, f.Payload)
	}
	payload := f.Payload
	if f.Codec.Compressed() {
		payload, err = wire.Decompress(payload, wire.MaxFramePayload)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer reply: %w", err)
		}
	} else if f.Codec != wire.CodecRaw {
		return nil, fmt.Errorf("cluster: peer reply carries codec %d", f.Codec)
	}
	return payload, nil
}

// WritePeerResponse writes the one-frame wire stream of a /peer reply:
// an OK payload (DEFLATE-compressed when that makes it smaller) or an
// error frame. kind is the frame kind matching the request;
// version, when non-nil, is the data version the payload was served at.
func WritePeerResponse(w http.ResponseWriter, version *int64, kind wire.FrameKind, payload []byte, serveErr error, badRequest bool) error {
	w.Header().Set("Content-Type", PeerContentType)
	if version != nil {
		w.Header().Set(VersionHeader, strconv.FormatInt(*version, 10))
	}
	f := wire.Frame{Index: 0, Kind: kind, Status: wire.FrameOK, Codec: wire.CodecRaw}
	if serveErr != nil {
		f.Status = wire.FrameInternal
		if badRequest {
			f.Status = wire.FrameBadRequest
		}
		f.Payload = []byte(serveErr.Error())
	} else {
		f.Payload = payload
		if len(payload) >= wire.CompressMinSize {
			if cb, cerr := wire.Compress(payload); cerr == nil && len(cb) < len(payload) {
				f.Payload, f.Codec = cb, wire.CodecFlate
			}
		}
	}
	if err := wire.WriteHeader(w, wire.V3, 1); err != nil {
		return err
	}
	return wire.WriteFrame(w, wire.V3, f)
}
