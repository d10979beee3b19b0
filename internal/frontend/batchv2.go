package frontend

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/server"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// Batch protocol selection for ClientOptions.BatchProtocol.
const (
	// ProtocolAuto negotiates: batch v3 when batching is enabled,
	// stepping down to v2 and then v1 (remembering each downgrade)
	// when the server does not speak the newer protocol.
	ProtocolAuto = 0
	// ProtocolV1 forces the buffered JSON batch protocol.
	ProtocolV1 = 1
	// ProtocolV2 forces the framed-stream protocol without per-frame
	// compression or deltas.
	ProtocolV2 = 2
	// ProtocolV3 forces the compressed/delta framed stream; a server
	// that does not speak it is an error instead of a silent downgrade.
	ProtocolV3 = 3
)

// Compression selection for ClientOptions.Compression (v3 only).
const (
	// CompressionAuto lets the server DEFLATE-compress frames that
	// pass its worth-it heuristic (the v3 default).
	CompressionAuto = 0
	// CompressionOff asks for raw frames (ablations, CPU-bound
	// clients). Delta frames are still used when profitable.
	CompressionOff = 1
)

// Negotiation sentinels: the server rejected a framed request at the
// protocol level, one ladder step at a time.
var (
	// errServerIsV1 reports that the backend rejected a v2 batch
	// request — it only speaks protocol v1.
	errServerIsV1 = errors.New("frontend: server does not speak batch v2")
	// errServerNoV3 reports that the backend rejected a v3 batch
	// request — it speaks at most v2.
	errServerNoV3 = errors.New("frontend: server does not speak batch v3")
)

// useBatchV2 reports whether viewport fetches should go through the
// framed batch stream (v2 or v3): forced by BatchProtocol, or
// negotiated and no earlier downgrade to v1. In auto mode the framed
// path engages for dbox schemes unconditionally (the one-round-trip
// multi-layer viewport is the protocol's whole point there, and
// BatchSize is a tiles-only knob) and for tile schemes when batching
// is on (BatchSize > 1), mirroring the v1 opt-in.
func (c *Client) useBatchV2() bool {
	if c.v1Fallback {
		return false
	}
	switch c.opts.BatchProtocol {
	case ProtocolV2, ProtocolV3:
		return true
	case ProtocolV1:
		return false
	}
	return c.opts.Scheme.Kind == "dbox" || c.opts.BatchSize > 1
}

// forcedFramed reports whether the options pin a framed protocol
// version — a negotiation failure is then a hard error, never a
// silent downgrade to the v1 paths.
func (c *Client) forcedFramed() bool {
	return c.opts.BatchProtocol == ProtocolV2 || c.opts.BatchProtocol == ProtocolV3
}

// batchVersion is the framed protocol version the next round trip
// should speak: the forced version, or the highest not yet ruled out
// by a remembered downgrade.
func (c *Client) batchVersion() int {
	switch c.opts.BatchProtocol {
	case ProtocolV2:
		return 2
	case ProtocolV3:
		return 3
	}
	if c.v2Fallback {
		return 2
	}
	return 3
}

// frameResult is one decoded OK frame, ready to merge into client
// state: the (possibly delta-reconstructed) rows, byte accounting, and
// the payload identity future delta fetches can declare as their base.
type frameResult struct {
	dr *server.DataResponse
	// rawN is the full-payload equivalent size — what a raw v2 frame
	// would have carried (wire-side byte accounting is handled by the
	// round trip's countingReader, not per frame).
	rawN int64
	// boxID identifies the full payload these rows correspond to
	// (wire.PayloadID); zero for tile frames, which never delta.
	boxID uint64
}

// v2Sub is one planned sub-request of a framed batch and how to fold
// its decoded result into client state. merge always runs on the
// client's goroutine — even when chunks stream concurrently — so
// layers land incrementally as frames arrive without locking client
// state.
type v2Sub struct {
	item server.BatchItem
	// base is the box state item.Base was declared from: the delta
	// base the client guarantees it holds until this batch completes.
	// boxState contents are immutable once published (merges replace
	// whole states), so concurrent chunk decoders may read it.
	base  *boxState
	merge func(fr frameResult)
}

// declareBase offers a layer's held box as the delta base for a dbox
// sub-request when the client has one worth declaring and the session
// is (still) on a delta-capable protocol — a settled-v2 session skips
// the hash bookkeeping and request bloat the server would ignore.
func (c *Client) declareBase(sub *v2Sub, st *boxState) {
	if c.batchVersion() < 3 || st == nil || st.data == nil || st.wireID == 0 || !st.box.Valid() {
		return
	}
	sub.base = st
	sub.item.Base = &server.BaseRef{
		MinX: st.box.MinX, MinY: st.box.MinY,
		MaxX: st.box.MaxX, MaxY: st.box.MaxY,
		ID: strconv.FormatUint(st.wireID, 16),
	}
}

// planViewportV2 turns one viewport move into the framed sub-requests
// it needs across every data layer — missing tiles for tile-scheme
// layers, a new dynamic box for dbox layers whose box the viewport
// escaped, the full canvas for static layers on load. Cache hits and
// box promotions are recorded on rep as the per-layer paths would.
func (c *Client) planViewportV2(vp geom.Rect, includeStatic bool, rep *FetchReport) ([]v2Sub, error) {
	var subs []v2Sub
	for li := range c.canvas.Layers {
		li := li
		lm := &c.canvas.Layers[li]
		if !lm.HasData {
			continue
		}
		if lm.Static {
			if includeStatic {
				subs = append(subs, c.dboxSub(li, c.canvasRect()))
			}
			continue
		}
		switch c.opts.Scheme.Kind {
		case "tile":
			sz := c.opts.Scheme.TileSize
			for _, tid := range c.missingTiles(li, sz, vp, rep) {
				tid := tid
				subs = append(subs, v2Sub{
					item: server.BatchItem{
						Kind: "tile", Layer: li, Size: sz,
						Design: c.opts.Scheme.Design, Col: tid.Col, Row: tid.Row,
					},
					merge: func(fr frameResult) {
						c.fcache.Put(c.tileCacheKey(li, sz, tid), fr.dr, fr.rawN)
						c.observeDensity(li, tid.TileRect(sz), len(fr.dr.Rows))
					},
				})
			}
		case "dbox":
			if box, need := c.nextDBox(li, vp, rep); need {
				subs = append(subs, c.dboxSub(li, box))
			}
		default:
			// Same error the per-layer v1 loop raises: a scheme typo
			// must not become a successful empty fetch.
			return nil, fmt.Errorf("frontend: unknown scheme kind %q", c.opts.Scheme.Kind)
		}
	}
	return subs, nil
}

// dboxSub plans one dynamic-box sub-request whose result becomes the
// layer's current box (the framed analogue of fetchBoxInto). The
// layer's held box, if any, is declared as the delta base so a v3
// server can ship only the rows entering the new box.
func (c *Client) dboxSub(li int, box geom.Rect) v2Sub {
	sub := v2Sub{
		item: server.BatchItem{
			Kind: "dbox", Layer: li,
			MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
		},
		merge: func(fr frameResult) {
			prev := c.boxes[li]
			st := &boxState{box: box, data: fr.dr, wireID: fr.boxID}
			if prev != nil {
				st.prefetched = prev.prefetched
			}
			c.boxes[li] = st
			c.observeDensity(li, box, len(fr.dr.Rows))
		},
	}
	c.declareBase(&sub, c.boxes[li])
	return sub
}

// fetchViewportV2 serves one viewport move over the framed batch
// protocol: every layer's sub-requests ride one round trip (chunked —
// and overlapped — only past the server's MaxBatchItems cap). Returns
// errServerIsV1 untouched when negotiation fails before anything
// merged, so the caller can downgrade and re-plan.
func (c *Client) fetchViewportV2(vp geom.Rect, includeStatic bool, rep *FetchReport, start time.Time) error {
	subs, err := c.planViewportV2(vp, includeStatic, rep)
	if err != nil {
		return err
	}
	if len(subs) == 0 {
		return nil
	}
	// Layer merges update client state only; report accounting (rows,
	// payload bytes) is counted exactly once here.
	wrapped := make([]v2Sub, len(subs))
	for i, s := range subs {
		merge := s.merge
		wrapped[i] = s
		wrapped[i].merge = func(fr frameResult) {
			rep.Rows += len(fr.dr.Rows)
			rep.Bytes += fr.rawN
			merge(fr)
		}
	}
	return c.runBatchV2(wrapped, rep, start)
}

// runBatchV2 issues the sub-requests in MaxBatchItems-sized chunks.
// Until the first successful framed exchange the chunks go out one at
// a time so the downgrade ladder (v3 -> v2 -> v1) cannot interleave
// with in-flight work; once the protocol is settled, multiple chunks
// overlap under FetchConcurrency with their frames merged back onto
// this goroutine through a merge queue — client state is never touched
// concurrently.
func (c *Client) runBatchV2(subs []v2Sub, rep *FetchReport, start time.Time) error {
	var chunks [][]v2Sub
	for len(subs) > 0 {
		n := len(subs)
		if n > server.MaxBatchItems {
			n = server.MaxBatchItems
		}
		chunks = append(chunks, subs[:n])
		subs = subs[n:]
	}
	inline := func(f func()) { f() }

	var firstErr error
	idx := 0
	for idx < len(chunks) && !c.protoConfirmed {
		// postBatchFramed flips protoConfirmed (via exec) as soon as
		// the server accepts the version and streams a valid header —
		// per-frame application errors must not keep the client
		// re-negotiating forever.
		err := c.postBatchFramed(c.batchVersion(), chunks[idx], rep, start, inline)
		switch {
		case err == nil:
		case errors.Is(err, errServerNoV3):
			if idx > 0 {
				return fmt.Errorf("frontend: batch v3 rejected mid-viewport: %v", err)
			}
			if c.opts.BatchProtocol == ProtocolV3 {
				return fmt.Errorf("frontend: batch v3 forced but %w", err)
			}
			// Step the ladder down and retry this chunk at v2.
			c.v2Fallback = true
			continue
		case errors.Is(err, errServerIsV1):
			if idx == 0 {
				return errServerIsV1 // nothing merged; caller may downgrade
			}
			// A mid-batch downgrade cannot happen against one server;
			// treat it as a transport failure. %v, not %w: the sentinel
			// must not survive into this error, or callers would
			// downgrade after frames already merged.
			return fmt.Errorf("frontend: batch v2 rejected mid-viewport: %v", err)
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
		idx++
	}

	remaining := chunks[idx:]
	version := c.batchVersion()
	conc := c.opts.FetchConcurrency
	if conc > len(remaining) {
		conc = len(remaining)
	}
	if conc <= 1 {
		// Sequential chunk loop (the conservative FetchConcurrency
		// default, matching the per-tile path).
		for _, chunk := range remaining {
			if err := c.postBatchFramed(version, chunk, rep, start, inline); err != nil {
				if err = demoteNegotiationErr(err); firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}

	// Overlapped chunks: bounded fetch+decode concurrency, with every
	// merge (and all rep accounting) funneled back onto this goroutine.
	// Both channels are unbuffered, so a chunk's done error arrives
	// strictly after all its merges were executed here.
	mergeCh := make(chan func())
	doneCh := make(chan error)
	sem := make(chan struct{}, conc)
	for _, chunk := range remaining {
		chunk := chunk
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			doneCh <- c.postBatchFramed(version, chunk, rep, start, func(f func()) { mergeCh <- f })
		}()
	}
	for outstanding := len(remaining); outstanding > 0; {
		select {
		case f := <-mergeCh:
			f()
		case err := <-doneCh:
			outstanding--
			if err != nil {
				if err = demoteNegotiationErr(err); firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

// demoteNegotiationErr strips the downgrade sentinels off errors from
// post-negotiation chunks: once frames merged, a protocol rejection is
// a transport failure, never a reason to silently re-fetch at v1.
func demoteNegotiationErr(err error) error {
	if errors.Is(err, errServerIsV1) || errors.Is(err, errServerNoV3) {
		return fmt.Errorf("frontend: framed batch rejected mid-viewport: %v", err)
	}
	return err
}

// countingReader counts bytes read off the wire, header and framing
// included — the quantity FetchReport.WireBytes reports.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// postBatchFramed issues one framed-stream batch round trip at the
// given protocol version (2 or 3) and hands each decoded frame's merge
// to exec as it arrives — exec runs the closure on the client's
// goroutine (directly on the sequential path, via the merge queue when
// chunks overlap), and all rep mutation happens inside those closures.
// Per-frame errors do not abort the stream: sibling frames still
// merge, and the first frame error is returned after the stream is
// drained. The negotiation sentinels are returned when the response is
// a protocol-level rejection.
func (c *Client) postBatchFramed(version int, subs []v2Sub, rep *FetchReport, start time.Time, exec func(func())) error {
	req := server.BatchRequestV2{
		V:      version,
		Canvas: c.canvas.ID,
		Codec:  c.opts.Codec,
		Items:  make([]server.BatchItem, len(subs)),
	}
	if version >= 3 && c.opts.Compression == CompressionOff {
		req.Comp = server.CompOff
	}
	for i := range subs {
		req.Items[i] = subs[i].item
	}
	body, err := jsonMarshal(req)
	if err != nil {
		return fmt.Errorf("frontend: encode batch v%d: %w", version, err)
	}
	hreq, err := http.NewRequest(http.MethodPost, c.base+"/batch", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("frontend: batch v%d: %w", version, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Stitch the server's http.batch span under the client's interaction
	// trace (no-op without an active span).
	obs.InjectHeader(c.ictx, hreq.Header)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("frontend: batch v%d: %w", version, err)
	}
	defer resp.Body.Close()
	wantCT := server.BatchV2ContentType
	if version >= 3 {
		wantCT = server.BatchV3ContentType
	}
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != wantCT {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		_, _ = io.Copy(io.Discard, resp.Body)
		// The downgrade signal is a protocol-level rejection only: an
		// older server rejects the unknown version field with 400 (a
		// v1-only server may also answer 200 with a JSON envelope). A
		// transient 5xx or transport-layer status must NOT demote the
		// protocol for the client's lifetime — it surfaces as a real
		// error instead.
		if resp.StatusCode == http.StatusBadRequest || resp.StatusCode == 200 {
			sentinel := errServerIsV1
			if version >= 3 && resp.StatusCode == http.StatusBadRequest {
				sentinel = errServerNoV3
			}
			return fmt.Errorf("%w (%s: %s)", sentinel, resp.Status, msg)
		}
		return fmt.Errorf("frontend: batch v%d: %s: %s", version, resp.Status, msg)
	}
	exec(func() { rep.Requests++ })
	cr := &countingReader{r: resp.Body}
	br := bufio.NewReader(cr)
	gotVersion, nframes, err := wire.ReadHeader(br)
	if err != nil {
		return err
	}
	if int(gotVersion) != version {
		return fmt.Errorf("frontend: asked batch v%d, stream is v%d", version, gotVersion)
	}
	if nframes != len(subs) {
		return fmt.Errorf("frontend: batch v%d advertises %d frames, asked %d", version, nframes, len(subs))
	}
	// The server accepted this protocol version and committed a valid
	// stream: settle negotiation, even if individual frames fail below.
	exec(func() { c.protoConfirmed = true })
	seen := make([]bool, nframes)
	var firstErr error
	addWire := func() { n := cr.n; exec(func() { rep.WireBytes += n }) }
	for i := 0; i < nframes; i++ {
		f, err := wire.ReadFrame(br, gotVersion)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("frontend: batch v%d stream truncated after %d/%d frames", version, i, nframes)
			}
			addWire()
			return err
		}
		if f.Index < 0 || f.Index >= nframes || seen[f.Index] {
			addWire()
			return fmt.Errorf("frontend: batch v%d bogus frame index %d", version, f.Index)
		}
		seen[f.Index] = true
		at := time.Since(start)
		exec(func() {
			if rep.FirstFrame == 0 || at < rep.FirstFrame {
				rep.FirstFrame = at
			}
		})
		if f.Status != server.FrameOK {
			if firstErr == nil {
				firstErr = fmt.Errorf("frontend: batch v%d item %d: %s", version, f.Index, f.Payload)
			}
			continue
		}
		fr, err := c.decodeFrame(&subs[f.Index], f, version)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sub := &subs[f.Index]
		exec(func() { sub.merge(fr) })
	}
	// Every frame is in, but the chunked terminator is still unread: a
	// body closed short of EOF makes net/http discard the connection,
	// and the next batch would pay a TCP handshake. Read the (bounded)
	// tail so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, io.LimitReader(br, 64<<10))
	addWire()
	return firstErr
}

// decodeFrame turns one OK frame into a mergeable result: inflate a
// compressed payload (bounded — a hostile length cannot become a
// decompression bomb), reconstruct a delta frame against the sub's
// declared base, or decode a raw payload directly. Pure with respect
// to mutable client state, so overlapped chunks may run it off the
// client goroutine.
func (c *Client) decodeFrame(sub *v2Sub, f wire.Frame, version int) (frameResult, error) {
	var fr frameResult
	payload := f.Payload
	if f.Codec.Compressed() {
		var err error
		payload, err = wire.Decompress(payload, wire.MaxFramePayload)
		if err != nil {
			return fr, fmt.Errorf("frontend: batch item %d: %w", f.Index, err)
		}
	}
	if f.Codec.IsDelta() {
		if sub.base == nil {
			return fr, fmt.Errorf("frontend: batch item %d: delta frame for a sub-request that declared no base", f.Index)
		}
		d, err := wire.DecodeDelta(payload)
		if err != nil {
			return fr, fmt.Errorf("frontend: batch item %d: %w", f.Index, err)
		}
		entering, err := server.Decode(d.Entering, c.opts.Codec)
		if err != nil {
			return fr, fmt.Errorf("frontend: batch item %d entering rows: %w", f.Index, err)
		}
		dr, err := applyDelta(sub.base.data, d, entering)
		if err != nil {
			return fr, fmt.Errorf("frontend: batch item %d: %w", f.Index, err)
		}
		fr.dr, fr.rawN, fr.boxID = dr, int64(d.FullLen), d.NewID
		return fr, nil
	}
	dr, err := server.Decode(payload, c.opts.Codec)
	if err != nil {
		return fr, err
	}
	fr.dr, fr.rawN = dr, int64(len(payload))
	if sub.item.Kind == "dbox" && version >= 3 {
		// The payload identity becomes the delta base id of the next
		// fetch of this layer; a settled-v2 session never declares
		// bases, so it skips the hash.
		fr.boxID = wire.PayloadID(payload)
	}
	return fr, nil
}

// applyDelta reconstructs a full box result from the base the client
// holds plus the server's delta: base rows minus the tombstoned ids,
// plus the entering rows. The reconstruction is exactly the row set of
// the full payload the server diffed against (rows are keyed by their
// integer first column, the same identity the renderer deduplicates
// on).
func applyDelta(base *server.DataResponse, d wire.Delta, entering *server.DataResponse) (*server.DataResponse, error) {
	if base == nil {
		return nil, errors.New("delta frame but no base rows held")
	}
	tomb := make(map[int64]bool, len(d.Tombstones))
	for _, id := range d.Tombstones {
		tomb[id] = true
	}
	out := &server.DataResponse{Cols: entering.Cols, Types: entering.Types}
	if len(entering.Rows) == 0 {
		// An empty entering payload carries fallback column types; the
		// surviving rows are all base rows, so keep the base schema.
		out.Cols, out.Types = base.Cols, base.Types
	}
	rows := make([]storage.Row, 0, len(base.Rows)+len(entering.Rows))
	for _, row := range base.Rows {
		if len(row) == 0 || tomb[row[0].AsInt()] {
			continue
		}
		rows = append(rows, row)
	}
	rows = append(rows, entering.Rows...)
	out.Rows = rows
	return out, nil
}

// PrefetchBoxes warms the dynamic-box prefetch slot of several layers
// with one box — a single framed round trip when a framed protocol is
// available, per-layer GET /dbox otherwise. Each layer's current box
// is declared as the delta base, so under v3 a momentum prefetch one
// viewport ahead ships mostly as entering rows. Like PrefetchBox it
// does not count toward interaction reports.
func (c *Client) PrefetchBoxes(layers []int, box geom.Rect) error {
	if !c.useBatchV2() {
		return c.prefetchBoxesSequential(layers, box)
	}
	var subs []v2Sub
	for _, li := range layers {
		li := li
		lm := &c.canvas.Layers[li]
		if !lm.HasData || lm.Static {
			continue
		}
		sub := v2Sub{
			item: server.BatchItem{
				Kind: "dbox", Layer: li,
				MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
			},
			merge: func(fr frameResult) {
				st := c.boxes[li]
				if st == nil {
					st = &boxState{}
					c.boxes[li] = st
				}
				st.prefetched = &boxState{box: box, data: fr.dr, wireID: fr.boxID}
			},
		}
		c.declareBase(&sub, c.boxes[li])
		subs = append(subs, sub)
	}
	if len(subs) == 0 {
		return nil
	}
	var rep FetchReport // prefetches do not count toward interaction reports
	err := c.runBatchV2(subs, &rep, time.Now())
	if errors.Is(err, errServerIsV1) && !c.forcedFramed() {
		c.v1Fallback = true
		return c.prefetchBoxesSequential(layers, box)
	}
	return err
}

// prefetchBoxesSequential is the v1 path: one GET /dbox per layer.
func (c *Client) prefetchBoxesSequential(layers []int, box geom.Rect) error {
	for _, li := range layers {
		if err := c.PrefetchBox(li, box); err != nil {
			return err
		}
	}
	return nil
}
