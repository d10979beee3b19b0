package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/wire"
)

// The /batch endpoint: one viewport's tile and dynamic-box sub-requests
// in, a length-prefixed binary framed stream (wire v3) out, flushed as
// each sub-result completes so the client renders layers as they
// arrive. OK payloads may be DEFLATE-compressed, and dynamic-box frames
// may be delta-encoded against a base box the client declares it
// already holds (frames.go).
//
// The frame codec itself (header/frame layout, compression, the delta
// format) lives in the internal/wire package shared with the frontend;
// this file owns the HTTP endpoint and the per-item serving path. See
// the package doc of internal/wire for the byte-level layout and
// kyrix's root package doc for the protocol overview.

// BatchV3ContentType is the Content-Type of a /batch response stream;
// the frontend checks it before reading frames.
const BatchV3ContentType = "application/x-kyrix-batch-v3"

// MaxBatchItems bounds one /batch request; the frontend splits larger
// viewports into multiple (overlapped) round trips.
const MaxBatchItems = 256

// Frame types and enums are shared with the frontend through
// internal/wire; the aliases keep the server API (and its callers)
// stable across the extraction.
type (
	// FrameKind tags what a frame carries.
	FrameKind = wire.FrameKind
	// FrameStatus is the per-frame outcome.
	FrameStatus = wire.FrameStatus
	// FrameCodec is the per-frame payload encoding.
	FrameCodec = wire.FrameCodec
	// Frame is one decoded stream frame.
	Frame = wire.Frame
)

// Frame kinds.
const (
	FrameTile = wire.FrameTile
	FrameDBox = wire.FrameDBox
)

// Frame statuses.
const (
	FrameOK         = wire.FrameOK
	FrameBadRequest = wire.FrameBadRequest
	FrameInternal   = wire.FrameInternal
)

// Frame codecs.
const (
	FrameRaw        = wire.CodecRaw
	FrameFlate      = wire.CodecFlate
	FrameDelta      = wire.CodecDelta
	FrameDeltaFlate = wire.CodecDeltaFlate
)

// BaseRef declares the dynamic box a client already holds, offered as
// the delta base for a dbox item: its bounds plus the identity of the
// exact payload bytes (wire.PayloadID, hex-encoded — JSON numbers
// cannot carry a full uint64). The server only delta-encodes when its
// cached copy of that box hashes identically.
type BaseRef struct {
	MinX float64 `json:"minx"`
	MinY float64 `json:"miny"`
	MaxX float64 `json:"maxx"`
	MaxY float64 `json:"maxy"`
	ID   string  `json:"id"`
}

// Box returns the base's rectangle.
func (b BaseRef) Box() geom.Rect {
	return geom.Rect{MinX: b.MinX, MinY: b.MinY, MaxX: b.MaxX, MaxY: b.MaxY}
}

// BatchItem is one sub-request of a batch: a tile (Col/Row/Size/
// Design) or a dynamic box (MinX..MaxY), each addressing its own layer
// of the request's canvas. Base (dbox only) declares a delta base.
type BatchItem struct {
	Kind   string   `json:"kind"` // "tile" | "dbox"
	Layer  int      `json:"layer"`
	Size   float64  `json:"size,omitempty"`
	Design string   `json:"design,omitempty"`
	Col    int      `json:"col,omitempty"`
	Row    int      `json:"row,omitempty"`
	MinX   float64  `json:"minx,omitempty"`
	MinY   float64  `json:"miny,omitempty"`
	MaxX   float64  `json:"maxx,omitempty"`
	MaxY   float64  `json:"maxy,omitempty"`
	Base   *BaseRef `json:"base,omitempty"`
}

// Box returns the dbox item's rectangle.
func (it BatchItem) Box() geom.Rect {
	return geom.Rect{MinX: it.MinX, MinY: it.MinY, MaxX: it.MaxX, MaxY: it.MaxY}
}

// BatchRequestV2 is the POST /batch body: one viewport's worth of tile
// and dbox sub-requests against one canvas, answered as a framed
// stream. V must be wire.V3 — a body without it (the retired v1/v2
// shapes) is rejected with 400 before anything is served.
type BatchRequestV2 struct {
	V      int         `json:"v"`
	Canvas string      `json:"canvas"`
	Codec  Codec       `json:"codec,omitempty"`
	Items  []BatchItem `json:"items"`
}

// frameWriter serializes concurrent frame writes onto one HTTP
// response, flushing after each frame so the client renders sub-
// results as they complete instead of waiting for the whole batch. The
// last frame goes out with the end of the body, after the handler.
type frameWriter struct {
	// flushHist, when set, gets one sample per frame covering the
	// serialized write + flush; assigned once before any worker runs.
	flushHist *obs.Histogram
	frames    int // announced in the stream header
	mu        sync.Mutex
	w         io.Writer    // guarded by mu
	fl        http.Flusher // guarded by mu
	err       error        // guarded by mu; first write error; later writes are dropped
	written   int          // guarded by mu
	// bytes counts payload bytes as written (post-compression/delta);
	// rawBytes counts the full-frame equivalent (what a raw frame would
	// have carried) — the pair is the stream's compression ratio.
	bytes    int64 // guarded by mu
	rawBytes int64 // guarded by mu
}

func newFrameWriter(w http.ResponseWriter, frames int) *frameWriter {
	fw := &frameWriter{w: w, frames: frames}
	if fl, ok := w.(http.Flusher); ok {
		fw.fl = fl
	}
	return fw
}

func (fw *frameWriter) writeFrame(f Frame, rawLen int) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err != nil {
		return // client went away; drain remaining work silently
	}
	start := time.Now()
	if err := wire.WriteFrame(fw.w, wire.V3, f); err != nil {
		fw.err = err
		return
	}
	fw.bytes += int64(len(f.Payload))
	fw.rawBytes += int64(rawLen)
	if fw.written++; fw.fl != nil && fw.written < fw.frames {
		fw.fl.Flush()
	}
	fw.flushHist.Observe(time.Since(start))
}

// totals reads the stream's byte counters under the writer lock (the
// batch has joined its workers by the time this is called, but the
// guarded fields are machine-checked — see internal/analysis).
func (fw *frameWriter) totals() (bytes, rawBytes int64) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.bytes, fw.rawBytes
}

// handleBatch answers POST /batch: tile and dbox sub-requests against
// one canvas, served concurrently under the bounded worker pool and
// streamed back as binary frames in completion order. Every item goes
// through the same cache + coalescing path as its single-request
// equivalent, so a batch overlapping another client's requests still
// runs each query once; OK payloads ship in their compressed form or
// as a delta (frames.go).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// A valid request is a few KB (MaxBatchItems items plus header
	// fields); cap the body so an oversized request is rejected while
	// decoding instead of allocated in full first.
	var req BatchRequestV2
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.V != wire.V3 {
		http.Error(w, fmt.Sprintf("unsupported batch protocol v%d", req.V), http.StatusBadRequest)
		return
	}
	// The root span of the whole batch; per-item spans hang off it from
	// the worker goroutines. A trace header on the POST (the frontend's
	// interaction trace) stitches this server-side tree under it.
	ctx, sp := s.startRequestSpan(r, "http.batch")
	start := time.Now()
	defer func() {
		s.obs.stageBatch.Observe(time.Since(start))
		sp.End()
	}()
	sp.Attr("items", len(req.Items))

	if len(req.Items) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if len(req.Items) > MaxBatchItems {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Items), MaxBatchItems), http.StatusBadRequest)
		return
	}
	codec, err := checkCodec(req.Codec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.Stats.BatchRequests.Add(1)
	for i := range req.Items {
		if req.Items[i].Kind == "dbox" {
			s.Stats.BoxRequests.Add(1)
		} else {
			s.Stats.TileRequests.Add(1)
		}
	}

	// Serve items concurrently: scale with cores (queries are
	// CPU-bound in the embedded DB), floored so small machines still
	// overlap cache hits with query work, capped at the item count.
	workers := min(max(runtime.GOMAXPROCS(0), 8), len(req.Items))

	// Past this point errors are per-frame: the header commits the
	// stream, so an item failure becomes an error frame, never an HTTP
	// error code.
	w.Header().Set("Content-Type", BatchV3ContentType)
	fw := newFrameWriter(w, len(req.Items))
	fw.flushHist = s.obs.stageFlush
	if err := wire.WriteHeader(w, wire.V3, len(req.Items)); err != nil {
		return // client went away before the header landed
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range req.Items {
		wg.Add(1)
		sem <- struct{}{}
		go func(idx int, it BatchItem) {
			defer func() { <-sem; wg.Done() }()
			f := Frame{Index: idx, Kind: FrameTile}
			if it.Kind == "dbox" {
				f.Kind = FrameDBox
			}
			rawLen := 0
			// net/http's panic recovery only covers the connection
			// goroutine; a panic here would kill the whole process.
			// Contain it as a per-frame error instead.
			defer func() {
				if r := recover(); r != nil {
					f.Status, f.Codec, f.Payload = FrameInternal, FrameRaw, []byte(fmt.Sprintf("internal: %v", r))
					rawLen = len(f.Payload)
				}
				fw.writeFrame(f, rawLen)
			}()
			if it.Kind == "dbox" && it.Base != nil {
				if s.ownsDBox(req.Canvas, it) {
					// Delta-eligible: hold the update fence's read
					// lock across query + delta plan so an /update
					// cannot slip between them and pair a post-update
					// result with a pre-update base.
					s.updateMu.RLock()
					defer s.updateMu.RUnlock()
				} else {
					// Non-owned in a cluster: the payload may arrive
					// from a peer at a different data version, and the
					// content-blind id diff cannot prove a delta
					// across versions safe. Dropping the base ships a
					// full frame (and keeps the peer hop outside
					// updateMu, where this node's log applies need the
					// write lock).
					it.Base = nil
				}
			}
			ictx, isp := s.tracer().Start(ctx, "item")
			isp.Attr("kind", it.Kind)
			isp.Attr("layer", it.Layer)
			itemStart := time.Now()
			defer func() {
				s.obs.stageItem.Observe(time.Since(itemStart))
				isp.End()
			}()
			p, err := s.serveItem(ictx, req.Canvas, it, false)
			if err == nil {
				f.Payload, f.Codec, rawLen, err = s.encodeFrame(ictx, req.Canvas, it, codec, p)
			}
			if err != nil {
				f.Payload = []byte(err.Error())
				rawLen = len(f.Payload)
				if httpStatusOf(err) == http.StatusBadRequest {
					f.Status = FrameBadRequest
				} else {
					f.Status = FrameInternal
				}
			}
		}(i, req.Items[i])
	}
	wg.Wait()
	// BytesServed stays the raw-payload count (comparable to /tile and
	// /dbox); the wire-side count and savings land in their own stats.
	wireBytes, rawBytes := fw.totals()
	s.Stats.BytesServed.Add(rawBytes)
	s.Stats.WireBytes.Add(wireBytes)
}

// serveItem checks and serves one item — of a /batch, a GET /tile or
// /dbox, or a peer fill — through the cache/coalescing path. localOnly
// (peer-originated fills) suppresses cluster forwarding.
func (s *Server) serveItem(ctx context.Context, canvas string, it BatchItem, localOnly bool) (*payload, error) {
	pl, ok := s.Layer(canvas, it.Layer)
	if !ok || pl.Table == "" {
		return nil, badRequestError{fmt.Errorf("no data layer %s/%d", canvas, it.Layer)}
	}
	switch it.Kind {
	case "tile", "":
		if !finite(it.Size) || it.Size <= 0 {
			return nil, badRequestError{fmt.Errorf("bad size %g", it.Size)}
		}
		if it.Col < 0 || it.Row < 0 {
			return nil, badRequestError{fmt.Errorf("bad col/row %d/%d", it.Col, it.Row)}
		}
		design := it.Design
		if design == "" {
			design = "spatial"
		}
		return s.serveTile(ctx, pl, design, it.Size, geom.TileID{Col: it.Col, Row: it.Row}, localOnly)
	case "dbox":
		box := it.Box()
		if !box.Valid() || !finite(box.MinX, box.MinY, box.MaxX, box.MaxY) {
			return nil, badRequestError{fmt.Errorf("invalid box %+v", box)}
		}
		return s.serveBox(ctx, pl, box, localOnly)
	}
	return nil, badRequestError{fmt.Errorf("unknown item kind %q", it.Kind)}
}

// finite reports that no v is NaN or ±Inf: a window with such an edge
// has no tile grid and no key, and an infinite box would scan the table.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
