package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/wire"
)

// Batch wire protocols v2/v3: a length-prefixed binary framed stream.
//
// The v1 /batch reply is one buffered JSON envelope with base64 tile
// payloads — ~33% encoding overhead and whole-response memory on both
// sides. v2 streams raw payloads as frames, flushed as each sub-result
// completes, and covers both static tiles and dynamic boxes so a
// multi-layer canvas viewport is exactly one round trip. v3 keeps the
// same stream shape and adds a per-frame codec byte: OK payloads may be
// DEFLATE-compressed, and dynamic-box frames may be delta-encoded
// against a base box the client declares it already holds (only the
// rows entering the new box cross the wire, plus a tombstone list for
// the rows leaving).
//
// The frame codec itself (header/frame layout, compression, the delta
// format) lives in the internal/wire package shared with the frontend;
// this file owns the HTTP endpoint, version dispatch and the
// per-item serving path. See the package doc of internal/wire for the
// byte-level layout and kyrix's root package doc for the protocol
// overview.

// BatchV2Magic opens every framed batch stream (v2 and v3 share it;
// the version byte after the magic separates them).
const BatchV2Magic = wire.Magic

// Framed-stream protocol versions.
const (
	BatchV2Version = wire.V2
	BatchV3Version = wire.V3
)

// Content types of the framed batch responses; the frontend uses them
// for content negotiation (a v1-only server replies with
// application/json or an error instead).
const (
	BatchV2ContentType = "application/x-kyrix-batch-v2"
	BatchV3ContentType = "application/x-kyrix-batch-v3"
)

// MaxBatchItems bounds one framed /batch request, like MaxBatchTiles
// for v1; the frontend splits larger viewports into multiple round
// trips (overlapped client-side past this limit).
const MaxBatchItems = MaxBatchTiles

// maxFramePayload bounds a decoded frame payload, both as read and
// after decompression (a corrupt length prefix or a hostile DEFLATE
// stream must not become an unbounded allocation).
const maxFramePayload = wire.MaxFramePayload

// Frame types and enums are shared with the frontend through
// internal/wire; the aliases keep the server API (and its callers)
// stable across the extraction.
type (
	// FrameKind tags what a frame carries.
	FrameKind = wire.FrameKind
	// FrameStatus is the per-frame outcome.
	FrameStatus = wire.FrameStatus
	// FrameCodec is the v3 per-frame payload encoding.
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

// v3 frame codecs.
const (
	FrameRaw        = wire.CodecRaw
	FrameFlate      = wire.CodecFlate
	FrameDelta      = wire.CodecDelta
	FrameDeltaFlate = wire.CodecDeltaFlate
)

// BaseRef declares the dynamic box a client already holds, offered as
// the delta base for a v3 dbox item: its bounds plus the identity of
// the exact payload bytes (wire.PayloadID, hex-encoded — JSON numbers
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

// BatchItem is one sub-request of a framed batch: a tile (Col/Row/
// Size/Design) or a dynamic box (MinX..MaxY), each addressing its own
// layer of the request's canvas. Base (v3, dbox only) declares a delta
// base; v2 servers ignore it.
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

// Compression modes for BatchRequestV2.Comp.
const (
	// CompFlate (the v3 default, also selected by "") lets the server
	// DEFLATE-compress OK payloads that pass the worth-it heuristic.
	CompFlate = "flate"
	// CompOff forces raw payloads (ablations, pre-compressed codecs).
	CompOff = "off"
)

// BatchRequestV2 is the POST /batch body for the framed protocols: one
// viewport's worth of tile and dbox sub-requests against one canvas,
// answered as a binary framed stream. V selects the stream version (2
// or 3) — a v1 server ignores the unknown fields, sees no tiles and
// rejects the request, and a v2 server rejects v=3 at dispatch, which
// is what the frontend's downgrade ladder keys on. Comp ("flate"|
// "off", v3 only) negotiates per-request compression.
type BatchRequestV2 struct {
	V      int         `json:"v"`
	Canvas string      `json:"canvas"`
	Codec  Codec       `json:"codec,omitempty"`
	Comp   string      `json:"comp,omitempty"`
	Items  []BatchItem `json:"items"`
}

// WriteBatchHeader writes a v2 stream header for n frames. (v3 streams
// are written through wire.WriteHeader directly.)
func WriteBatchHeader(w io.Writer, n int) error {
	return wire.WriteHeader(w, wire.V2, n)
}

// ReadBatchHeader reads and validates a v2 stream header, returning
// the frame count. A v3 stream is rejected here: callers that can
// consume both versions use wire.ReadHeader.
func ReadBatchHeader(br *bufio.Reader) (int, error) {
	v, n, err := wire.ReadHeader(br)
	if err != nil {
		return 0, fmt.Errorf("server: batch: %w", err)
	}
	if v != wire.V2 {
		return 0, fmt.Errorf("server: batch v2 reader got version %d stream", v)
	}
	return n, nil
}

// WriteFrame writes one v2 frame.
func WriteFrame(w io.Writer, f Frame) error {
	return wire.WriteFrame(w, wire.V2, f)
}

// ReadFrame reads one v2 frame. io.EOF at the first byte is returned
// verbatim (a clean between-frames boundary); any other failure is a
// truncated or corrupt stream.
func ReadFrame(br *bufio.Reader) (Frame, error) {
	return wire.ReadFrame(br, wire.V2)
}

// frameWriter serializes concurrent frame writes onto one HTTP
// response, flushing after each frame so the client renders sub-
// results as they complete instead of waiting for the whole batch.
type frameWriter struct {
	version byte
	// flushHist, when set, gets one sample per frame covering the
	// serialized write + flush; assigned once before any worker runs.
	flushHist *obs.Histogram
	mu        sync.Mutex
	w         io.Writer    // guarded by mu
	fl        http.Flusher // guarded by mu
	err       error        // guarded by mu; first write error; later writes are dropped
	// bytes counts payload bytes as written (post-compression/delta);
	// rawBytes counts the full-frame equivalent (what a raw v2 frame
	// would have carried) — the pair is the stream's compression ratio.
	bytes    int64 // guarded by mu
	rawBytes int64 // guarded by mu
}

func newFrameWriter(w http.ResponseWriter, version byte) *frameWriter {
	fw := &frameWriter{version: version, w: w}
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
	if err := wire.WriteFrame(fw.w, fw.version, f); err != nil {
		fw.err = err
		return
	}
	fw.bytes += int64(len(f.Payload))
	fw.rawBytes += int64(rawLen)
	if fw.fl != nil {
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

// handleBatchV2 answers a framed batch (v2 or v3): tile and dbox
// sub-requests against one canvas, served concurrently under the
// bounded worker pool and streamed back as binary frames in completion
// order. Every item goes through the same cache + coalescing path as
// its single-request equivalent; v3 additionally ships OK payloads in
// their compressed form or as a delta (batchv3.go).
func (s *Server) handleBatchV2(ctx context.Context, w http.ResponseWriter, req *BatchRequestV2) {
	if len(req.Items) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if len(req.Items) > MaxBatchItems {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Items), MaxBatchItems), http.StatusBadRequest)
		return
	}
	codec := req.Codec
	if codec == "" {
		codec = CodecJSON
	}
	if codec != CodecJSON && codec != CodecBinary {
		http.Error(w, fmt.Sprintf("unknown codec %q", codec), http.StatusBadRequest)
		return
	}
	version := byte(wire.V2)
	compress := false
	if req.V == BatchV3Version {
		version = wire.V3
		switch req.Comp {
		case "", CompFlate:
			compress = true
		case CompOff:
		default:
			http.Error(w, fmt.Sprintf("unknown compression %q", req.Comp), http.StatusBadRequest)
			return
		}
	}

	s.Stats.BatchRequests.Add(1)
	for i := range req.Items {
		if req.Items[i].Kind == "dbox" {
			s.Stats.BoxRequests.Add(1)
		} else {
			s.Stats.TileRequests.Add(1)
		}
	}

	workers := s.opts.BatchConcurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 8 {
			workers = 8
		}
	}
	if workers > len(req.Items) {
		workers = len(req.Items)
	}

	// Past this point errors are per-frame: the header commits the
	// stream, so an item failure becomes an error frame, never an HTTP
	// error code.
	if version == wire.V3 {
		w.Header().Set("Content-Type", BatchV3ContentType)
	} else {
		w.Header().Set("Content-Type", BatchV2ContentType)
	}
	fw := newFrameWriter(w, version)
	fw.flushHist = s.obs.stageFlush
	if err := wire.WriteHeader(w, version, len(req.Items)); err != nil {
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
			// Contain panics like v1 does: net/http's recovery only
			// covers the connection goroutine.
			defer func() {
				if r := recover(); r != nil {
					f.Status, f.Codec, f.Payload = FrameInternal, FrameRaw, []byte(fmt.Sprintf("internal: %v", r))
					rawLen = len(f.Payload)
				}
				fw.writeFrame(f, rawLen)
			}()
			if version == wire.V3 && it.Kind == "dbox" && it.Base != nil {
				if s.ownsDBox(req.Canvas, it, codec) {
					// Delta-eligible: hold the epoch read lock across
					// query + delta plan so an /update cannot slip
					// between them and pair a post-update result with
					// a pre-update base.
					s.epochMu.RLock()
					defer s.epochMu.RUnlock()
				} else {
					// Non-owned in a cluster: the payload may arrive
					// from a peer at a different epoch, and the
					// content-blind id diff cannot prove a cross-epoch
					// delta safe. Dropping the base ships a full frame
					// (and keeps the peer hop outside epochMu, where a
					// gossiped epoch adoption needs the write lock).
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
			p, err := s.serveItem(ictx, req.Canvas, it, codec, false)
			if err != nil {
				f.Payload = []byte(err.Error())
				rawLen = len(f.Payload)
				if httpStatusOf(err) == http.StatusBadRequest {
					f.Status = FrameBadRequest
				} else {
					f.Status = FrameInternal
				}
				return
			}
			f.Payload = p.raw
			rawLen = len(p.raw)
			if version == wire.V3 {
				f.Payload, f.Codec = s.encodeFrameV3(ictx, req.Canvas, it, codec, p, compress)
			}
		}(i, req.Items[i])
	}
	wg.Wait()
	// BytesServed stays the raw-payload count (comparable to /tile and
	// to v2); the wire-side count and savings land in their own stats.
	wireBytes, rawBytes := fw.totals()
	s.Stats.BytesServed.Add(rawBytes)
	s.Stats.WireBytes.Add(wireBytes)
}

// serveItem resolves and serves one framed batch item through the same
// cache/coalescing path as the single-request endpoints. localOnly
// (peer-originated fills) suppresses cluster forwarding.
func (s *Server) serveItem(ctx context.Context, canvas string, it BatchItem, codec Codec, localOnly bool) (*payload, error) {
	pl, ok := s.Layer(canvas, it.Layer)
	if !ok || pl.Table == "" {
		return nil, badRequestError{fmt.Errorf("no data layer %s/%d", canvas, it.Layer)}
	}
	switch it.Kind {
	case "tile", "":
		if it.Size <= 0 {
			return nil, badRequestError{fmt.Errorf("bad size %g", it.Size)}
		}
		if it.Col < 0 || it.Row < 0 {
			return nil, badRequestError{fmt.Errorf("bad col/row %d/%d", it.Col, it.Row)}
		}
		design := it.Design
		if design == "" {
			design = "spatial"
		}
		return s.serveTile(ctx, pl, design, codec, it.Size, geom.TileID{Col: it.Col, Row: it.Row}, localOnly)
	case "dbox":
		box := it.Box()
		if !box.Valid() {
			return nil, badRequestError{fmt.Errorf("invalid box %+v", box)}
		}
		return s.serveBox(ctx, pl, codec, box, localOnly)
	}
	return nil, badRequestError{fmt.Errorf("unknown item kind %q", it.Kind)}
}

// batchEnvelope is the union of the v1 and v2/v3 request shapes, so one
// JSON parse serves both the version dispatch and the request itself.
type batchEnvelope struct {
	V      int         `json:"v"`
	Canvas string      `json:"canvas"`
	Codec  Codec       `json:"codec,omitempty"`
	Comp   string      `json:"comp,omitempty"`
	Layer  int         `json:"layer"`
	Size   float64     `json:"size"`
	Design string      `json:"design,omitempty"`
	Tiles  []TileRef   `json:"tiles"`
	Items  []BatchItem `json:"items"`
}

// decodeBatchBody reads one /batch POST body and dispatches on the
// protocol version: absent or zero "v" is a v1 tiles-only request,
// v=2 and v=3 are the framed-stream protocols. Exactly one of the
// returns is non-nil on success.
func decodeBatchBody(w http.ResponseWriter, r *http.Request) (*BatchRequest, *BatchRequestV2, error) {
	// A valid request is a few KB (MaxBatchItems refs plus header
	// fields); cap the body so an oversized request is rejected while
	// decoding instead of allocated in full first.
	var env batchEnvelope
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&env); err != nil {
		return nil, nil, err
	}
	switch env.V {
	case 0, 1:
		// Protocol v1: the buffered JSON envelope. An explicit "v":1
		// means the same thing as the historical version-less body.
		return &BatchRequest{
			Canvas: env.Canvas, Layer: env.Layer, Size: env.Size,
			Design: env.Design, Codec: env.Codec, Tiles: env.Tiles,
		}, nil, nil
	case BatchV2Version, BatchV3Version:
		return nil, &BatchRequestV2{
			V: env.V, Canvas: env.Canvas, Codec: env.Codec,
			Comp: env.Comp, Items: env.Items,
		}, nil
	}
	return nil, nil, fmt.Errorf("unsupported batch protocol v%d", env.V)
}
