package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"kyrix/internal/geom"
)

// handleBatchDispatch routes POST /batch to the v1 buffered-JSON
// handler or the v2 framed-stream handler (batchv2.go) on the body's
// protocol version.
func (s *Server) handleBatchDispatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	v1, v2, err := decodeBatchBody(w, r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
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
	if v2 != nil {
		sp.Attr("proto", v2.V)
		sp.Attr("items", len(v2.Items))
		s.handleBatchV2(ctx, w, v2)
		return
	}
	sp.Attr("proto", 1)
	sp.Attr("items", len(v1.Tiles))
	s.handleBatch(ctx, w, v1)
}

// MaxBatchTiles bounds one /batch request; the frontend splits larger
// fetches into multiple round trips (see frontend fetchTileBatches).
const MaxBatchTiles = 256

// TileRef addresses one tile within a batch request.
type TileRef struct {
	Col int `json:"col"`
	Row int `json:"row"`
}

// BatchRequest is the POST /batch body: many tiles of one layer
// fetched in a single round trip. Design and Codec default to
// "spatial" and JSON.
type BatchRequest struct {
	Canvas string    `json:"canvas"`
	Layer  int       `json:"layer"`
	Size   float64   `json:"size"`
	Design string    `json:"design,omitempty"`
	Codec  Codec     `json:"codec,omitempty"`
	Tiles  []TileRef `json:"tiles"`
}

// BatchTile is one tile's result inside a BatchResponse. Data is the
// tile payload encoded with the request codec (base64 inside the JSON
// envelope); Err is set instead when that tile failed.
type BatchTile struct {
	Col  int    `json:"col"`
	Row  int    `json:"row"`
	Data []byte `json:"data,omitempty"`
	Err  string `json:"err,omitempty"`
}

// BatchResponse is the POST /batch reply, tiles in request order.
type BatchResponse struct {
	Tiles []BatchTile `json:"tiles"`
}

// handleBatch answers many tile requests in one round trip (protocol
// v1: buffered JSON envelope, base64 payloads). Tiles are served
// concurrently under a bounded worker pool; each goes through the same
// cache + coalescing path as a single /tile request, so a batch
// overlapping another client's requests still runs each query once.
func (s *Server) handleBatch(ctx context.Context, w http.ResponseWriter, req *BatchRequest) {
	if len(req.Tiles) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if len(req.Tiles) > MaxBatchTiles {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Tiles), MaxBatchTiles), http.StatusBadRequest)
		return
	}
	if req.Size <= 0 {
		http.Error(w, "bad size", http.StatusBadRequest)
		return
	}
	pl, ok := s.Layer(req.Canvas, req.Layer)
	if !ok || pl.Table == "" {
		http.Error(w, fmt.Sprintf("no data layer %s/%d", req.Canvas, req.Layer), http.StatusBadRequest)
		return
	}
	design := req.Design
	if design == "" {
		design = "spatial"
	}
	if design != "spatial" && design != "mapping" {
		// Request-level mistake: fail the batch like GET /tile would,
		// instead of fanning out N identical per-tile errors.
		http.Error(w, fmt.Sprintf("unknown design %q", design), http.StatusBadRequest)
		return
	}
	codec := req.Codec
	if codec == "" {
		codec = CodecJSON
	}
	if codec != CodecJSON && codec != CodecBinary {
		// Also request-level: without this every tile would run its
		// query and then fail to encode.
		http.Error(w, fmt.Sprintf("unknown codec %q", codec), http.StatusBadRequest)
		return
	}

	s.Stats.BatchRequests.Add(1)
	s.Stats.TileRequests.Add(int64(len(req.Tiles)))

	workers := s.opts.BatchConcurrency
	if workers <= 0 {
		// Automatic bound: scale with cores (tile queries are CPU-bound
		// in the embedded DB), floored so small machines still overlap
		// cache hits with query work.
		workers = runtime.GOMAXPROCS(0)
		if workers < 8 {
			workers = 8
		}
	}
	if workers > len(req.Tiles) {
		workers = len(req.Tiles)
	}
	out := BatchResponse{Tiles: make([]BatchTile, len(req.Tiles))}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, ref := range req.Tiles {
		bt := &out.Tiles[i]
		bt.Col, bt.Row = ref.Col, ref.Row
		if ref.Col < 0 || ref.Row < 0 {
			bt.Err = "bad col/row"
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(ref TileRef, bt *BatchTile) {
			defer func() { <-sem; wg.Done() }()
			// net/http's panic recovery only covers the connection
			// goroutine; a panic here would kill the whole process.
			// Contain it as a per-tile error instead.
			defer func() {
				if r := recover(); r != nil {
					bt.Err = fmt.Sprintf("internal: %v", r)
				}
			}()
			ictx, isp := s.tracer().Start(ctx, "item")
			isp.Attr("kind", "tile")
			itemStart := time.Now()
			p, err := s.serveTile(ictx, pl, design, codec, req.Size, geom.TileID{Col: ref.Col, Row: ref.Row}, false)
			s.obs.stageItem.Observe(time.Since(itemStart))
			isp.End()
			if err != nil {
				bt.Err = err.Error()
				return
			}
			bt.Data = p.raw
		}(ref, bt)
	}
	wg.Wait()

	data, err := json.Marshal(&out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Count raw payload bytes like /tile and /dbox do, not the
	// base64-inflated JSON envelope, so batched and unbatched serving
	// report comparable bytesServed.
	var payloadBytes int64
	for i := range out.Tiles {
		payloadBytes += int64(len(out.Tiles[i].Data))
	}
	s.Stats.BytesServed.Add(payloadBytes)
	_, _ = w.Write(data)
}
