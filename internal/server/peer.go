package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"kyrix/internal/cluster"
	"kyrix/internal/obs"
)

// Clustered serving: this file is the server half of internal/cluster.
// POST /peer is the owner-side fill endpoint: a peer's cache miss lands
// here and is served through serveItem like any other item. On the
// requester side, fill's owner hop (fetchOwner) answers a miss on a key
// another node owns, after L1 and L2 and before a local query.

// Cluster exposes this node's cluster membership (nil when serving
// standalone); experiment harnesses read its stats.
func (s *Server) Cluster() *cluster.Node { return s.cluster }

// handlePeer serves one fill request from another cluster node. The
// item is served strictly locally (localOnly) — if the requester's
// ring disagrees with ours about ownership, the worst case is a query
// on the wrong node, never a forwarding loop. The reply carries cacheGen
// as its data version, read under the update fence before serving: every
// update it counts is already swept from both tiers.
func (s *Server) handlePeer(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		http.Error(w, "not a cluster node", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var fr cluster.FillRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&fr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.cluster.Stats.PeerServes.Add(1)
	s.updateMu.RLock()
	version := s.cacheGen.Load()
	s.updateMu.RUnlock()

	if fr.Codec != keySpace {
		err := fmt.Errorf("unknown payload layout %q", fr.Codec)
		_ = cluster.WritePeerResponse(w, &version, cluster.FrameKindOf(fr.Kind), nil, err, true)
		return
	}
	it := BatchItem{
		Kind: fr.Kind, Layer: fr.Layer, Size: fr.Size, Design: fr.Design,
		Col: fr.Col, Row: fr.Row,
		MinX: fr.MinX, MinY: fr.MinY, MaxX: fr.MaxX, MaxY: fr.MaxY,
	}
	// The requester's trace header (injected by the transport) makes
	// this span part of the REQUESTER's trace: same trace ID, parented
	// under its peer.fetch span. The finished subtree rides back on the
	// response's spans header, where fetchOnce grafts it — one stitched
	// trace covers the whole cross-node fill.
	ctx, sp := s.startRequestSpan(r, "peer.serve")
	sp.Attr("kind", fr.Kind)
	srvStart := time.Now()
	p, err := s.serveItem(ctx, fr.Canvas, it, true)
	s.obs.stagePeerSrv.Observe(time.Since(srvStart))
	sp.End()
	if v := obs.EncodeSpansHeader(sp.Data()); v != "" {
		w.Header().Set(obs.SpansHeader, v)
	}
	var raw []byte
	if err == nil {
		raw = p.raw
	}
	badReq := err != nil && httpStatusOf(err) == http.StatusBadRequest
	_ = cluster.WritePeerResponse(w, &version, cluster.FrameKindOf(fr.Kind), raw, err, badReq)
}

// fillRequest is the /peer body asking key's owner for a checked item's
// payload, the inverse of handlePeer's copy into a BatchItem: a tile
// carries its design and grid address, a box its bounds.
func fillRequest(canvas, key string, it BatchItem) *cluster.FillRequest {
	fr := &cluster.FillRequest{Key: key, Canvas: canvas, Layer: it.Layer, Kind: it.Kind, Codec: keySpace}
	if it.Kind == "dbox" {
		fr.MinX, fr.MinY, fr.MaxX, fr.MaxY = it.MinX, it.MinY, it.MaxX, it.MaxY
	} else {
		fr.Design, fr.Size, fr.Col, fr.Row = it.Design, it.Size, it.Col, it.Row
	}
	return fr
}

// fetchOwner is fill's owner hop for a key this node does not own. It
// returns nil when the owner failed or was behind, and fill then
// queries locally: a peer problem degrades the cluster to independent
// nodes, never to an outage.
//
// A fill is accepted only from an owner at or past gen, this node's data
// version before the hop: an owner behind an update this node applied
// (and perhaps acked) hands back pre-update rows that no later sweep
// here would remove.
//
// An accepted fill populates L2 unconditionally — the hot-replicate gate
// protects L1's scarce memory, while the persistent tier exists
// precisely to keep refetchable bytes off the network after a restart —
// and L1 through admit's gate for non-owned keys.
func (s *Server) fetchOwner(ctx context.Context, gen int64, l2fence uint64, fr *cluster.FillRequest) *payload {
	owner := s.cluster.Owner(fr.Key)
	fctx, fsp := s.tracer().Start(ctx, "peer.fetch")
	fsp.Attr("owner", owner)
	fetchStart := time.Now()
	raw, ownerGen, err := s.cluster.FetchContext(fctx, owner, fr, gen)
	s.obs.stagePeer.Observe(time.Since(fetchStart))
	behind := errors.Is(err, cluster.ErrBehind)
	fsp.Attr("ownerGen", ownerGen)
	fsp.Attr("behind", behind)
	if err != nil {
		fsp.Attr("err", err.Error())
	}
	fsp.End()
	if err != nil {
		if !behind {
			s.cluster.Stats.LocalFallbacks.Add(1)
		}
		return nil
	}
	p := newPayload(raw)
	s.l2Fill(l2fence, fr.Key, raw)
	// Count replicas actually resident after the Put — the generation
	// re-check or the cache's own admission gate may have declined the
	// store.
	if s.admit(gen, fr.Key, p, false) && s.bcache.Contains(fr.Key) {
		s.cluster.Stats.HotReplicas.Add(1)
	}
	return p
}

// ownsDBox reports whether this node serves the item's dynamic box
// itself (always true when standalone). The v3 batch path uses it to
// decide whether delta encoding is safe: a non-owned item's payload
// may come from a peer at a newer data version than the base was
// planned against, outside this node's update fence, and the delta
// diff is id-based and content-blind — such a delta could skip changed
// rows, so non-owned items always ship full frames.
func (s *Server) ownsDBox(canvas string, it BatchItem) bool {
	if s.cluster == nil {
		return true
	}
	pl, ok := s.Layer(canvas, it.Layer)
	if !ok || pl.Table == "" {
		return true // the error path is local either way
	}
	box := it.Box()
	if !box.Valid() {
		return true
	}
	return s.cluster.Owns(boxCacheKey(pl, box))
}
