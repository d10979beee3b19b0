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
	"kyrix/internal/storage"
)

// Clustered serving: this file is the server half of internal/cluster.
// POST /peer is the owner-side fill endpoint (a peer's cache miss
// lands here and is served through the normal cache + singleflight
// path), and peerQuery is the requester-side routing for misses on
// keys another node owns.

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

// peerQuery fills a locally missed key this node does not own: forward
// to the owner, falling back to a local database query when the peer
// is unreachable — a peer problem degrades the cluster to independent
// nodes, never to an outage. Concurrent identical misses coalesce onto
// one peer exchange (and, at the owner, onto one generation-scoped
// flight), so one database query serves the whole cluster per key per
// generation.
//
// A fill is accepted only from an owner at or past gen, this node's data
// version before the hop: an owner behind an update this node applied
// (and perhaps acked) hands back pre-update rows that no later sweep
// here would remove. Such a reply is queried locally, like a failed peer.
//
// Peer-filled payloads are admitted into the local cache only when the
// key's sketch frequency has crossed the HotReplicate threshold —
// cluster-hot keys become locally resident everywhere instead of
// bottlenecking their owner, while the long tail stays owner-only and
// the cluster's aggregate cache capacity scales with node count. With
// admission off (no sketch) every fill replicates, the plain
// groupcache behavior.
func (s *Server) peerQuery(ctx context.Context, key string, fr *cluster.FillRequest, sql string, args []storage.Value) (*payload, error) {
	gen := s.cacheGen.Load()
	l2fence := s.l2Fence()
	owner := s.cluster.Owner(key)
	fill := func() (any, error) {
		// Double-check like cachedQuery: a previous flight (or a hot
		// replication) may have populated the cache while queuing.
		if data, ok := s.bcache.Peek(key); ok {
			s.Stats.CacheHits.Add(1)
			return data.(*payload), nil
		}
		// The local persistent tier answers before the peer hop: a
		// payload this node once fetched (or served) survives in L2
		// across restarts, and a checksum-verified local disk read
		// beats a network exchange. L1 admission for non-owned keys
		// stays behind the hot-replicate gate, same as a peer fill.
		if raw, ok := s.l2ReadTraced(ctx, key); ok {
			p := newPayload(raw)
			if hr := s.cluster.HotReplicate(); hr >= 0 {
				if f := s.bcache.EstimateFreq(key); f < 0 || f >= hr {
					s.putUnlessStale(gen, key, p)
				}
			}
			return p, nil
		}
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
		if err == nil {
			// Peer fills populate L2 unconditionally: the hot-replicate
			// gate protects L1's scarce memory, while the persistent
			// tier exists precisely to keep refetchable bytes off the
			// network after a restart.
			p := newPayload(raw)
			s.l2Fill(l2fence, key, raw)
			if hr := s.cluster.HotReplicate(); hr >= 0 {
				if f := s.bcache.EstimateFreq(key); f < 0 || f >= hr {
					s.putUnlessStale(gen, key, p)
					// Count replicas actually resident after the Put —
					// the generation re-check or the cache's own
					// admission gate may have declined the store.
					if s.bcache.Contains(key) {
						s.cluster.Stats.HotReplicas.Add(1)
					}
				}
			}
			return p, nil
		}
		if !behind {
			s.cluster.Stats.LocalFallbacks.Add(1)
		}
		p, qerr := s.runQuery(ctx, sql, args)
		if qerr != nil {
			return nil, qerr
		}
		s.putUnlessStale(gen, key, p)
		s.l2Fill(l2fence, key, p.raw)
		return p, nil
	}
	v, err, dup := s.flight.Do(flightKey(gen, key), fill)
	if err != nil {
		return nil, err
	}
	if dup {
		s.Stats.CoalescedHits.Add(1)
	}
	return v.(*payload), nil
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
