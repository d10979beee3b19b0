package frontend

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"time"

	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/server"
	"kyrix/internal/storage"
	"kyrix/internal/wire"
)

// frameResult is one decoded OK frame, ready to merge into client
// state: the (possibly delta-reconstructed) columns, byte accounting,
// and the payload identity future delta fetches can declare as their
// base.
type frameResult struct {
	data *server.Columns
	// rawN is the full-payload equivalent size — what a raw frame would
	// have carried (wire-side byte accounting is handled by the round
	// trip's countingReader, not per frame).
	rawN int64
	// boxID identifies the full payload these rows correspond to
	// (wire.PayloadID); zero for tile frames, which never delta.
	boxID uint64
}

// batchSub is one planned sub-request of a /batch round trip and how to
// fold its decoded result into client state. merge runs as each frame
// arrives, so layers land incrementally.
type batchSub struct {
	item server.BatchItem
	// base is the box state item.Base was declared from: the delta
	// base the client guarantees it holds until this batch completes.
	base  *boxState
	merge func(fr frameResult)
}

// declareBase offers a layer's held box as the delta base for a dbox
// sub-request when the client has one worth declaring.
func declareBase(sub *batchSub, st *boxState) {
	if st == nil || st.data == nil || st.wireID == 0 || !st.box.Valid() {
		return
	}
	sub.base = st
	sub.item.Base = &server.BaseRef{
		MinX: st.box.MinX, MinY: st.box.MinY,
		MaxX: st.box.MaxX, MaxY: st.box.MaxY,
		ID: strconv.FormatUint(st.wireID, 16),
	}
}

// tileSubs plans one tile sub-request per missing tile; each result
// lands in the frontend cache. observe controls density bookkeeping:
// viewport fetches record it, prefetches of predicted (never-viewed)
// regions do not.
func (c *Client) tileSubs(li int, sz float64, missing []geom.TileID, observe bool) []batchSub {
	subs := make([]batchSub, len(missing))
	for i, tid := range missing {
		tid := tid
		subs[i] = batchSub{
			item: server.BatchItem{
				Kind: "tile", Layer: li, Size: sz,
				Design: c.opts.Scheme.Design, Col: tid.Col, Row: tid.Row,
			},
			merge: func(fr frameResult) {
				c.fcache.Put(c.tileCacheKey(li, sz, tid), fr.data, fr.rawN)
				if observe {
					c.observeDensity(li, tid.TileRect(sz), fr.data.N)
				}
			},
		}
	}
	return subs
}

// dboxSub plans one dynamic-box sub-request whose result becomes the
// layer's current box. The layer's held box, if any, is declared as
// the delta base so the server can ship only the rows entering the
// new box.
func (c *Client) dboxSub(li int, box geom.Rect) batchSub {
	sub := batchSub{
		item: server.BatchItem{
			Kind: "dbox", Layer: li,
			MinX: box.MinX, MinY: box.MinY, MaxX: box.MaxX, MaxY: box.MaxY,
		},
		merge: func(fr frameResult) {
			prev := c.boxes[li]
			st := &boxState{box: box, data: fr.data, wireID: fr.boxID}
			if prev != nil {
				st.prefetched = prev.prefetched
			}
			c.boxes[li] = st
			c.observeDensity(li, box, fr.data.N)
		},
	}
	declareBase(&sub, c.boxes[li])
	return sub
}

// runBatch issues the sub-requests as /batch round trips, split into
// MaxBatchItems-sized chunks that run one after another. A failed chunk
// does not stop the rest; the first error is returned. Every OK frame's
// rows and logical bytes are counted on rep before its merge runs.
func (c *Client) runBatch(subs []batchSub, rep *FetchReport, start time.Time) error {
	var firstErr error
	for len(subs) > 0 {
		n := min(len(subs), server.MaxBatchItems)
		if err := c.postBatch(subs[:n], rep, start); err != nil && firstErr == nil {
			firstErr = err
		}
		subs = subs[n:]
	}
	return firstErr
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

// postBatch issues one /batch round trip and merges each decoded frame
// as it arrives. Per-frame errors do not abort the stream: sibling
// frames still merge, and the first frame error is returned after the
// stream is drained.
func (c *Client) postBatch(subs []batchSub, rep *FetchReport, start time.Time) error {
	req := server.BatchRequestV2{
		V:      wire.V3,
		Canvas: c.canvas.ID,
		Codec:  c.opts.Codec,
		Items:  make([]server.BatchItem, len(subs)),
	}
	for i := range subs {
		req.Items[i] = subs[i].item
	}
	body, err := jsonMarshal(req)
	if err != nil {
		return fmt.Errorf("frontend: encode batch: %w", err)
	}
	hreq, err := http.NewRequest(http.MethodPost, c.base+"/batch", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("frontend: batch: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Stitch the server's http.batch span under the client's interaction
	// trace (no-op without an active span).
	obs.InjectHeader(c.ictx, hreq.Header)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("frontend: batch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != server.BatchV3ContentType {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("frontend: batch: %s: %s", resp.Status, msg)
	}
	rep.Requests++
	cr := &countingReader{r: resp.Body}
	br := bufio.NewReader(cr)
	_, nframes, err := wire.ReadHeader(br)
	if err != nil {
		return err
	}
	if nframes != len(subs) {
		return fmt.Errorf("frontend: batch advertises %d frames, asked %d", nframes, len(subs))
	}
	seen := make([]bool, nframes)
	var firstErr error
	addWire := func() { rep.WireBytes += cr.n }
	for i := 0; i < nframes; i++ {
		f, err := wire.ReadFrame(br, wire.V3)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("frontend: batch stream truncated after %d/%d frames", i, nframes)
			}
			addWire()
			return err
		}
		if f.Index < 0 || f.Index >= nframes || seen[f.Index] {
			addWire()
			return fmt.Errorf("frontend: batch bogus frame index %d", f.Index)
		}
		seen[f.Index] = true
		if rep.FirstFrame == 0 {
			rep.FirstFrame = time.Since(start)
		}
		if f.Status != server.FrameOK {
			if firstErr == nil {
				firstErr = fmt.Errorf("frontend: batch item %d: %s", f.Index, f.Payload)
			}
			continue
		}
		sub := &subs[f.Index]
		fr, err := c.decodeFrame(sub, f)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rep.Rows += fr.data.N
		rep.Bytes += fr.rawN
		sub.merge(fr)
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
// declared base, or decode a raw payload directly. An inflated payload
// is decoded in the inflater's pooled buffer, never copied: everything
// the result keeps — columns, delta tombstones, the payload id — is
// copied or computed out of it.
func (c *Client) decodeFrame(sub *batchSub, f wire.Frame) (fr frameResult, err error) {
	if !f.Codec.Compressed() {
		return c.decodePayload(sub, f, f.Payload)
	}
	ierr := wire.Inflate(f.Payload, wire.MaxFramePayload, func(payload []byte) error {
		fr, err = c.decodePayload(sub, f, payload)
		return nil
	})
	if ierr != nil {
		return fr, fmt.Errorf("frontend: batch item %d: %w", f.Index, ierr)
	}
	return fr, err
}

// decodePayload is decodeFrame past the inflate: payload is the frame's
// payload as the server wrote it, a delta or a full payload.
func (c *Client) decodePayload(sub *batchSub, f wire.Frame, payload []byte) (frameResult, error) {
	var fr frameResult
	if f.Codec.IsDelta() {
		if sub.base == nil {
			return fr, fmt.Errorf("frontend: batch item %d: delta frame for a sub-request that declared no base", f.Index)
		}
		d, err := wire.DecodeDelta(payload)
		if err != nil {
			return fr, fmt.Errorf("frontend: batch item %d: %w", f.Index, err)
		}
		entering, err := server.DecodeColumns(d.Entering, c.opts.Codec)
		if err != nil {
			return fr, fmt.Errorf("frontend: batch item %d entering rows: %w", f.Index, err)
		}
		data, err := applyDelta(sub.base.data, d, entering)
		if err != nil {
			return fr, fmt.Errorf("frontend: batch item %d: %w", f.Index, err)
		}
		fr.data, fr.rawN, fr.boxID = data, int64(d.FullLen), d.NewID
		return fr, nil
	}
	data, err := server.DecodeColumns(payload, c.opts.Codec)
	if err != nil {
		return fr, err
	}
	fr.data, fr.rawN = data, int64(len(payload))
	if sub.item.Kind == "dbox" {
		// The payload identity becomes the delta base id of the next
		// fetch of this layer.
		fr.boxID = wire.PayloadID(payload)
	}
	return fr, nil
}

// applyDelta reconstructs a full box from the base the client holds
// plus the server's delta: the base rows whose id is not tombstoned,
// then the entering rows — exactly the row set of the full payload the
// server diffed against (rows are keyed by their integer first column,
// the same identity the renderer deduplicates on). It runs a column at
// a time: a keep list from the tombstones over the base's id column,
// then per column a gather of the kept base values and an append of the
// entering ones. The base is not modified.
func applyDelta(base *server.Columns, d wire.Delta, entering *server.Columns) (*server.Columns, error) {
	if base == nil {
		return nil, errors.New("delta frame but no base rows held")
	}
	keep := keptRows(base, d.Tombstones)
	cols, types := entering.Cols, entering.Types
	switch {
	case entering.N == 0:
		// An empty entering payload may carry fallback column types; the
		// surviving rows are all base rows, so keep the base schema.
		cols, types = base.Cols, base.Types
	case len(keep) > 0 && !slices.Equal(base.Types, entering.Types):
		return nil, fmt.Errorf("delta entering rows have column types %v, the held box %v", entering.Types, base.Types)
	}
	out := server.NewColumns(cols, types, len(keep)+entering.N)
	for c, t := range types {
		dst := &out.Data[c]
		var from, add server.Column
		if len(keep) > 0 {
			from = base.Data[c]
		}
		if entering.N > 0 {
			add = entering.Data[c]
		}
		switch t {
		case storage.TInt64:
			copy(dst.Ints[gather(dst.Ints, from.Ints, keep):], add.Ints)
		case storage.TFloat64:
			copy(dst.Floats[gather(dst.Floats, from.Floats, keep):], add.Floats)
		case storage.TBool:
			copy(dst.Bools[gather(dst.Bools, from.Bools, keep):], add.Bools)
		case storage.TString:
			dst.Offs[0] = uint32(len(out.Text))
			for k, r := range keep {
				out.Text = append(out.Text, base.Text[from.Offs[r]:from.Offs[r+1]]...)
				dst.Offs[k+1] = uint32(len(out.Text))
			}
			for i := range entering.N {
				out.Text = append(out.Text, entering.Text[add.Offs[i]:add.Offs[i+1]]...)
				dst.Offs[len(keep)+i+1] = uint32(len(out.Text))
			}
		}
	}
	return out, nil
}

// keptRows lists, in order, the base rows whose id (first column, read
// as storage.Value.AsInt reads it) is not tombstoned. A base without
// columns has no ids, so none of its rows survive.
func keptRows(base *server.Columns, tombstones []int64) []int32 {
	if len(base.Types) == 0 {
		return nil
	}
	tomb := newIDSet(tombstones)
	keep := make([]int32, 0, base.N)
	for i := range base.N {
		if !tomb.has(base.Int(0, i)) {
			keep = append(keep, int32(i))
		}
	}
	return keep
}

// idSet is the tombstone set of one delta: open addressing with linear
// probing in a table at most half full, so a lookup is a multiply and
// usually one probe.
type idSet struct {
	slots []idSlot
	shift uint
}

type idSlot struct {
	id   int64
	used bool
}

func newIDSet(ids []int64) idSet {
	n := bits.Len(uint(2*len(ids)) | 7)
	s := idSet{slots: make([]idSlot, 1<<n), shift: uint(64 - n)}
	for _, id := range ids {
		i := s.home(id)
		for s.slots[i].used && s.slots[i].id != id {
			i = (i + 1) & (len(s.slots) - 1)
		}
		s.slots[i] = idSlot{id: id, used: true}
	}
	return s
}

// home is id's first slot: the top bits of a Fibonacci hash.
func (s idSet) home(id int64) int { return int(uint64(id) * 0x9E3779B97F4A7C15 >> s.shift) }

func (s idSet) has(id int64) bool {
	for i := s.home(id); s.slots[i].used; i = (i + 1) & (len(s.slots) - 1) {
		if s.slots[i].id == id {
			return true
		}
	}
	return false
}

// gather writes src's values at the keep positions to the front of dst
// and returns how many it wrote.
func gather[T any](dst, src []T, keep []int32) int {
	for k, r := range keep {
		dst[k] = src[r]
	}
	return len(keep)
}

// PrefetchBoxes fetches one box for several layers ahead of need and
// parks it in each layer's prefetch slot (momentum-based prefetching,
// §4), in a single /batch round trip. Each layer's current box
// is declared as the delta base, so a momentum prefetch one viewport
// ahead ships mostly as entering rows. Like every prefetch it does not
// count toward interaction reports.
func (c *Client) PrefetchBoxes(layers []int, box geom.Rect) error {
	var subs []batchSub
	for _, li := range layers {
		li := li
		lm := &c.canvas.Layers[li]
		if !lm.HasData || lm.Static {
			continue
		}
		sub := batchSub{
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
				st.prefetched = &boxState{box: box, data: fr.data, wireID: fr.boxID}
			},
		}
		declareBase(&sub, c.boxes[li])
		subs = append(subs, sub)
	}
	var rep FetchReport // prefetches do not count toward interaction reports
	return c.runBatch(subs, &rep, time.Now())
}
