package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/geom"
	"kyrix/internal/obs"
	"kyrix/internal/replog"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
)

// The update path (§4: MGH "wants an update model for Kyrix so they can
// edit and tag relevant data"; the paper defers caching under updates,
// so everything below the handler is this reproduction's extension).
//
// An update costs what it touches. The statement runs through an id
// index (built when the first update arrives, see ensureIDIndexes) and
// reports the old and new image of every row it changed; each image is
// mapped to its canvas rectangle in every layer the table backs; and
// only the cached windows those rectangles intersect are removed — L1
// entries by a key sweep, L2 records by durable tombstones. One function
// does that (invalidate), reached from one place: execUpdate.
//
// The invariant: every invalidate is driven by a log apply, except
// standalone. With a replicated log (required in a cluster) a node
// changes data only in applyUpdate, in log order, so every member
// removes the same rectangles at the same log position, and cacheGen,
// which counts those transitions, is one data version: equal on every
// member at equal applied index. A peer fill carries the owner's, and a
// requester refuses one older than its own (fetchOwner). Standalone
// without a log, /update calls execUpdate directly: a log of one.
//
// What stays global is the fence, because it is what makes in-flight
// work safe and it costs nothing: cacheGen moves on every update (a
// query that started before it is never stored, and flights never mix
// generations), the L2 write-behind fence moves with it, and updateMu
// brackets the whole transition so a v3 delta plan is wholly before or
// wholly after it. A delta base that survives the sweep holds none of
// the changed rows — its window touches none of their rectangles — so
// the id diff against it is still exact; one that was removed degrades
// the frame to a full one by payload id, as before.
//
// The whole-tier Clear + Bump is the fallback for whatever cannot be
// scoped: DDL, a table that is no layer's data table (its effect on what
// is cached is unknown), and more touched rows than maxScopedRows. A
// cached key KeyWindow cannot parse is swept as touched.
//
// Known limits, all inherited: LOD pyramid levels and tuple–tile mapping
// tables are built once and not maintained under updates, so a cached
// aggregate or mapping tile equals a fresh query, not the edited rows
// (and every mapping tile of an edited layer is swept, see touches); and
// replaying the log at restart re-runs every historical statement, so it
// re-invalidates by every historical rectangle.

// maxScopedRows bounds how many touched rows one update maps to
// rectangles before it drops both tiers whole. The sweep costs resident
// keys × rectangles, and a statement past a few hundred rows is a bulk
// edit whose footprint approaches the canvas anyway.
const maxScopedRows = 256

// maxUpdateBody bounds one /update body and the log command made from
// it. An edit or a tag is a few hundred bytes; the bound keeps any one
// command well inside a replicated-log append (its base64 form under the
// log's RPC body limit), so a follower can always receive it.
const maxUpdateBody = 1 << 20

// UpdateRequest is the §4 update-model request. ID, when set, is a
// client-chosen idempotency key (unique per logical update): on the
// replicated path the log dedupes submissions sharing it, so a client
// that got an ambiguous 503 can re-POST the same body without
// double-applying a non-idempotent statement.
type UpdateRequest struct {
	ID   string     `json:"id,omitempty"`
	SQL  string     `json:"sql"`
	Args []ArgValue `json:"args,omitempty"`
}

// ArgValue is a wire-encoded storage.Value.
type ArgValue struct {
	Kind storage.ColType `json:"k"`
	I    int64           `json:"i,omitempty"`
	F    float64         `json:"f,omitempty"`
	S    string          `json:"s,omitempty"`
	B    bool            `json:"b,omitempty"`
}

// Value converts to a storage.Value.
func (a ArgValue) Value() storage.Value {
	return storage.Value{Kind: a.Kind, I: a.I, F: a.F, S: a.S, B: a.B}
}

func (r *UpdateRequest) values() []storage.Value {
	args := make([]storage.Value, len(r.Args))
	for i, a := range r.Args {
		args[i] = a.Value()
	}
	return args
}

// invalidation is what one update transition did to the caches. It
// travels back to the /update handler, whose span reports it.
type invalidation struct {
	rows, rects int
	// scope is "rows" for a scoped removal, "full:<reason>" for the
	// whole-tier fallback.
	scope                string
	l1Removed, l2Removed int
	indexBuilt           bool
}

func (inv invalidation) annotate(sp *obs.Span) {
	sp.Attr("rows", inv.rows)
	sp.Attr("rects", inv.rects)
	sp.Attr("scope", inv.scope)
	sp.Attr("l1.removed", inv.l1Removed)
	sp.Attr("l2.removed", inv.l2Removed)
	sp.Attr("indexBuilt", inv.indexBuilt)
}

// applied is one log command's outcome, parked for the handler that
// submitted it.
type applied struct {
	n   int64
	inv invalidation
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req UpdateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		if big := new(http.MaxBytesError); errors.As(err, &big) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	ctx, sp := s.startRequestSpan(r, "http.update")
	sp.Attr("replicated", s.replog != nil)
	updStart := time.Now()
	defer func() {
		s.obs.stageUpdate.Observe(time.Since(updStart))
		sp.End()
	}()
	var out applied
	if s.replog != nil {
		// Replicated path: the update becomes a quorum-committed log
		// command. Submit returns once the command is committed AND
		// applied on this node (read-your-writes for this client),
		// whichever node leads; applyUpdate did the actual work.
		cmd, err := json.Marshal(&req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(cmd) > maxUpdateBody {
			// Re-encoding can grow a body (HTML and invalid UTF-8 are
			// escaped); the log takes no command past the bound.
			http.Error(w, "update command exceeds 1 MiB", http.StatusRequestEntityTooLarge)
			return
		}
		var idx uint64
		if req.ID != "" {
			idx, err = s.replog.SubmitWithID(ctx, "c/"+req.ID, cmd)
		} else {
			idx, err = s.replog.Submit(ctx, cmd)
		}
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, replog.ErrNoLeader) || errors.Is(err, replog.ErrClosed) ||
				errors.Is(err, replog.ErrNotDurable) ||
				errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				// Not committed — or not KNOWN committed: the update may
				// have reached the log before the error. A retry is
				// exactly-once only when the request carries an id for
				// the log to dedupe on; without one, retrying a
				// non-idempotent statement risks applying it twice.
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		// A deduped retry lands on the original index, whose outcome may
		// already have been claimed (or pruned) — it then reports 0, but
		// the mutation itself happened exactly once.
		s.applyMu.Lock()
		out = s.applyOutcome[idx]
		delete(s.applyOutcome, idx)
		s.applyMu.Unlock()
		out.inv.annotate(sp)
	} else {
		var err error
		out.n, out.inv, err = s.execUpdate(req.SQL, req.values())
		out.inv.annotate(sp)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	s.Stats.Updates.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]int64{"affected": out.n})
}

// applyUpdate is the replicated log's state-machine callback: one
// committed update command, applied in log order on every member. The
// outcome is parked for the handler that submitted the command; entries
// for commands submitted elsewhere (or replayed on restart) are pruned
// by bound.
func (s *Server) applyUpdate(index uint64, cmd []byte) error {
	var req UpdateRequest
	if err := json.Unmarshal(cmd, &req); err != nil {
		return fmt.Errorf("server: decode update command %d: %w", index, err)
	}
	n, inv, err := s.execUpdate(req.SQL, req.values())
	if err != nil {
		return err
	}
	s.applyMu.Lock()
	s.applyOutcome[index] = applied{n: n, inv: inv}
	if len(s.applyOutcome) > 1024 {
		for k := range s.applyOutcome {
			if k+1024 < index {
				delete(s.applyOutcome, k)
			}
		}
	}
	s.applyMu.Unlock()
	return nil
}

// execUpdate runs one statement and removes what it made stale, as one
// transition under the update fence's write lock: in-flight delta plans
// drain first, later ones see both the new rows and the swept cache. A
// statement that fails part-way has still changed the rows before the
// failure (sqldb statements are not atomic): it is invalidated like a
// success, then the error is returned.
func (s *Server) execUpdate(sql string, args []storage.Value) (int64, invalidation, error) {
	// Before the lock: the build scans each layer table once, and readers
	// of other tables need not wait for it.
	built := s.ensureIDIndexes()
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	n, ch, err := s.db.ExecChanges(maxScopedRows, sql, args...)
	if err != nil && !ch.Touched() {
		return 0, invalidation{indexBuilt: built}, err
	}
	inv, ierr := s.invalidate(s.footprintOf(&ch))
	inv.indexBuilt = built
	if err == nil {
		err = ierr
	}
	if err != nil {
		return 0, inv, err
	}
	return n, inv, nil
}

// ensureIDIndexes gives every layer table a B-tree on its id column the
// first time an update arrives, so `WHERE id = ?` — the shape of an edit
// or a tag — is a probe instead of a scan of the table. Not at start-up:
// a server that never sees an update (most of them) would pay a second
// pass over every heap and hold 16 B per row for nothing. A table whose
// id column cannot be indexed (not INT) keeps scanning.
func (s *Server) ensureIDIndexes() (built bool) {
	s.idIndexOnce.Do(func() {
		for _, pl := range s.layers {
			if pl.Table == "" {
				continue
			}
			if b, err := pl.EnsureIDIndex(s.db); err == nil && b {
				built = true
			}
		}
	})
	return built
}

// footprint is the part of the caches a change may have made stale:
// canvas rectangles per layer, or — full non-empty, naming why —
// everything.
type footprint struct {
	full  string
	rows  int
	rects map[string][]geom.Rect // by layerKey
}

func (fp *footprint) count() (n int) {
	for _, rs := range fp.rects {
		n += len(rs)
	}
	return n
}

// footprintOf maps what a statement touched onto the canvas: each row
// image through RowBox, for every layer the table is the data table of.
func (s *Server) footprintOf(ch *sqldb.Changes) footprint {
	switch {
	case ch.DDL:
		return footprint{full: "ddl"}
	case ch.Truncated:
		return footprint{full: fmt.Sprintf("rows>%d", maxScopedRows)}
	}
	fp := footprint{rows: len(ch.Rows), rects: map[string][]geom.Rect{}}
	layers := 0
	for lk, pl := range s.layers {
		if pl.Table != ch.Table {
			continue
		}
		layers++
		for _, rc := range ch.Rows {
			var boxes []geom.Rect
			for _, img := range []storage.Row{rc.Old, rc.New} {
				if img == nil {
					continue
				}
				box, err := pl.RowBox(img)
				if err != nil {
					return footprint{full: "rowbox"}
				}
				if box = withSlack(box); len(boxes) == 0 || box != boxes[0] { // edited in place: one rectangle
					boxes = append(boxes, box)
				}
			}
			fp.rects[lk] = append(fp.rects[lk], boxes...)
		}
	}
	if layers == 0 {
		return footprint{full: "table"}
	}
	return fp
}

// withSlack widens a row's rectangle by a hair. The window query compares
// in raw-attribute space ((window − radius) / scale against the column),
// RowBox places the row in canvas space (column × scale ± radius); on an
// edge the two roundings can disagree by an ulp, and a sweep may remove
// too much but never too little.
func withSlack(r geom.Rect) geom.Rect {
	m := math.Max(math.Max(math.Abs(r.MinX), math.Abs(r.MaxX)), math.Max(math.Abs(r.MinY), math.Abs(r.MaxY)))
	d := 1e-9 * math.Max(m, 1)
	return geom.Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// touches reports whether the payload cached under key may hold a row of
// the footprint. A key that does not parse is touched. So is every
// mapping-design tile of an affected layer: the tuple–tile tables list a
// row under the tiles it covered when they were built, wherever it has
// moved since, so its rectangles say nothing about which of them hold it.
func (fp *footprint) touches(key string) bool {
	layer, window, mapping, ok := cacheKeyWindow(key)
	if !ok {
		return true
	}
	rects := fp.rects[layer]
	if mapping && len(rects) > 0 {
		return true
	}
	for _, r := range rects {
		if r.Intersects(window) {
			return true
		}
	}
	return false
}

// cacheKeyWindow recovers the layer and window of an L1/L2 key — the
// server's codec (and, for tiles, design) prefix in front of a fetch key
// — and whether it is a tile of the mapping design.
func cacheKeyWindow(key string) (layer string, window geom.Rect, mapping, ok bool) {
	_, rest, found := strings.Cut(key, "/") // keySpace
	if found && !strings.HasPrefix(rest, "b/") {
		var design string
		design, rest, found = strings.Cut(rest, "/")
		mapping = design == "mapping"
	}
	if !found {
		return "", geom.Rect{}, false, false
	}
	layer, window, ok = fetch.KeyWindow(rest)
	return layer, window, mapping, ok
}

// invalidate is the one place cached payloads are dropped. The caller
// holds updateMu's write lock and has already changed the data. The
// generation moves first, so a query that started before the change
// refuses to store its result (putUnlessStale) and later requests never
// join its flight; then L1 and L2 lose the footprint — or everything.
// The L2 fence moves inside Bump/Invalidate, dropping fills still in
// the write-behind queue.
func (s *Server) invalidate(fp footprint) (invalidation, error) {
	inv := invalidation{rows: fp.rows, rects: fp.count(), scope: "rows"}
	s.cacheGen.Add(1)
	var err error
	if fp.full != "" {
		inv.scope = "full:" + fp.full
		s.Stats.InvalidationsFull.Add(1)
		s.bcache.Clear()
		if s.l2 != nil {
			// One fsynced marker makes every resident record invisible
			// (across restarts too) without touching it on disk.
			_, err = s.l2.Bump()
		}
	} else {
		s.Stats.InvalidationsScoped.Add(1)
		if inv.rects > 0 {
			inv.l1Removed = s.bcache.RemoveIf(fp.touches)
			s.Stats.L1Removed.Add(int64(inv.l1Removed))
			if s.l2 != nil {
				inv.l2Removed, err = s.l2.Invalidate(fp.touches)
			}
		}
	}
	if err != nil {
		err = fmt.Errorf("server: invalidate L2 tile store: %w", err)
	}
	return inv, err
}
