package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The bench's own spans, recorded from outside the program: around the
// calls into each layer's public surface. Spans inside the program are
// internal/obs's business; its stage histograms ride along in the
// output as an unnamed cross-check table.

// span is one timed interval. Spans of one pan share Trace; Parent is
// the span that caused this one (0 for roots).
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start"` // ns since the tracer's epoch
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. Tracing off is a
// spanTransport whose tr is nil; no tracer exists then.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root times fn as a root span (probe calls use it).
func (t *tracer) root(name string, fn func()) {
	id, start := t.newID(), t.now()
	fn()
	t.add(span{Name: name, Trace: id, ID: id, Start: start, End: t.now()})
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanHeader carries "trace-span" from the client's round trip to the
// handler wrapper, so server.http spans parent under the round trip
// that caused them. The server ignores it.
const spanHeader = "X-Bench-Span"

// wrapHandler spans each ServeHTTP that carries a spanHeader.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.newID(), t.now()
		h.ServeHTTP(w, r)
		t.add(span{Name: "server.http", Trace: trace, ID: id, Parent: parent, Start: start, End: t.now()})
	})
}

func parseSpanHeader(v string) (trace, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, "-")
	if !found {
		return 0, 0, false
	}
	trace, err1 := strconv.ParseUint(a, 16, 64)
	parent, err2 := strconv.ParseUint(b, 16, 64)
	return trace, parent, err1 == nil && err2 == nil
}

// spanTransport is one client's http.RoundTripper. While the client has
// a pan in flight (cur set, tracing on) every exchange becomes a
// frontend.roundtrip span — request written to body EOF — under that
// pan. With record set it also keeps the request bodies, the recorded
// input stream the layer probes replay.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
	// cur is the pan span in flight; a client runs on one goroutine, so
	// the driver sets it around Pan without locking.
	cur    uint64
	record bool
	bodies [][]byte
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if st.record && req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			if b, err := io.ReadAll(io.LimitReader(rc, 1<<20)); err == nil {
				st.bodies = append(st.bodies, b)
			}
			_ = rc.Close()
		}
	}
	if st.tr == nil || st.cur == 0 {
		return st.base.RoundTrip(req)
	}
	id, start := st.tr.newID(), st.tr.now()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(st.cur, 16)+"-"+strconv.FormatUint(id, 16))
	sp := span{Name: "frontend.roundtrip", Trace: st.cur, ID: id, Parent: st.cur, Start: start}
	resp, err := st.base.RoundTrip(req)
	if err != nil {
		sp.End = st.tr.now()
		st.tr.add(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: st.tr, sp: sp}
	return resp, nil
}

// spanBody ends its round-trip span at body EOF (or Close, whichever
// comes first).
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	sp   span
	done bool
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.sp.End = b.tr.now()
		b.tr.add(b.sp)
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// selfTimes returns, per span name, the summed duration and the summed
// self time in ns: a span's duration minus the part of it its children
// cover (children clipped to the parent, overlaps counted once).
// wellFormed is false when a span runs backwards, names a parent that
// was not recorded, or starts outside its parent. A child may END a few
// microseconds after its parent: the frontend closes a /batch stream
// after its last frame without reading to EOF, so the handler's
// epilogue can outlive the round trip that caused it.
func selfTimes(spans []span) (total, self map[string]int64, wellFormed bool) {
	total, self = map[string]int64{}, map[string]int64{}
	byID := make(map[uint64]*span, len(spans))
	kids := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	wellFormed = true
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			wellFormed = false
		}
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || s.Start < p.Start || s.Start > p.End) {
			wellFormed = false
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, upto := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, upto), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		total[s.Name] += s.End - s.Start
		self[s.Name] += s.End - s.Start - covered
	}
	return total, self, wellFormed
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since run start", spans}); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
