package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"kyrix/internal/frontend"
	"kyrix/internal/geom"
	"kyrix/internal/server"
	"kyrix/internal/storage"
)

// lodRowBudget is fetch's default LODRowBudget: the most rows any
// window query on the auto-LOD layer may return.
const lodRowBudget = 4096

// baseCols is the width of a raw points row; aggregate rows of an LOD
// level carry extra lod_* columns after it.
const baseCols = 4

// tally is what one client saw over one round.
type tally struct {
	Steps, FetchFree, Requests, Rows, OverBudget int
	Updates                                      int // POST /update attempts
	Wire, Raw                                    int64
	StepMs                                       []float64 // fetching steps only
	TtffMs                                       []float64
	AckMs                                        []float64 // acked /update round trips
	Failed                                       int       // failed steps, failed or stale updates, verify mismatches
	FirstErr                                     error
}

func (t *tally) fail(err error) {
	t.Failed++
	if t.FirstErr == nil {
		t.FirstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.Steps += o.Steps
	t.FetchFree += o.FetchFree
	t.Requests += o.Requests
	t.Rows += o.Rows
	t.OverBudget += o.OverBudget
	t.Updates += o.Updates
	t.Wire += o.Wire
	t.Raw += o.Raw
	t.StepMs = append(t.StepMs, o.StepMs...)
	t.TtffMs = append(t.TtffMs, o.TtffMs...)
	t.AckMs = append(t.AckMs, o.AckMs...)
	t.Failed += o.Failed
	if t.FirstErr == nil {
		t.FirstErr = o.FirstErr
	}
}

// driver owns the closed-loop clients of one env.
type driver struct {
	sp      wlSpec
	env     *env
	ref     *reference
	clients []*client
	// updSeq numbers updates across clients and passes: it derives the
	// idempotency id and the value written, so no two updates of a run
	// collide in the log's dedupe table.
	updSeq atomic.Int64
}

// client is one closed-loop frontend: one goroutine, one connection,
// the next pan sent only after the previous reply, no think time.
type client struct {
	id    int
	d     *driver
	fc    *frontend.Client
	hc    *http.Client
	st    *spanTransport
	load  geom.Rect   // the trace's first viewport: the untimed load
	steps []geom.Rect // one round
}

func newDriver(sp wlSpec, e *env, in *inputs, ref *reference, tr *tracer) (*driver, error) {
	d := &driver{sp: sp, env: e, ref: ref}
	for i, trace := range in.Traces {
		st := &spanTransport{
			base: &http.Transport{MaxIdleConnsPerHost: 1},
			tr:   tr,
		}
		hc := &http.Client{Transport: st, Timeout: 30 * time.Second}
		fc, err := frontend.NewClient(e.BaseURL, e.CA, frontend.Options{
			Scheme:     sp.Scheme,
			Codec:      sp.Codec,
			CacheBytes: sp.FrontendCacheBytes,
			BatchSize:  sp.BatchSize,
			HTTPClient: hc,
		})
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, &client{
			id: i, d: d, fc: fc, hc: hc, st: st,
			load: trace.Steps[0], steps: trace.Steps[1:],
		})
	}
	return d, nil
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.hc.CloseIdleConnections()
	}
}

// round replays every client's round trace concurrently and returns the
// merged tally and the wall time from the start barrier to the last
// client finishing. check runs the reference comparison on every step
// (the verify pass); measured rounds leave it off.
func (d *driver) round(check bool) (*tally, float64) {
	tallies := make([]tally, len(d.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, vp := range c.steps {
				c.step(k, vp, &tallies[i], check)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total, wall
}

// verifyPass is the untimed first replay: it loads each client's first
// viewport, then runs one checked round. It is the correctness gate and
// the cache warm-up, and — with record set — where the probe inputs are
// captured.
func (d *driver) verifyPass(record bool) *tally {
	load := &tally{}
	for _, c := range d.clients {
		if _, err := c.fc.Pan(c.load); err != nil {
			load.fail(fmt.Errorf("client %d initial load: %w", c.id, err))
		}
		c.st.record = record
	}
	t, _ := d.round(true)
	for _, c := range d.clients {
		c.st.record = false
	}
	t.merge(load)
	return t
}

// step is one pan — timed by the frontend's own FetchReport, spanned
// when tracing, checked against the reference when asked — plus the
// update that follows it on the update workload. A step fails at most
// once; its update is an attempt of its own.
func (c *client) step(k int, vp geom.Rect, t *tally, check bool) {
	t.Steps++
	if err := c.pan(vp, t, check); err != nil {
		t.fail(fmt.Errorf("client %d step %d: %w", c.id, k, err))
		return
	}
	if n := c.d.sp.UpdateEvery; n > 0 && c.id == 0 && (k+1)%n == 0 {
		t.Updates++
		if err := c.update(c.fc.Viewport(), t); err != nil {
			t.fail(fmt.Errorf("client %d step %d update: %w", c.id, k, err))
		}
	}
}

func (c *client) pan(vp geom.Rect, t *tally, check bool) error {
	var pan span
	if tr := c.st.tr; tr != nil {
		id := tr.newID()
		pan = span{Name: "frontend.pan", Trace: id, ID: id, Start: tr.now()}
		c.st.cur = id
	}
	rep, err := c.fc.Pan(vp)
	if pan.ID != 0 {
		c.st.cur = 0
		pan.End = c.st.tr.now()
		c.st.tr.add(pan)
	}
	if err != nil {
		return err
	}
	if rep.Requests == 0 {
		// Answered from the held box: no request, nothing to time.
		t.FetchFree++
	} else {
		t.StepMs = append(t.StepMs, float64(rep.Duration.Nanoseconds())/1e6)
		if rep.FirstFrame > 0 {
			t.TtffMs = append(t.TtffMs, float64(rep.FirstFrame.Nanoseconds())/1e6)
		}
	}
	t.Requests += rep.Requests
	t.Rows += rep.Rows
	t.Wire += rep.WireBytes
	t.Raw += rep.Bytes
	if rep.OverBudget {
		t.OverBudget++
	}
	if c.d.sp.LOD && rep.Rows > lodRowBudget {
		return fmt.Errorf("%d rows exceed LODRowBudget %d", rep.Rows, lodRowBudget)
	}
	if !check {
		return nil
	}
	rows, err := c.fc.ObjectsInViewport(0)
	if err != nil {
		return err
	}
	if len(rows) > 0 && len(rows[0]) != baseCols {
		return nil // aggregate cells of an LOD level: the row budget above is their check
	}
	return c.d.ref.checkRows(c.fc.Viewport(), rows)
}

// update rewrites val of one dot inside vp through POST /update, then
// reads the viewport back with a plain GET /dbox (the frontend's held
// box would not refetch) and requires the new value: read-your-writes
// through L1, L2 and the database.
func (c *client) update(vp geom.Rect, t *tally) error {
	ids := c.d.ref.idsIn(vp)
	if len(ids) == 0 {
		return fmt.Errorf("no dot in viewport %v to update", vp)
	}
	n := c.d.updSeq.Add(1)
	id := ids[int(n)%len(ids)]
	val := float64(n) + 0.5
	body, err := json.Marshal(server.UpdateRequest{
		ID:  fmt.Sprintf("bench-%d", n),
		SQL: "UPDATE points SET val = ? WHERE id = ?",
		Args: []server.ArgValue{
			{Kind: storage.TFloat64, F: val},
			{Kind: storage.TInt64, I: id},
		},
	})
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := c.hc.Post(c.d.env.BaseURL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	ack, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	var out struct {
		Affected int64 `json:"affected"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(ack, &out) != nil || out.Affected != 1 {
		return fmt.Errorf("%s: %s", resp.Status, ack)
	}
	t.AckMs = append(t.AckMs, float64(time.Since(start).Nanoseconds())/1e6)

	u := fmt.Sprintf("%s/dbox?canvas=main&layer=0&minx=%g&miny=%g&maxx=%g&maxy=%g&codec=%s",
		c.d.env.BaseURL, vp.MinX, vp.MinY, vp.MaxX, vp.MaxY, url.QueryEscape(string(c.d.sp.Codec)))
	resp, err = c.hc.Get(u)
	if err != nil {
		return err
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("read back: %s", resp.Status)
	}
	dr, err := server.Decode(payload, c.d.sp.Codec)
	if err != nil {
		return err
	}
	for _, row := range dr.Rows {
		if row[0].AsInt() == id {
			if got := row[3].AsFloat(); got != val {
				return fmt.Errorf("stale read: id %d val %g after acked update to %g", id, got, val)
			}
			return nil
		}
	}
	return fmt.Errorf("updated id %d missing from its viewport", id)
}
