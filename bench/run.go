package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"kyrix/internal/obs"
	"kyrix/internal/server"
	"kyrix/internal/sqldb"
)

// config is one invocation.
type config struct {
	Spec    wlSpec
	Scale   scale
	Seed    int64
	Seconds float64
	Trace   bool
	// OutDir receives trace-<workload>.json; TmpRoot holds the run's
	// store and log directories. Both are inside the checkout.
	OutDir, TmpRoot string
}

// document is everything one run reports: every metric by name and
// unit, the host it ran on, and the server's own stage quantiles as an
// unnamed cross-check.
type document struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Host       host    `json:"host"`
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FirstError string  `json:"first_error,omitempty"`
	// Rounds is how many measured rounds the medians are over;
	// FetchingSamples how many fetching steps the latency quantiles
	// pooled per round on average.
	Rounds          int                           `json:"rounds"`
	FetchingSamples int                           `json:"fetching_samples_per_round"`
	Metrics         metrics                       `json:"metrics"`
	Stages          map[string]obs.StageQuantiles `json:"stages,omitempty"`
}

// counters is every already-exported counter the per-layer metrics
// difference over the measured pass.
type counters struct {
	snap     server.StatsSnapshot
	db       sqldb.DBStats
	mem      runtime.MemStats
	conns    int64
	logBytes int64
}

func takeCounters(e *env) counters {
	c := counters{snap: e.Srv.Snapshot(), db: e.DB.Stats(), conns: e.conns.Load()}
	runtime.ReadMemStats(&c.mem)
	if e.dir != "" {
		c.logBytes = dirBytes(filepath.Join(e.dir, "replog"))
	}
	return c
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// pass is one measured pass: per-round figures (the medians' inputs),
// the pooled tally, and the counter deltas' endpoints.
type pass struct {
	StepsPerS, P50, P95, TtffP50, WireKB []float64
	Total                                tally
	Wall                                 float64
	Before, After                        counters
}

// measure replays whole rounds until seconds have elapsed. Rounds are
// fixed step counts, so per-round counters repeat; only how many rounds
// fit depends on the host.
func (d *driver) measure(seconds float64) *pass {
	p := &pass{Before: takeCounters(d.env)}
	for p.Wall < seconds {
		if d.sp.ClearL1PerRound {
			d.env.Srv.BackendCache().Clear()
		}
		t, wall := d.round(false)
		p.Wall += wall
		p.StepsPerS = append(p.StepsPerS, float64(t.Steps)/wall)
		p.P50 = append(p.P50, quantile(t.StepMs, 0.50))
		p.P95 = append(p.P95, quantile(t.StepMs, 0.95))
		p.TtffP50 = append(p.TtffP50, quantile(t.TtffMs, 0.50))
		p.WireKB = append(p.WireKB, float64(t.Wire)/1024/float64(t.Steps))
		p.Total.merge(t)
	}
	p.After = takeCounters(d.env)
	return p
}

// run executes one workload and assembles its document.
func run(cfg config) (*document, error) {
	in := makeInputs(cfg.Spec, cfg.Scale, cfg.Seed)
	ref := newReference(in.Dataset)
	tmp, err := os.MkdirTemp(cfg.TmpRoot, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	doc := &document{
		Workload: cfg.Spec.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Host: hostFacts(), Metrics: metrics{},
	}
	var verify *tally
	var p *pass
	if cfg.Trace {
		verify, p, err = runTraced(cfg, in, ref, tmp, doc)
	} else {
		verify, p, err = runEndToEnd(cfg, in, ref, tmp, doc)
	}
	if err != nil {
		return nil, err
	}
	doc.Attempted = verify.Steps + verify.Updates + p.Total.Steps + p.Total.Updates
	doc.Failed = verify.Failed + p.Total.Failed
	doc.Correct = doc.Failed == 0
	for _, t := range []*tally{verify, &p.Total} {
		if t.FirstErr != nil && doc.FirstError == "" {
			doc.FirstError = t.FirstErr.Error()
		}
	}
	doc.Rounds = len(p.StepsPerS)
	doc.FetchingSamples = len(p.Total.StepMs) / max(doc.Rounds, 1)
	return doc, nil
}

// runEndToEnd is the --trace 0 shape: set up Scale.Setups times (the
// median is setup_s; the last env is kept), verify, measure with every
// kind of tracing off.
func runEndToEnd(cfg config, in *inputs, ref *reference, tmp string, doc *document) (*tally, *pass, error) {
	var e *env
	var setups []float64
	for i := 0; i < cfg.Scale.Setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var err error
		if e, err = newEnv(cfg.Spec, in.Dataset, false, nil, tmp); err != nil {
			return nil, nil, err
		}
		setups = append(setups, e.SetupS)
	}
	defer e.close()
	d, err := newDriver(cfg.Spec, e, in, ref, nil)
	if err != nil {
		return nil, nil, err
	}
	defer d.close()
	verify := d.verifyPass(false)
	p := d.measure(cfg.Seconds)

	m := doc.Metrics
	m.setRounds("setup_s", "s", setups)
	m.setRounds("steps_per_s", "1/s", p.StepsPerS)
	m.setRounds("step_p50_ms", "ms", p.P50)
	m.setRounds("ttff_p50_ms", "ms", p.TtffP50)
	m.setRounds("wire_kb_per_step", "KiB", p.WireKB)
	m.set("peak_rss_mb", "MiB", peakRSSMiB())
	return verify, p, nil
}

// peakRSSMiB is VmHWM of this process: server, clients and harness.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runTraced is the --trace 1 shape. Phase A is an untraced env: its
// verify pass records the probe inputs and its measured half-pass gives
// the counter-derived metrics and the untraced steps/s. Phase B is a
// second env with the server's tracing on and the bench's spans on: its
// half-pass gives the span-derived metrics and the tracing overhead.
// The layer probes then run against phase B's database.
func runTraced(cfg config, in *inputs, ref *reference, tmp string, doc *document) (*tally, *pass, error) {
	m := doc.Metrics
	half := cfg.Seconds / 2

	ea, err := newEnv(cfg.Spec, in.Dataset, false, nil, tmp)
	if err != nil {
		return nil, nil, err
	}
	da, err := newDriver(cfg.Spec, ea, in, ref, nil)
	if err != nil {
		ea.close()
		return nil, nil, err
	}
	verify := da.verifyPass(true)
	recorded := make([][][]byte, len(da.clients))
	for i, c := range da.clients {
		recorded[i] = c.st.bodies
	}
	pa := da.measure(half)
	counterMetrics(m, pa)
	da.close()
	ea.close()
	runtime.GC()

	tr := newTracer()
	eb, err := newEnv(cfg.Spec, in.Dataset, true, tr.wrapHandler, tmp)
	if err != nil {
		return nil, nil, err
	}
	defer eb.close()
	m.set("sqldb.load_s", "s", median([]float64{ea.LoadS, eb.LoadS}))
	m.set("fetch.precompute_s", "s", median([]float64{ea.PrecomputeS, eb.PrecomputeS}))
	drb, err := newDriver(cfg.Spec, eb, in, ref, nil)
	if err != nil {
		return nil, nil, err
	}
	defer drb.close()
	verify.merge(drb.verifyPass(false))
	for _, c := range drb.clients {
		c.st.tr = tr
	}
	pb := drb.measure(half)
	spanMetrics(m, tr.snapshot(), pb.Total.Steps)
	m.set("obs.trace_overhead_ratio", "ratio", 1-ratio(median(pb.StepsPerS), median(pa.StepsPerS)))
	m.set("obs.span_coverage_ratio", "ratio", spanCoverage(eb.Srv.FlightRecorder().Snapshot()))
	doc.Stages = stageTable(eb.Srv)

	pin, err := newProbeInputs(cfg.Spec, eb, in, recorded, tmp)
	if err != nil {
		return nil, nil, err
	}
	for _, pr := range probes {
		tr.root("probe."+pr.ID(), func() { err = pr.Run(pin, m) })
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", pr.ID(), err)
		}
	}

	spans := tr.snapshot()
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeTrace(filepath.Join(cfg.OutDir, "trace-"+cfg.Spec.Name+".json"), spans); err != nil {
		return nil, nil, err
	}
	pa.Total.merge(&pb.Total)
	pa.StepsPerS = append(pa.StepsPerS, pb.StepsPerS...)
	return verify, pa, nil
}

// counterMetrics derives every *c* metric: deltas of counters the
// layers already export, over the measured pass p.
func counterMetrics(m metrics, p *pass) {
	t := &p.Total
	steps := float64(t.Steps)
	a, b := p.Before, p.After
	sa, sb := a.snap.Serving, b.snap.Serving
	d := func(after, before int64) float64 { return float64(after - before) }

	m.set("frontend.fetch_free_ratio", "ratio", ratio(float64(t.FetchFree), steps))
	m.set("frontend.requests_per_step", "1/step", ratio(float64(t.Requests), steps))
	m.set("frontend.rows_per_step", "rows/step", ratio(float64(t.Rows), steps))
	m.setRounds("frontend.step_p95_ms", "ms", p.P95)
	m.set("frontend.step_p99_ms", "ms", quantile(t.StepMs, 0.99))
	m.set("frontend.steps_in_budget_ratio", "ratio", ratio(float64(t.Steps-t.OverBudget-t.Failed), steps))
	m.set("frontend.failed_ratio", "ratio", ratio(float64(t.Failed), steps+float64(t.Updates)))
	m.set("frontend.conns_per_step", "1/step", ratio(d(b.conns, a.conns), steps))

	m.set("server.db_queries_per_step", "1/step", ratio(d(sb.DBQueries, sa.DBQueries), steps))
	m.set("server.db_query_ms_per_step", "ms/step", ratio(d(sb.QueryNanos, sa.QueryNanos)/1e6, steps))
	m.set("server.coalesced_per_step", "1/step", ratio(d(sb.CoalescedHits, sa.CoalescedHits), steps))
	frames := d(sb.TileRequests+sb.BoxRequests, sa.TileRequests+sa.BoxRequests)
	m.set("server.delta_frame_ratio", "ratio", ratio(d(sb.DeltaFrames, sa.DeltaFrames), frames))
	m.set("server.compressed_frame_ratio", "ratio", ratio(d(sb.CompressedFrames, sa.CompressedFrames), frames))
	m.set("server.wire_over_raw_ratio", "ratio", ratio(d(sb.WireBytes, sa.WireBytes), d(sb.BytesServed, sa.BytesServed)))
	m.set("server.update_ack_p50_ms", "ms", quantile(t.AckMs, 0.50))
	m.set("server.update_ack_p90_ms", "ms", quantile(t.AckMs, 0.90))
	m.set("server.updates_per_s", "1/s", ratio(d(sb.Updates, sa.Updates), p.Wall))

	la, lb := a.snap.Cache.L1, b.snap.Cache.L1
	m.set("cache.l1_hit_ratio", "ratio", ratio(d(lb.Hits, la.Hits), d(lb.Hits+lb.Misses, la.Hits+la.Misses)))
	m.set("cache.l1_reject_ratio", "ratio", ratio(d(lb.Rejected, la.Rejected), d(lb.Admitted+lb.Rejected, la.Admitted+la.Rejected)))
	m.set("cache.l1_bytes", "B", float64(lb.Bytes))

	var l2hit, l2puts, l2dropped float64
	if a2, b2 := a.snap.Cache.L2, b.snap.Cache.L2; a2 != nil && b2 != nil {
		l2hit = ratio(d(b2.Hits, a2.Hits), d(b2.Hits+b2.Misses, a2.Hits+a2.Misses))
		l2puts = ratio(d(b2.Puts, a2.Puts), steps)
		l2dropped = ratio(d(b2.DroppedFull+b2.DroppedStale+b2.DroppedOversize, a2.DroppedFull+a2.DroppedStale+a2.DroppedOversize), steps)
	}
	m.set("store.l2_hit_ratio", "ratio", l2hit)
	m.set("store.l2_puts_per_step", "1/step", l2puts)
	m.set("store.l2_dropped_per_step", "1/step", l2dropped)

	var lag float64
	if rl := b.snap.Replog; rl != nil {
		lag = float64(rl.LastIndex - rl.Applied)
	}
	m.set("replog.applied_lag", "count", lag)
	m.set("replog.log_bytes_per_update", "B", ratio(d(b.logBytes, a.logBytes), d(sb.Updates, sa.Updates)))

	m.set("fetch.lod_queries_ratio", "ratio", ratio(d(b.snap.LOD.Queries, a.snap.LOD.Queries), d(sb.DBQueries, sa.DBQueries)))
	m.set("sqldb.rows_scanned_per_step", "rows/step", ratio(d(b.db.RowsScanned, a.db.RowsScanned), steps))
	m.set("sqldb.rows_scanned_per_row_out", "ratio", ratio(d(b.db.RowsScanned, a.db.RowsScanned), d(b.db.RowsOut, a.db.RowsOut)))
	m.set("sqldb.selects_per_step", "1/step", ratio(d(b.db.Selects, a.db.Selects), steps))

	m.set("runtime.alloc_kb_per_step", "KiB/step", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024, steps))
	m.set("runtime.gc_pause_ms_total", "ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
}

// spanMetrics derives every *s* metric from the bench's own spans:
// self time per span name over the traced steps.
func spanMetrics(m metrics, spans []span, steps int) {
	total, self, _ := selfTimes(spans)
	perStep := func(ns int64) float64 { return ratio(float64(ns)/1e6, float64(steps)) }
	m.set("frontend.pan_self_ms_per_step", "ms/step", perStep(self["frontend.pan"]))
	m.set("frontend.roundtrip_ms_per_step", "ms/step", perStep(total["frontend.roundtrip"]))
	m.set("frontend.transport_ms_per_step", "ms/step", perStep(self["frontend.roundtrip"]))
	m.set("server.http_ms_per_step", "ms/step", perStep(total["server.http"]))
}

// spanCoverage is how much of the server's own root spans its child
// spans account for, over the flight recorder's recent traces.
func spanCoverage(snap obs.Snapshot) float64 {
	var root, covered int64
	for _, r := range snap.Recent {
		root += r.DurUS
		upto := r.StartUS
		kids := slices.Clone(r.Children) // recorded in end order
		slices.SortFunc(kids, func(x, y *obs.SpanData) int { return cmp.Compare(x.StartUS, y.StartUS) })
		for _, c := range kids {
			lo, hi := max(c.StartUS, upto), min(c.StartUS+c.DurUS, r.StartUS+r.DurUS)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
	}
	return ratio(float64(covered), float64(root))
}

// stageTable scrapes the server's own kyrix_stage_duration_seconds
// quantiles. They ride along unnamed: a later change may rename a stage
// without breaking the metric contract.
func stageTable(srv *server.Server) map[string]obs.StageQuantiles {
	var buf bytes.Buffer
	if err := srv.MetricsRegistry().WriteProm(&buf); err != nil {
		return nil
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		return nil
	}
	return exp.HistogramQuantiles("kyrix_stage_duration_seconds", "stage")
}
