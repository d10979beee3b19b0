package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"kyrix/internal/cache"
	"kyrix/internal/fetch"
	"kyrix/internal/frontend"
	"kyrix/internal/geom"
	"kyrix/internal/spec"
	"kyrix/internal/workload"
)

// ConcurrentOptions configures a concurrent-clients run.
type ConcurrentOptions struct {
	// ClientCounts are the parallel-frontend counts to sweep.
	ClientCounts []int
	// StepsPerClient is the pan steps each client replays (excluding
	// the initial load).
	StepsPerClient int
	// Scheme is the fetching granularity every client uses.
	Scheme fetch.Granularity
	// BatchSize is each client's tile-batching knob (tiles schemes
	// only; 0 disables).
	BatchSize int
	// Compression selects per-frame compression
	// (frontend.CompressionAuto/Off).
	Compression int
	// SharedTraces groups clients onto this many distinct traces, so
	// concurrent clients overlap and request coalescing has identical
	// in-flight requests to merge. 0 means every client gets its own
	// trace (no overlap). Random-walk workload only.
	SharedTraces int
	// Workload selects each client's trace shape:
	//
	//	"walk" (or "")  random-walk pans — the historical default
	//	"zipf"          zipf-hot-set pan/zoom: all clients share one
	//	                hot-spot layout and revisit it with zipf skew
	//	"scan"          one-shot sequential scan of the canvas
	//	"mixed"         3 of every 4 clients run zipf, the fourth runs
	//	                a scan — the adversarial multi-tenant case the
	//	                cache admission policy exists for
	//	"zoom"          zipf-zoom: clients zoom in and out around shared
	//	                zipf-hot centers — the zoom-heavy case auto-LOD
	//	                serving exists for
	//
	// The zipf/scan/mixed/zoom workloads disable the frontend cache so
	// the backend cache sees the full request stream (the hit-ratio
	// column measures the backend policy, not the client's cache).
	Workload string
}

// DefaultConcurrentOptions sweeps 1..16 clients replaying tile fetches
// with batching, with clients paired onto shared traces.
func DefaultConcurrentOptions() ConcurrentOptions {
	return ConcurrentOptions{
		ClientCounts:   []int{1, 2, 4, 8, 16},
		StepsPerClient: 12,
		Scheme:         fetch.TileSpatial1024,
		BatchSize:      8,
		SharedTraces:   4,
	}
}

// ConcurrentRowStats is one client-count row of the concurrent sweep
// in machine-readable form — what kyrix-bench -json persists so the
// perf trajectory is comparable across PRs.
type ConcurrentRowStats struct {
	Clients     int     `json:"clients"`
	StepsPerSec float64 `json:"stepsPerSec"`
	MeanMs      float64 `json:"meanMs"`
	P50Ms       float64 `json:"p50Ms"`
	P95Ms       float64 `json:"p95Ms"`
	DbqPerStep  float64 `json:"dbqPerStep"`
	CoalPerStep float64 `json:"coalPerStep"`
	// WireKBPerStep is bytes read off the wire by batch round trips
	// per measured step; TtffMs the mean time to first decoded frame
	// (batched fetches only).
	WireKBPerStep float64 `json:"wireKBPerStep"`
	TtffMs        float64 `json:"ttffMs"`
	// CompressionRatio is wire bytes over logical payload bytes across
	// the measured steps: ~1 with raw frames (framing only), below 1
	// when compression and delta frames earn their keep. 0 when
	// unbatched.
	CompressionRatio float64 `json:"compressionRatio"`
	// HitRatio is the backend cache hit ratio over the measured steps
	// (hits/(hits+misses) deltas); CacheAdmitted/CacheRejected count
	// the W-TinyLFU admission gate's decisions in that window (both 0
	// with admission off).
	HitRatio      float64 `json:"hitRatio"`
	CacheAdmitted int64   `json:"cacheAdmitted"`
	CacheRejected int64   `json:"cacheRejected"`
	// RowsScannedPerStep is database rows scanned per measured step —
	// the bounded-row metric for auto-LOD runs: with LOD on it should
	// stay flat as NumPoints grows; without it it grows linearly.
	RowsScannedPerStep float64 `json:"rowsScannedPerStep,omitempty"`
	// NumPoints records the dataset size behind the row (LODSweep runs
	// several sizes in one artifact); 0 when the caller didn't vary it.
	NumPoints int `json:"numPoints,omitempty"`
	// Nodes carries per-node counters in cluster runs (ClusterRun);
	// empty for single-backend sweeps. In cluster rows, DbqPerStep /
	// HitRatio above are the cluster-wide aggregates.
	Nodes []NodeRowStats `json:"nodes,omitempty"`
}

// NodeRowStats is one cluster node's share of a concurrent-sweep row.
type NodeRowStats struct {
	// Node is the node's base URL (its ring identity).
	Node string `json:"node"`
	// HitRatio is this node's backend-cache hit ratio over the
	// measured steps.
	HitRatio float64 `json:"hitRatio"`
	// PeerFillRatio is peer fills / (peer fills + local database
	// queries) — the fraction of this node's cache fills served by
	// the owning peer instead of its own database.
	PeerFillRatio float64 `json:"peerFillRatio"`
	// DbqPerStep is this node's database queries per measured step
	// (cluster-wide steps, so the per-node columns sum to the row's
	// aggregate DbqPerStep).
	DbqPerStep float64 `json:"dbqPerStep"`
	// PeerFills/PeerServes/LocalFallbacks/HotReplicas are the raw
	// cluster counters over the measured window.
	PeerFills      int64 `json:"peerFills"`
	PeerServes     int64 `json:"peerServes"`
	LocalFallbacks int64 `json:"localFallbacks"`
	HotReplicas    int64 `json:"hotReplicas"`
}

// ConcurrentClients measures the backend under N parallel frontends:
// the throughput/latency sweep behind the ROADMAP's "heavy traffic"
// goal, and the ablation surface for the serving pipeline (sharded
// cache, coalescing, batching, wire protocol). Each client replays a
// random-walk trace; clients sharing a trace issue identical requests
// and exercise coalescing. The backend cache is cleared before each
// client count so rows are comparable cold starts. Returns the
// formatted table plus per-row machine-readable stats.
func ConcurrentClients(env *Env, opts ConcurrentOptions) (*Table, []ConcurrentRowStats, error) {
	if len(opts.ClientCounts) == 0 || opts.StepsPerClient <= 0 {
		return nil, nil, fmt.Errorf("experiments: concurrent run needs client counts and steps")
	}
	rows := make([]string, len(opts.ClientCounts))
	for i, n := range opts.ClientCounts {
		rows[i] = fmt.Sprintf("%d clients", n)
	}
	workloadName := opts.Workload
	if workloadName == "" {
		workloadName = "walk"
	}
	cols := []string{"steps/s", "mean ms", "p95 ms", "dbq/step", "coal/step", "hit%", "wireKB/step", "ttff ms", "ratio"}
	t := NewTable(
		fmt.Sprintf("Concurrent clients: %s over %q (%s workload)", opts.Scheme.Name(), env.Cfg.Name, workloadName),
		"mixed units, see columns", rows, cols)
	t.Notes = append(t.Notes,
		fmt.Sprintf("steps/client=%d batch=%d sharedTraces=%d; backend cache cleared per row",
			opts.StepsPerClient, opts.BatchSize, opts.SharedTraces),
		"hit%: backend cache hit ratio over the measured steps (zipf/scan/mixed workloads disable the frontend cache so the backend policy is what is measured)",
		"wireKB/step: bytes read off the wire by /batch round trips, framing included; 0 when unbatched",
		"ttff ms: mean time to first decoded frame, batched fetches only",
		"ratio: wire bytes / logical payload bytes (compression + delta savings; ~1 with raw frames)")

	var stats []ConcurrentRowStats
	for _, n := range opts.ClientCounts {
		row := fmt.Sprintf("%d clients", n)
		env.Srv.BackendCache().Clear()

		traces, err := buildTraces(env, opts, n)
		if err != nil {
			return nil, nil, err
		}

		var dbqBefore, coalBefore, scannedBefore int64
		var bcBefore cache.Stats
		sweep, err := runClientSweep(traces, opts, func(i int) (*frontend.Client, error) {
			return newSweepClient(env.BaseURL, env.CA, env.Cfg, opts)
		}, func() {
			dbqBefore = env.Srv.Stats.DBQueries.Load()
			coalBefore = env.Srv.Stats.CoalescedHits.Load()
			scannedBefore = env.DB.Stats().RowsScanned
			bcBefore = env.Srv.BackendCache().Stats()
		})
		if err != nil {
			return nil, nil, err
		}
		dbq := float64(env.Srv.Stats.DBQueries.Load() - dbqBefore)
		coal := float64(env.Srv.Stats.CoalescedHits.Load() - coalBefore)
		scanned := float64(env.DB.Stats().RowsScanned - scannedBefore)
		bcAfter := env.Srv.BackendCache().Stats()
		bcDelta := cache.Stats{
			Hits:   bcAfter.Hits - bcBefore.Hits,
			Misses: bcAfter.Misses - bcBefore.Misses,
		}

		rs := sweep.rowStats(n)
		rs.DbqPerStep = dbq / sweep.steps
		rs.CoalPerStep = coal / sweep.steps
		rs.RowsScannedPerStep = scanned / sweep.steps
		rs.HitRatio = bcDelta.HitRatio()
		rs.CacheAdmitted = bcAfter.Admitted - bcBefore.Admitted
		rs.CacheRejected = bcAfter.Rejected - bcBefore.Rejected
		stats = append(stats, rs)

		t.Set(row, "steps/s", rs.StepsPerSec, Series{})
		t.Set(row, "mean ms", rs.MeanMs, Series{})
		t.Set(row, "p95 ms", rs.P95Ms, Series{})
		t.Set(row, "dbq/step", rs.DbqPerStep, Series{})
		t.Set(row, "coal/step", rs.CoalPerStep, Series{})
		t.Set(row, "hit%", 100*rs.HitRatio, Series{})
		t.Set(row, "wireKB/step", rs.WireKBPerStep, Series{})
		t.Set(row, "ttff ms", rs.TtffMs, Series{})
		t.Set(row, "ratio", rs.CompressionRatio, Series{})
	}
	return t, stats, nil
}

// cacheWorkload reports whether w is one of the backend-cache
// adversaries (which disable the frontend cache).
func cacheWorkload(w string) bool {
	return w == "zipf" || w == "scan" || w == "mixed" || w == "zoom"
}

// newSweepClient builds one sweep client against baseURL with the
// shared option mapping (the zipf/scan/mixed/zoom workloads disable the
// frontend cache: the hit-ratio column measures the backend policy,
// and a frontend cache would absorb the very revisits the zipf
// workload exists to produce).
func newSweepClient(baseURL string, ca *spec.CompiledApp, cfg Config, opts ConcurrentOptions) (*frontend.Client, error) {
	fcache := cfg.FrontendCacheBytes
	if cacheWorkload(opts.Workload) {
		fcache = 0
	}
	return frontend.NewClient(baseURL, ca, frontend.Options{
		Scheme:      opts.Scheme,
		Codec:       cfg.Codec,
		CacheBytes:  fcache,
		BatchSize:   opts.BatchSize,
		Compression: opts.Compression,
	})
}

// sweepResult aggregates one client-count row of a sweep: the measured
// step durations (sorted), wall time, and wire-side counters.
type sweepResult struct {
	durs       []float64 // sorted, ms
	ttffs      []float64
	wire, raw  int64
	wall       float64
	steps, sum float64
}

// rowStats converts the aggregate into the common ConcurrentRowStats
// fields (latency, throughput, wire); callers fill the server-counter
// fields they snapshot themselves.
func (sr *sweepResult) rowStats(clients int) ConcurrentRowStats {
	var ttffMean float64
	if len(sr.ttffs) > 0 {
		for _, v := range sr.ttffs {
			ttffMean += v
		}
		ttffMean /= float64(len(sr.ttffs))
	}
	var ratio float64
	if sr.raw > 0 {
		ratio = float64(sr.wire) / float64(sr.raw)
	}
	return ConcurrentRowStats{
		Clients:          clients,
		StepsPerSec:      sr.steps / sr.wall,
		MeanMs:           sr.sum / sr.steps,
		P50Ms:            sr.durs[int(math.Ceil(0.50*sr.steps))-1],
		P95Ms:            sr.durs[int(math.Ceil(0.95*sr.steps))-1],
		WireKBPerStep:    float64(sr.wire) / 1024 / sr.steps,
		TtffMs:           ttffMean,
		CompressionRatio: ratio,
	}
}

// runClientSweep is the shared client-driving harness of
// ConcurrentClients and ClusterRun: one goroutine per trace, each
// building its frontend through newClient(i) and replaying Steps[0]
// cold BEFORE the wall clock starts (steps/s measures the measured
// pan steps only, like the per-step figures). snapshot runs after
// every client is ready and before the clock, so callers snapshot
// their server counters without billing the untimed setup phase.
func runClientSweep(traces []*workload.Trace, opts ConcurrentOptions, newClient func(i int) (*frontend.Client, error), snapshot func()) (*sweepResult, error) {
	n := len(traces)
	type result struct {
		durs  []float64 // per-pan-step, ms
		ttffs []float64 // per-step time to first frame, ms (framed only)
		wire  int64     // bytes on the wire across measured steps
		raw   int64     // logical payload bytes across measured steps
		err   error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	var ready sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := newClient(i)
			if err == nil {
				_, err = c.Pan(traces[i].Steps[0])
			}
			results[i].err = err
			ready.Done()
			<-start
			if err != nil {
				return
			}
			for _, step := range traces[i].Steps[1:] {
				rep, err := c.Pan(step)
				if err != nil {
					results[i].err = err
					return
				}
				results[i].durs = append(results[i].durs,
					float64(rep.Duration.Microseconds())/1000)
				results[i].wire += rep.WireBytes
				results[i].raw += rep.Bytes
				if rep.FirstFrame > 0 {
					results[i].ttffs = append(results[i].ttffs,
						float64(rep.FirstFrame.Microseconds())/1000)
				}
			}
		}(i)
	}
	ready.Wait()
	if snapshot != nil {
		snapshot()
	}
	wallStart := time.Now()
	close(start)
	wg.Wait()

	sr := &sweepResult{wall: time.Since(wallStart).Seconds()}
	for i := range results {
		if results[i].err != nil {
			return nil, fmt.Errorf("experiments: client %d: %w", i, results[i].err)
		}
		sr.durs = append(sr.durs, results[i].durs...)
		sr.ttffs = append(sr.ttffs, results[i].ttffs...)
		sr.wire += results[i].wire
		sr.raw += results[i].raw
	}
	sr.steps = float64(len(sr.durs))
	if sr.steps == 0 || sr.wall <= 0 {
		return nil, fmt.Errorf("experiments: sweep measured nothing")
	}
	sort.Float64s(sr.durs)
	for _, d := range sr.durs {
		sr.sum += d
	}
	return sr, nil
}

// buildTraces constructs each client's trace for the selected
// workload. The zipf workload shares one hot-spot layout across
// clients (the multi-tenant skew the admission policy protects);
// scans read windows of one canvas sweep, spaced evenly so the
// windows are disjoint whenever the sweep is long enough — once the
// scanning clients together demand more viewports than one sweep
// holds, the windows wrap and scan traffic stops being strictly
// one-shot (the hit%% column then also reflects scan re-reads); mixed
// gives every fourth client the scan role.
func buildTraces(env *Env, opts ConcurrentOptions, n int) ([]*workload.Trace, error) {
	canvas := env.Dataset.Canvas()
	traces := make([]*workload.Trace, n)
	zipfTrace := func(i int) *workload.Trace {
		return workload.ZipfHotSetTrace(workload.ZipfOptions{
			Canvas:   canvas,
			TileSize: env.Cfg.ViewportW,
			HotSpots: 64, Skew: 1.2,
			Steps: opts.StepsPerClient,
			VpW:   env.Cfg.ViewportW, VpH: env.Cfg.ViewportH,
			LayoutSeed: 7, Seed: 1000 + int64(i),
		})
	}
	var scanFull *workload.Trace
	scanTrace := func(ord, total int) *workload.Trace {
		if scanFull == nil {
			scanFull = workload.SequentialScanTrace(canvas, env.Cfg.ViewportW, env.Cfg.ViewportH)
		}
		stride := opts.StepsPerClient + 1
		if total > 0 && len(scanFull.Steps)/total > stride {
			stride = len(scanFull.Steps) / total
		}
		steps := make([]geom.Rect, 0, opts.StepsPerClient+1)
		start := ord * stride
		for k := 0; k <= opts.StepsPerClient; k++ {
			steps = append(steps, scanFull.Steps[(start+k)%len(scanFull.Steps)])
		}
		return &workload.Trace{Name: "sequential-scan", Steps: steps}
	}
	switch opts.Workload {
	case "", "walk":
		for i := range traces {
			seed := int64(i)
			if opts.SharedTraces > 0 {
				seed = int64(i % opts.SharedTraces)
			}
			start := geom.Point{
				X: env.Cfg.ViewportW/2 + float64(seed)*env.Cfg.ViewportW,
				Y: canvas.H() / 2,
			}
			traces[i] = workload.RandomWalkTrace(start, env.Cfg.ViewportW/2,
				opts.StepsPerClient, env.Cfg.ViewportW, env.Cfg.ViewportH,
				1000+seed, canvas)
		}
	case "zipf":
		for i := range traces {
			traces[i] = zipfTrace(i)
		}
	case "scan":
		for i := range traces {
			traces[i] = scanTrace(i, n)
		}
	case "mixed":
		for i := range traces {
			if i%4 == 3 {
				traces[i] = scanTrace(i/4, n/4)
			} else {
				traces[i] = zipfTrace(i)
			}
		}
	case "zoom":
		for i := range traces {
			traces[i] = workload.ZipfZoomTrace(workload.ZipfZoomOptions{
				Canvas:   canvas,
				HotSpots: 64, Skew: 1.2,
				Steps: opts.StepsPerClient,
				VpW:   env.Cfg.ViewportW, VpH: env.Cfg.ViewportH,
				// Deep enough that the top level shows most of the
				// canvas on the quick/default configs.
				ZoomLevels: 5,
				LayoutSeed: 7, Seed: 1000 + int64(i),
			})
		}
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q (want walk|zipf|scan|mixed|zoom)", opts.Workload)
	}
	return traces, nil
}
