package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/frontend"
	"kyrix/internal/workload"
)

// ConcurrentOptions configures a client sweep (ClusterRun).
type ConcurrentOptions struct {
	// ClientCounts are the parallel-frontend counts to sweep.
	ClientCounts []int
	// StepsPerClient is the pan steps each client replays (excluding
	// the initial load).
	StepsPerClient int
	// Scheme is the fetching granularity every client uses.
	Scheme fetch.Granularity
	// BatchSize is each client's tile-batching knob (tile schemes
	// only): > 1 puts a step's tiles in one /batch round trip, 0 fetches
	// each tile in a round trip of its own.
	BatchSize int
	// Workload selects each client's trace shape:
	//
	//	"zipf"  zipf-hot-set pan/zoom: all clients share one hot-spot
	//	        layout and revisit it with zipf skew
	//	"zoom"  zipf-zoom: clients zoom in and out around shared
	//	        zipf-hot centers — the zoom-heavy case auto-LOD serving
	//	        exists for
	//
	// Sweep clients run without a frontend cache, so the backend cache
	// sees the full request stream (the hit-ratio column measures the
	// backend policy, not the client's cache).
	Workload string
}

// SweepCacheBytes is the backend (L1) cache budget the cluster sweep
// runs under: small enough that the zipf hot set does not fit one
// node, so a 2-node cluster's doubled aggregate capacity (plus
// single-fill ownership) shows up as fewer database queries per step.
const SweepCacheBytes = 1 << 20

// DefaultConcurrentOptions is the cluster sweep's one configuration:
// zipf pans over dynamic boxes (DBox50), no tile batching, 1..16
// clients. Pair it with a Config whose BackendCacheBytes is
// SweepCacheBytes.
func DefaultConcurrentOptions() ConcurrentOptions {
	return ConcurrentOptions{
		ClientCounts:   []int{1, 2, 4, 8, 16},
		StepsPerClient: 12,
		Scheme:         fetch.DBox50,
		Workload:       "zipf",
	}
}

// ConcurrentRowStats is one client-count row of the sweep.
type ConcurrentRowStats struct {
	Clients     int
	StepsPerSec float64
	MeanMs      float64
	P50Ms       float64
	P95Ms       float64
	// DbqPerStep is database queries per measured step, summed over
	// every node.
	DbqPerStep float64
	// WireKBPerStep is bytes read off the wire by batch round trips
	// per measured step; TtffMs the mean time to first decoded frame
	// (batched fetches only).
	WireKBPerStep float64
	TtffMs        float64
	// CompressionRatio is wire bytes over logical payload bytes across
	// the measured steps: ~1 with raw frames (framing only), below 1
	// when compression and delta frames earn their keep. 0 when
	// unbatched.
	CompressionRatio float64
	// HitRatio is the backend cache hit ratio over the measured steps
	// (hits/(hits+misses) deltas, summed over every node).
	HitRatio float64
	// RowsScannedPerStep is database rows scanned per measured step,
	// summed over every node — the bounded-row metric for auto-LOD
	// runs: with LOD on it should stay flat as NumPoints grows; without
	// it it grows linearly.
	RowsScannedPerStep float64
	// Nodes carries per-node counters.
	Nodes []NodeRowStats
}

// NodeRowStats is one cluster node's share of a concurrent-sweep row.
type NodeRowStats struct {
	// Node is the node's base URL (its ring identity).
	Node string
	// HitRatio is this node's backend-cache hit ratio over the
	// measured steps.
	HitRatio float64
	// PeerFillRatio is peer fills / (peer fills + local database
	// queries) — the fraction of this node's cache fills served by
	// the owning peer instead of its own database.
	PeerFillRatio float64
	// DbqPerStep is this node's database queries per measured step
	// (cluster-wide steps, so the per-node columns sum to the row's
	// aggregate DbqPerStep).
	DbqPerStep float64
	// PeerFills/PeerServes/LocalFallbacks/HotReplicas are the raw
	// cluster counters over the measured window.
	PeerFills      int64
	PeerServes     int64
	LocalFallbacks int64
	HotReplicas    int64
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
		P50Ms:            quantile(sr.durs, 0.50),
		P95Ms:            quantile(sr.durs, 0.95),
		WireKBPerStep:    float64(sr.wire) / 1024 / sr.steps,
		TtffMs:           ttffMean,
		CompressionRatio: ratio,
	}
}

// quantile is the nearest-rank q-quantile of sorted (NaN when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// runClientSweep is ClusterRun's client-driving harness: one goroutine per trace, each
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
// workload. Both workloads share one zipf hot-spot layout across
// clients (the multi-tenant skew the admission policy protects); each
// client walks it in its own seeded order.
func buildTraces(env *Env, opts ConcurrentOptions, n int) ([]*workload.Trace, error) {
	canvas := env.Dataset.Canvas()
	traces := make([]*workload.Trace, n)
	for i := range traces {
		switch opts.Workload {
		case "zipf":
			traces[i] = workload.ZipfHotSetTrace(workload.ZipfOptions{
				Canvas:   canvas,
				TileSize: env.Cfg.ViewportW,
				HotSpots: 64, Skew: 1.2,
				Steps: opts.StepsPerClient,
				VpW:   env.Cfg.ViewportW, VpH: env.Cfg.ViewportH,
				LayoutSeed: 7, Seed: 1000 + int64(i),
			})
		case "zoom":
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
		default:
			return nil, fmt.Errorf("experiments: unknown workload %q (want zipf|zoom)", opts.Workload)
		}
	}
	return traces, nil
}
