package experiments

import (
	"fmt"
	"sort"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/frontend"
	"kyrix/internal/server"
	"kyrix/internal/workload"
)

// Restart experiment: the persistent tile store's (L2's) reason to
// exist, measured end to end. A backend serves a zipf hot set cold,
// shuts down (draining the write-behind queue), and a fresh process —
// empty L1, re-run precompute — comes back over the same L2 directory
// and replays the same hot set. With L2 enabled the restarted node
// answers from checksummed disk records instead of the database; the
// headline metrics are database queries to warm and the p50 of the
// first hundred steps, the window a user staring at a rebooted
// dashboard actually feels.

// RestartOptions configures a cold-start/restart measurement.
type RestartOptions struct {
	// Steps is the number of measured zipf pan steps per phase.
	Steps int
	// Scheme is the fetching granularity (default tile spatial 1024).
	Scheme fetch.Granularity
	// BatchSize > 1 puts a step's tiles in one /batch round trip; 0
	// fetches each tile in a round trip of its own.
	BatchSize int
	// L2Dir enables the persistent store at that directory for both
	// phases; empty runs the no-L2 baseline (the restart phase is then
	// a second cold start).
	L2Dir string
}

// DefaultRestartOptions replays 100 zipf steps — the "first 100 steps
// after reboot" window — over spatial 1024 tiles with batching.
func DefaultRestartOptions(l2dir string) RestartOptions {
	return RestartOptions{
		Steps:     100,
		Scheme:    fetch.TileSpatial1024,
		BatchSize: 8,
		L2Dir:     l2dir,
	}
}

// RestartPhase is one boot's measurements.
type RestartPhase struct {
	// Phase is "first-boot" or "restart".
	Phase string
	// DBQueriesToWarm is how many database queries the phase's replay
	// issued — the cost of warming this boot.
	DBQueriesToWarm int64
	// P50FirstStepsMs is the median response time over the first
	// min(100, Steps) pan steps.
	P50FirstStepsMs float64
	// MeanMs averages all measured steps.
	MeanMs float64
	// L2Hits / L2Keys are the persistent store's counters after the
	// replay (0 when L2 is disabled).
	L2Hits int64
	L2Keys int64
	// Steps is the measured step count.
	Steps int
}

// RestartResult is a whole restart experiment — what kyrix-bench
// -restart prints.
type RestartResult struct {
	Config string
	L2     bool
	Phases []RestartPhase
}

// Format renders the result as an aligned comparison table.
func (r *RestartResult) Format() string {
	tier := "no L2 (baseline)"
	if r.L2 {
		tier = "persistent L2"
	}
	out := fmt.Sprintf("Restart cold-start: %s over %q\n", tier, r.Config)
	out += fmt.Sprintf("  %-12s %14s %18s %10s %8s\n", "phase", "dbq-to-warm", "p50-first-steps", "mean ms", "l2 hits")
	for _, p := range r.Phases {
		out += fmt.Sprintf("  %-12s %14d %15.2fms %10.2f %8d\n",
			p.Phase, p.DBQueriesToWarm, p.P50FirstStepsMs, p.MeanMs, p.L2Hits)
	}
	return out
}

// restartTrace is the shared zipf hot set both phases replay: same
// layout, same visit order, so the restarted node is asked exactly
// what the first boot persisted.
func restartTrace(cfg Config, d *workload.Dataset, steps int) *workload.Trace {
	return workload.ZipfHotSetTrace(workload.ZipfOptions{
		Canvas:   d.Canvas(),
		TileSize: cfg.ViewportW,
		HotSpots: 64, Skew: 1.2,
		Steps: steps,
		VpW:   cfg.ViewportW, VpH: cfg.ViewportH,
		LayoutSeed: 7, Seed: 1000,
	})
}

// replayPhase drives the trace through a fresh frontend (frontend
// cache off — the backend tiers are what is measured) and snapshots
// the phase's counters.
func replayPhase(env *Env, opts RestartOptions, tr *workload.Trace, phase string) (RestartPhase, error) {
	p := RestartPhase{Phase: phase}
	c, err := frontend.NewClient(env.BaseURL, env.CA, frontend.Options{
		Scheme:    opts.Scheme,
		Codec:     server.CodecJSON,
		BatchSize: opts.BatchSize,
	})
	if err != nil {
		return p, err
	}
	dbqBefore := env.Srv.Stats.DBQueries.Load()
	var durs []float64
	for _, step := range tr.Steps {
		start := time.Now()
		if _, err := c.Pan(step); err != nil {
			return p, err
		}
		durs = append(durs, float64(time.Since(start).Microseconds())/1000)
	}
	p.Steps = len(durs)
	p.DBQueriesToWarm = env.Srv.Stats.DBQueries.Load() - dbqBefore
	var sum float64
	for _, d := range durs {
		sum += d
	}
	p.MeanMs = sum / float64(len(durs))
	first := durs
	if len(first) > 100 {
		first = first[:100]
	}
	sorted := append([]float64(nil), first...)
	sort.Float64s(sorted)
	p.P50FirstStepsMs = quantile(sorted, 0.50)
	if l2 := env.Srv.L2(); l2 != nil {
		snap := l2.Snapshot()
		p.L2Hits = snap.Hits
		p.L2Keys = int64(snap.Keys)
	}
	return p, nil
}

// RestartExperiment measures the two boots. Phase 1 ("first-boot")
// serves the zipf trace cold and shuts the environment down — the
// drain on Close is part of what is under test. Phase 2 ("restart")
// rebuilds everything from scratch (fresh embedded DB, re-run
// precompute, empty L1) over the same L2 directory and replays the
// identical trace.
func RestartExperiment(cfg Config, opts RestartOptions) (*RestartResult, error) {
	if opts.Steps <= 0 {
		opts.Steps = 100
	}
	if opts.Scheme.Kind == "" {
		opts.Scheme = fetch.TileSpatial1024
	}
	cfg.L2Dir = opts.L2Dir
	cfg.FrontendCacheBytes = 0
	d := workload.Uniform(cfg.NumPoints, cfg.CanvasW, cfg.CanvasH, cfg.Seed)
	tr := restartTrace(cfg, d, opts.Steps)
	res := &RestartResult{Config: cfg.Name, L2: opts.L2Dir != ""}

	env, err := NewEnvFor(cfg, d)
	if err != nil {
		return nil, err
	}
	p1, err := replayPhase(env, opts, tr, "first-boot")
	env.Close()
	if err != nil {
		return nil, err
	}
	res.Phases = append(res.Phases, p1)

	env2, err := NewEnvFor(cfg, d)
	if err != nil {
		return nil, err
	}
	defer env2.Close()
	p2, err := replayPhase(env2, opts, tr, "restart")
	if err != nil {
		return nil, err
	}
	res.Phases = append(res.Phases, p2)
	return res, nil
}
