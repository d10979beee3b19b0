package experiments

import (
	"testing"

	"kyrix/internal/fetch"
)

// BenchmarkLODZoom replays the zoom-heavy zipf workload with the
// point layer's "lod": "auto" knob off vs on — the bench-regression
// row for the bounded-row property. Alongside time/op it reports
// rows-scanned/op (database rows scanned per pan step) and p50-ms:
// with LOD off, zoomed-out viewports scan rows proportional to the
// dataset; with LOD on they read bounded aggregate levels, so the
// custom metrics should drop sharply and stay flat as the dataset
// grows across PRs.
func BenchmarkLODZoom(b *testing.B) {
	for _, lod := range []bool{false, true} {
		name := map[bool]string{false: "lod=off", true: "lod=on"}[lod]
		b.Run(name, func(b *testing.B) {
			cfg := QuickConfig()
			cfg.Name = "lod-bench"
			cfg.NumPoints = 40_000
			cfg.LOD = lod
			// Only the dynamic-box scheme runs; skip the tile-mapping
			// precompute.
			cfg.TileSizes = nil
			env, err := NewEnv(cfg, "uniform")
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			opts := ConcurrentOptions{
				ClientCounts:   []int{2},
				StepsPerClient: 12,
				Scheme:         fetch.DBox50,
				Workload:       "zoom",
			}
			var rowsScanned, p50 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := ConcurrentClients(env, opts)
				if err != nil {
					b.Fatal(err)
				}
				rowsScanned += stats[0].RowsScannedPerStep
				p50 += stats[0].P50Ms
			}
			b.StopTimer()
			b.ReportMetric(rowsScanned/float64(b.N), "rows-scanned/op")
			b.ReportMetric(p50/float64(b.N), "p50-ms")
		})
	}
}
