// Benchmarks regenerating every figure of the paper's evaluation (§3.3
// of the paper named in PAPER.md) plus the ablations A1..A5 (each
// documented on its experiments.Ablation* function), one benchmark per
// table/figure:
//
//	go test -bench=Figure6 -benchmem        # Fig. 6 (Uniform), per scheme/trace
//	go test -bench=Figure7 -benchmem        # Fig. 7 (Skewed)
//	go test -bench=Ablation -benchmem       # A1..A5
//
// Each sub-benchmark replays one (scheme, trace) series; ns/op is the
// full-trace replay cost, and the reported custom metrics give the
// paper's actual quantity (mean ms per pan step) plus the fetch-volume
// diagnostics. KYRIX_BENCH_SCALE=default (or paper) selects bigger
// workloads; the default is the quick CI scale.
//
// For paper-style formatted tables use: go run ./cmd/kyrix-bench
package kyrix_test

import (
	"os"
	"sync"
	"testing"

	"kyrix/internal/experiments"
	"kyrix/internal/fetch"
	"kyrix/internal/workload"
)

func benchConfig() experiments.Config {
	switch os.Getenv("KYRIX_BENCH_SCALE") {
	case "default":
		return experiments.DefaultConfig()
	case "paper":
		return experiments.PaperConfig()
	}
	return experiments.QuickConfig()
}

var (
	benchOnce sync.Once
	benchUni  *experiments.Env
	benchSkew *experiments.Env
	benchErr  error
)

func benchEnvs(b *testing.B) (*experiments.Env, *experiments.Env) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := benchConfig()
		cfg.Runs = 1
		benchUni, benchErr = experiments.NewEnv(cfg, "uniform")
		if benchErr != nil {
			return
		}
		benchSkew, benchErr = experiments.NewEnv(cfg, "skewed")
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchUni, benchSkew
}

// benchFigure runs every paper scheme × trace as sub-benchmarks.
func benchFigure(b *testing.B, env *experiments.Env) {
	traces := workload.PaperTraces(env.Dataset, 1024, env.Cfg.ViewportW, env.Cfg.ViewportH)
	for _, g := range fetch.PaperSchemes() {
		for _, tr := range traces {
			g, tr := g, tr
			b.Run(g.Name()+"/"+tr.Name, func(b *testing.B) {
				b.ReportAllocs()
				var last experiments.Series
				for i := 0; i < b.N; i++ {
					s, err := env.RunScheme(g, tr)
					if err != nil {
						b.Fatal(err)
					}
					last = s
				}
				b.ReportMetric(last.MeanMs, "ms/step")
				b.ReportMetric(last.RequestsPerStep, "req/step")
				b.ReportMetric(last.RowsPerStep, "rows/step")
			})
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: all eight fetching schemes on
// the Uniform dataset over traces a, b, c.
func BenchmarkFigure6(b *testing.B) {
	uni, _ := benchEnvs(b)
	benchFigure(b, uni)
}

// BenchmarkFigure7 regenerates Figure 7: the same grid on Skewed.
func BenchmarkFigure7(b *testing.B) {
	_, skew := benchEnvs(b)
	benchFigure(b, skew)
}

// BenchmarkFigure4 measures the fetch-volume diagnostics behind the
// Fig. 4 granularity illustration (requests and rows per step).
func BenchmarkFigure4(b *testing.B) {
	uni, _ := benchEnvs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(uni); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 measures trace generation (the Fig. 5 viewport
// movement traces).
func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	d := workload.Skewed(100, cfg.CanvasW, cfg.CanvasH, cfg.Seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.PaperTraces(d, 1024, cfg.ViewportW, cfg.ViewportH)
	}
}

// BenchmarkColdStart measures the restart experiment: a first boot
// serving a zipf hot set cold, then a full restart (fresh DB, re-run
// precompute, empty L1) over the same persistent L2 directory
// replaying the identical trace. The custom metrics are the restart
// phase's warm-up cost: database queries to warm (db-queries-to-warm)
// and the median latency of the first 100 steps (p50-first-100-ms).
// With L2 working both should sit far below the first boot's.
func BenchmarkColdStart(b *testing.B) {
	cfg := benchConfig()
	cfg.NumPoints = min(cfg.NumPoints, 120_000) // two precomputes per iter
	b.ReportAllocs()
	var last *experiments.RestartResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RestartExperiment(cfg,
			experiments.DefaultRestartOptions(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	warm := last.Phases[1]
	b.ReportMetric(float64(warm.DBQueriesToWarm), "db-queries-to-warm")
	b.ReportMetric(warm.P50FirstStepsMs, "p50-first-100-ms")
}

// BenchmarkAblationInflation regenerates A1: the dynamic-box inflation
// sweep.
func BenchmarkAblationInflation(b *testing.B) {
	uni, _ := benchEnvs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationInflation(uni); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCache regenerates A2: frontend/backend cache
// configurations on a revisit trace.
func BenchmarkAblationCache(b *testing.B) {
	uni, _ := benchEnvs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCache(uni); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrefetch regenerates A3: momentum prefetching with
// dynamic boxes (the §4 proposed study).
func BenchmarkAblationPrefetch(b *testing.B) {
	uni, _ := benchEnvs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPrefetch(uni); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSeparability regenerates A4: the §3.2 separable
// shortcut vs full materialization (precompute time).
func BenchmarkAblationSeparability(b *testing.B) {
	cfg := benchConfig()
	cfg.NumPoints = 30_000 // precompute-bound; keep iterations fast
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSeparability(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCodec regenerates A5: JSON vs binary wire codecs.
func BenchmarkAblationCodec(b *testing.B) {
	uni, _ := benchEnvs(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCodec(uni); err != nil {
			b.Fatal(err)
		}
	}
}
