package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"kyrix/internal/fetch"
	"kyrix/internal/workload"
)

// Shared quick environments: building them once keeps the suite fast.
var (
	envOnce sync.Once
	envUni  *Env
	envSkew *Env
	envErr  error
)

func quickEnvs(t *testing.T) (*Env, *Env) {
	t.Helper()
	envOnce.Do(func() {
		envUni, envErr = NewEnv(QuickConfig(), "uniform")
		if envErr != nil {
			return
		}
		envSkew, envErr = NewEnv(QuickConfig(), "skewed")
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envUni, envSkew
}

func TestNewEnvValidates(t *testing.T) {
	if _, err := NewEnv(QuickConfig(), "zipf"); err == nil {
		t.Fatal("unknown dataset kind must fail")
	}
}

func TestRunSchemeBasics(t *testing.T) {
	env, _ := quickEnvs(t)
	traces := workload.PaperTraces(env.Dataset, 1024, env.Cfg.ViewportW, env.Cfg.ViewportH)
	s, err := env.RunScheme(fetch.DBoxExact, traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanMs <= 0 || s.RowsPerStep <= 0 {
		t.Fatalf("series = %+v", s)
	}
	// Exact dbox refetches every step on trace-a (steps are a full
	// viewport apart): exactly 1 request per step.
	if s.RequestsPerStep != 1 {
		t.Fatalf("dbox requests/step = %g", s.RequestsPerStep)
	}
	if s.OverBudget != 0 {
		t.Fatalf("local steps must stay under 500ms, got %d over", s.OverBudget)
	}
}

// The count-based halves of the paper's claims are deterministic: check
// them exactly.
func TestFetchVolumeInvariants(t *testing.T) {
	env, _ := quickEnvs(t)
	traces := workload.PaperTraces(env.Dataset, 1024, env.Cfg.ViewportW, env.Cfg.ViewportH)
	trB, trC := traces[1], traces[2]

	get := func(g fetch.Granularity, tr *workload.Trace) Series {
		s, err := env.RunScheme(g, tr)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, tr := range []*workload.Trace{trB, trC} {
		dbox := get(fetch.DBoxExact, tr)
		t256 := get(fetch.TileSpatial256, tr)
		t1024 := get(fetch.TileSpatial1024, tr)
		t4096 := get(fetch.TileSpatial4096, tr)

		// (Fig. 4 reasoning 1) dbox fetches the least data.
		for _, other := range []Series{t256, t1024, t4096} {
			if dbox.RowsPerStep > other.RowsPerStep+1 {
				t.Errorf("%s: dbox rows/step %.1f > %s %.1f",
					tr.Name, dbox.RowsPerStep, other.Scheme, other.RowsPerStep)
			}
		}
		// (Fig. 4 reasoning 2) dbox issues fewer requests than small
		// tiles.
		if dbox.RequestsPerStep >= t256.RequestsPerStep {
			t.Errorf("%s: dbox req/step %.1f >= tile256 %.1f",
				tr.Name, dbox.RequestsPerStep, t256.RequestsPerStep)
		}
		// Big tiles pull the most rows per step on unaligned traces.
		if t4096.RowsPerStep < t1024.RowsPerStep {
			t.Errorf("%s: tile4096 rows %.1f < tile1024 rows %.1f",
				tr.Name, t4096.RowsPerStep, t1024.RowsPerStep)
		}
	}
}

func TestSkewedDenserThanUniform(t *testing.T) {
	uni, skew := quickEnvs(t)
	trU := workload.PaperTraces(uni.Dataset, 1024, uni.Cfg.ViewportW, uni.Cfg.ViewportH)[0]
	trS := workload.PaperTraces(skew.Dataset, 1024, skew.Cfg.ViewportW, skew.Cfg.ViewportH)[0]
	su, err := uni.RunScheme(fetch.DBoxExact, trU)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := skew.RunScheme(fetch.DBoxExact, trS)
	if err != nil {
		t.Fatal(err)
	}
	// Trace-a runs inside the dense region (4x density): the skewed
	// trace must pull substantially more rows per step.
	if ss.RowsPerStep < su.RowsPerStep*2 {
		t.Fatalf("skewed rows/step %.1f not ≫ uniform %.1f", ss.RowsPerStep, su.RowsPerStep)
	}
}

func TestFigureSchemesTable(t *testing.T) {
	env, _ := quickEnvs(t)
	tab, err := FigureSchemes(env, "Figure 6 (quick)")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 || len(tab.Cols) != 3 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Cols))
	}
	for _, r := range tab.Rows {
		for _, c := range tab.Cols {
			if math.IsNaN(tab.Get(r, c)) {
				t.Fatalf("missing cell %s/%s", r, c)
			}
			if _, ok := tab.Series(r, c); !ok {
				t.Fatalf("missing series %s/%s", r, c)
			}
		}
	}
	text := tab.Format()
	for _, want := range []string{"Figure 6 (quick)", "dbox", "tile mapping 4096", "trace-c"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, text)
		}
	}
}

func TestShapeReportRuns(t *testing.T) {
	// ShapeReport's verdicts are timing-dependent; here we only check
	// it evaluates all five claims on synthetic tables with known
	// outcomes.
	rows := SortedSchemeNames()
	cols := []string{"trace-a", "trace-b", "trace-c"}
	uni := NewTable("u", "ms", rows, cols)
	skew := NewTable("s", "ms", rows, cols)
	base := map[string]float64{
		"dbox": 1, "dbox 50%": 2.4,
		"tile spatial 1024": 1.8, "tile spatial 256": 8, "tile spatial 4096": 6,
		"tile mapping 1024": 2.2, "tile mapping 256": 9, "tile mapping 4096": 7,
	}
	for r, v := range base {
		for _, c := range cols {
			val := v
			if r == "tile spatial 1024" && c == "trace-a" {
				val = 1.1 // competitive on the aligned trace
			}
			uni.Set(r, c, val, Series{})
			skew.Set(r, c, val*3, Series{})
		}
	}
	report := ShapeReport(uni, skew)
	if len(report) != 5 {
		t.Fatalf("report lines = %d", len(report))
	}
	for _, line := range report {
		if !strings.HasPrefix(line, "[HOLDS]") {
			t.Fatalf("claim failed on known-good synthetic data: %s", line)
		}
	}
	// And violations are reported as such.
	uni.Set("dbox", "trace-a", 100, Series{})
	uni.Set("dbox", "trace-b", 100, Series{})
	uni.Set("dbox", "trace-c", 100, Series{})
	report = ShapeReport(uni, skew)
	violated := false
	for _, line := range report {
		if strings.HasPrefix(line, "[VIOLATED]") {
			violated = true
		}
	}
	if !violated {
		t.Fatal("expected a violated claim")
	}
}

func TestFigure4Diagnostics(t *testing.T) {
	env, _ := quickEnvs(t)
	tab, err := Figure4(env)
	if err != nil {
		t.Fatal(err)
	}
	// dbox issues exactly 1 request/step on trace-a.
	if got := tab.Get("dbox req/step", "trace-a"); got != 1 {
		t.Fatalf("dbox req/step = %g", got)
	}
	// tile 256 issues many more.
	if got := tab.Get("tile spatial 256 req/step", "trace-b"); got < 5 {
		t.Fatalf("tile256 req/step = %g", got)
	}
}

func TestFigure5Text(t *testing.T) {
	out, err := Figure5(QuickConfig(), "skewed")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace-a", "trace-b", "trace-c", "dense area", "step 12"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure5 missing %q:\n%s", want, out)
		}
	}
	if _, err := Figure5(QuickConfig(), "bogus"); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestAblationInflation(t *testing.T) {
	env, _ := quickEnvs(t)
	tab, err := AblationInflation(env)
	if err != nil {
		t.Fatal(err)
	}
	// Larger boxes fetch more rows but need fewer requests.
	r0 := tab.Get("inflate 0%", "rows/step")
	r200 := tab.Get("inflate 200%", "rows/step")
	q0 := tab.Get("inflate 0%", "req/step")
	q200 := tab.Get("inflate 200%", "req/step")
	if r200 <= r0 {
		t.Fatalf("rows: 200%% (%g) should exceed 0%% (%g)", r200, r0)
	}
	if q200 >= q0 {
		t.Fatalf("requests: 200%% (%g) should be below 0%% (%g)", q200, q0)
	}
}

func TestAblationCache(t *testing.T) {
	env, _ := quickEnvs(t)
	tab, err := AblationCache(env)
	if err != nil {
		t.Fatal(err)
	}
	// With the frontend cache, a revisit trace needs almost no
	// requests (only the first visit to the far location is cold);
	// without any cache every step refetches.
	withFE := tab.Get("both caches", "req/step")
	without := tab.Get("no caches", "req/step")
	if withFE >= without {
		t.Fatalf("req/step: both=%g nocache=%g", withFE, without)
	}
	if withFE >= 1 {
		t.Fatalf("revisit trace with frontend cache should need <1 req/step, got %g", withFE)
	}
}

func TestAblationPrefetch(t *testing.T) {
	env, _ := quickEnvs(t)
	tab, err := AblationPrefetch(env)
	if err != nil {
		t.Fatal(err)
	}
	// Constant-velocity: momentum prediction is perfect after warmup.
	hit := tab.Get("momentum / constant-v", "hit rate %")
	if hit < 80 {
		t.Fatalf("constant-velocity hit rate = %g%%", hit)
	}
	noHit := tab.Get("no prefetch / constant-v", "hit rate %")
	if noHit != 0 {
		t.Fatalf("no-prefetch hit rate = %g%%", noHit)
	}
	// Momentum must help more on constant velocity than random walk.
	rwHit := tab.Get("momentum / random-walk", "hit rate %")
	if rwHit > hit {
		t.Fatalf("random-walk hit %g%% > constant-v hit %g%%", rwHit, hit)
	}
}

func TestAblationSeparability(t *testing.T) {
	cfg := QuickConfig()
	cfg.NumPoints = 30_000
	tab, err := AblationSeparability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sep := tab.Get("separable (skip precompute)", "precompute time")
	full := tab.Get("non-separable (materialize)", "precompute time")
	if math.IsNaN(sep) || math.IsNaN(full) {
		t.Fatal("missing cells")
	}
	// The separable shortcut must be faster: it skips the table copy.
	if sep >= full {
		t.Fatalf("separable %.3fs >= materialize %.3fs", sep, full)
	}
}

func TestAblationCodec(t *testing.T) {
	env, _ := quickEnvs(t)
	tab, err := AblationCodec(env)
	if err != nil {
		t.Fatal(err)
	}
	jb := tab.Get("json", "bytes/step")
	bb := tab.Get("binary", "bytes/step")
	if bb >= jb {
		t.Fatalf("binary bytes/step %g >= json %g", bb, jb)
	}
}

func TestTableHelpers(t *testing.T) {
	tab := NewTable("t", "ms", []string{"a"}, []string{"x"})
	if !math.IsNaN(tab.Get("a", "x")) {
		t.Fatal("unset cell should be NaN")
	}
	if !math.IsNaN(tab.Get("zz", "x")) {
		t.Fatal("bad label should be NaN")
	}
	tab.Set("zz", "x", 5, Series{}) // silently ignored
	tab.Set("a", "x", 5, Series{Scheme: "a"})
	if tab.Get("a", "x") != 5 {
		t.Fatal("set/get")
	}
	text := tab.Format()
	if !strings.Contains(text, "5.00") {
		t.Fatalf("format: %s", text)
	}
}

func TestConcurrentClients(t *testing.T) {
	env, _ := quickEnvs(t)
	tbl, stats, err := ConcurrentClients(env, ConcurrentOptions{
		ClientCounts:   []int{1, 4},
		StepsPerClient: 4,
		Scheme:         fetch.TileSpatial1024,
		BatchSize:      4,
		SharedTraces:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || len(tbl.Cols) != 9 {
		t.Fatalf("table shape = %dx%d", len(tbl.Rows), len(tbl.Cols))
	}
	if len(stats) != 2 || stats[0].Clients != 1 || stats[1].Clients != 4 {
		t.Fatalf("stats rows = %+v", stats)
	}
	for _, rs := range stats {
		if rs.StepsPerSec <= 0 || rs.P50Ms <= 0 || rs.P95Ms < rs.P50Ms {
			t.Fatalf("implausible stats row: %+v", rs)
		}
		// Batched tile fetches over /batch: the ratio must be measured
		// and below 1 under frame compression.
		if rs.CompressionRatio <= 0 || rs.CompressionRatio >= 1.5 {
			t.Fatalf("compression ratio out of range: %+v", rs)
		}
	}
	for ri := range tbl.Rows {
		for ci := range tbl.Cols {
			if math.IsNaN(tbl.Cells[ri][ci]) {
				t.Fatalf("cell %s/%s missing", tbl.Rows[ri], tbl.Cols[ci])
			}
		}
	}
	// 4 clients on 2 shared traces issue identical concurrent requests;
	// with coalescing + cache the backend must not run one query per
	// client per step.
	out := tbl.Format()
	if !strings.Contains(out, "clients") {
		t.Fatalf("format output missing rows:\n%s", out)
	}
	// Bad options error.
	if _, _, err := ConcurrentClients(env, ConcurrentOptions{}); err == nil {
		t.Fatal("empty options must fail")
	}
}

func TestConcurrentWorkloads(t *testing.T) {
	env, _ := quickEnvs(t)
	// The zipf workload revisits a shared hot set: the backend cache
	// must record a measurable hit ratio (the frontend cache is
	// disabled for cache workloads, so revisits reach the backend).
	_, stats, err := ConcurrentClients(env, ConcurrentOptions{
		ClientCounts:   []int{2},
		StepsPerClient: 24,
		Scheme:         fetch.TileSpatial1024,
		BatchSize:      4,
		Workload:       "zipf",
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].HitRatio <= 0 {
		t.Fatalf("zipf workload measured no backend cache hits: %+v", stats[0])
	}
	// The mixed workload needs at least one scanning client (i%4==3).
	_, stats, err = ConcurrentClients(env, ConcurrentOptions{
		ClientCounts:   []int{4},
		StepsPerClient: 8,
		Scheme:         fetch.TileSpatial1024,
		BatchSize:      4,
		Workload:       "mixed",
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].HitRatio < 0 || stats[0].HitRatio > 1 {
		t.Fatalf("hit ratio out of range: %+v", stats[0])
	}
	// Unknown workload errors.
	if _, _, err := ConcurrentClients(env, ConcurrentOptions{
		ClientCounts: []int{1}, StepsPerClient: 1, Scheme: fetch.TileSpatial1024,
		Workload: "bogus",
	}); err == nil {
		t.Fatal("unknown workload must fail")
	}
}
