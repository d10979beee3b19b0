package experiments

import (
	"context"
	"fmt"
	"time"

	"kyrix/internal/fetch"
	"kyrix/internal/frontend"
	"kyrix/internal/geom"
	"kyrix/internal/prefetch"
	"kyrix/internal/server"
	"kyrix/internal/spec"
	"kyrix/internal/sqldb"
	"kyrix/internal/storage"
	"kyrix/internal/workload"
)

// FigureSchemes runs the paper's eight schemes over the three Fig. 5
// traces against env and fills a Figure 6/7-shaped table.
func FigureSchemes(env *Env, title string) (*Table, error) {
	traces := workload.PaperTraces(env.Dataset, 1024, env.Cfg.ViewportW, env.Cfg.ViewportH)
	var cols []string
	for _, tr := range traces {
		if err := tr.Validate(env.Dataset.Canvas()); err != nil {
			return nil, err
		}
		cols = append(cols, tr.Name)
	}
	t := NewTable(title, "ms per pan step", SortedSchemeNames(), cols)
	for _, g := range fetch.PaperSchemes() {
		for _, tr := range traces {
			s, err := env.RunScheme(g, tr)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", g.Name(), tr.Name, err)
			}
			t.Set(g.Name(), tr.Name, s.MeanMs, s)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("dataset=%s n=%d canvas=%gx%g runs=%d codec=%s",
			env.Dataset.Name, len(env.Dataset.Points),
			env.Cfg.CanvasW, env.Cfg.CanvasH, env.Cfg.Runs, server.CodecJSON))
	return t, nil
}

// Figure4 validates the fetch-volume intuition behind the Fig. 4
// illustration: per pan step, how many requests each granularity
// issues and how many rows it pulls (the "why" behind Figures 6–7).
func Figure4(env *Env) (*Table, error) {
	traces := workload.PaperTraces(env.Dataset, 1024, env.Cfg.ViewportW, env.Cfg.ViewportH)
	schemes := []fetch.Granularity{fetch.DBoxExact, fetch.DBox50,
		fetch.TileSpatial256, fetch.TileSpatial1024, fetch.TileSpatial4096}
	rows := []string{}
	for _, g := range schemes {
		rows = append(rows, g.Name()+" req/step", g.Name()+" rows/step")
	}
	cols := []string{}
	for _, tr := range traces {
		cols = append(cols, tr.Name)
	}
	t := NewTable("Figure 4 diagnostics: fetch volume per granularity", "count", rows, cols)
	for _, g := range schemes {
		for _, tr := range traces {
			s, err := env.RunScheme(g, tr)
			if err != nil {
				return nil, err
			}
			t.Set(g.Name()+" req/step", tr.Name, s.RequestsPerStep, s)
			t.Set(g.Name()+" rows/step", tr.Name, s.RowsPerStep, s)
		}
	}
	return t, nil
}

// Figure5 renders the three traces' step rectangles as text.
func Figure5(cfg Config, kind string) (string, error) {
	var d *workload.Dataset
	switch kind {
	case "uniform":
		d = workload.Uniform(1, cfg.CanvasW, cfg.CanvasH, cfg.Seed)
	case "skewed":
		d = workload.Skewed(1, cfg.CanvasW, cfg.CanvasH, cfg.Seed)
	default:
		return "", fmt.Errorf("experiments: unknown dataset kind %q", kind)
	}
	out := fmt.Sprintf("Figure 5: viewport traces on %s (canvas %gx%g", kind, d.CanvasW, d.CanvasH)
	if d.DenseRect.Valid() {
		out += fmt.Sprintf(", dense area %s", d.DenseRect)
	}
	out += ")\n"
	for _, tr := range workload.PaperTraces(d, 1024, cfg.ViewportW, cfg.ViewportH) {
		out += fmt.Sprintf("%s (%d pan steps):\n", tr.Name, tr.NumPans())
		for i, s := range tr.Steps {
			out += fmt.Sprintf("  step %2d: %s\n", i, s)
		}
	}
	return out, nil
}

// AblationInflation sweeps the dynamic-box growth fraction on trace-c
// ("there are numerous ways to calculate a box", the paper's §3.3; A1).
func AblationInflation(env *Env) (*Table, error) {
	traces := workload.PaperTraces(env.Dataset, 1024, env.Cfg.ViewportW, env.Cfg.ViewportH)
	trc := traces[2]
	fractions := []float64{0, 0.25, 0.5, 1.0, 2.0}
	rows := []string{}
	for _, f := range fractions {
		rows = append(rows, fmt.Sprintf("inflate %d%%", int(f*100)))
	}
	rows = append(rows, "adaptive (budget)")
	t := NewTable("Ablation A1: dynamic-box inflation sweep", "value",
		rows, []string{"mean ms", "req/step", "rows/step"})
	runOne := func(label string, g fetch.Granularity) error {
		s, err := env.RunScheme(g, trc)
		if err != nil {
			return err
		}
		t.Set(label, "mean ms", s.MeanMs, s)
		t.Set(label, "req/step", s.RequestsPerStep, s)
		t.Set(label, "rows/step", s.RowsPerStep, s)
		return nil
	}
	for _, f := range fractions {
		g := fetch.Granularity{Kind: "dbox", Design: "spatial", Inflate: f}
		if err := runOne(fmt.Sprintf("inflate %d%%", int(f*100)), g); err != nil {
			return nil, err
		}
	}
	density := float64(len(env.Dataset.Points)) / (env.Cfg.CanvasW * env.Cfg.CanvasH)
	budget := int(density * env.Cfg.ViewportW * env.Cfg.ViewportH * 2)
	adaptive := fetch.Granularity{Kind: "dbox", Design: "spatial",
		Inflate: 2.0, Adaptive: true, RowBudget: budget}
	if err := runOne("adaptive (budget)", adaptive); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("trace-c; adaptive row budget = %d", budget))
	return t, nil
}

// AblationCache measures the two caches of §3.1 on a revisit-heavy
// trace: both caches on, frontend only, backend only, none (A2).
func AblationCache(env *Env) (*Table, error) {
	mid := geom.Point{
		X: env.Cfg.CanvasW/2 - env.Cfg.ViewportW/2,
		Y: env.Cfg.CanvasH/2 - env.Cfg.ViewportH/2,
	}
	far := geom.Point{X: mid.X + 3*env.Cfg.ViewportW, Y: mid.Y}
	tr := workload.RevisitTrace(mid, far, 10, env.Cfg.ViewportW, env.Cfg.ViewportH)

	t := NewTable("Ablation A2: cache configurations on a revisit trace",
		"value",
		[]string{"both caches", "frontend only", "backend only", "no caches"},
		[]string{"mean ms", "req/step"})
	// Tiles exercise the frontend cache; dbox never reuses boxes
	// across revisits (its frontend "cache" is the current box), so
	// tiles are the interesting scheme here.
	g := fetch.TileSpatial1024

	run := func(label string, feBytes int64, backendOn bool) error {
		// Swap cache budgets by running a bespoke client and
		// controlling the backend cache via Clear-before-every-pan
		// when off.
		env.Srv.BackendCache().Clear()
		c, err := frontend.NewClient(env.BaseURL, env.CA, frontend.Options{
			Scheme: g, Codec: server.CodecJSON, CacheBytes: feBytes,
		})
		if err != nil {
			return err
		}
		if _, err := c.Pan(tr.Steps[0]); err != nil {
			return err
		}
		var sumMs, reqs float64
		for _, step := range tr.Steps[1:] {
			if !backendOn {
				env.Srv.BackendCache().Clear()
			}
			rep, err := c.Pan(step)
			if err != nil {
				return err
			}
			sumMs += float64(rep.Duration.Microseconds()) / 1000
			reqs += float64(rep.Requests)
		}
		n := float64(tr.NumPans())
		s := Series{Scheme: label, Trace: tr.Name, MeanMs: sumMs / n, RequestsPerStep: reqs / n}
		t.Set(label, "mean ms", s.MeanMs, s)
		t.Set(label, "req/step", s.RequestsPerStep, s)
		return nil
	}
	if err := run("both caches", env.Cfg.FrontendCacheBytes, true); err != nil {
		return nil, err
	}
	if err := run("frontend only", env.Cfg.FrontendCacheBytes, false); err != nil {
		return nil, err
	}
	if err := run("backend only", 0, true); err != nil {
		return nil, err
	}
	if err := run("no caches", 0, false); err != nil {
		return nil, err
	}
	return t, nil
}

// AblationPrefetch evaluates momentum-based prefetching in the dynamic
// box context — exactly the study §4 proposes (A3).
func AblationPrefetch(env *Env) (*Table, error) {
	start := geom.Point{X: env.Cfg.CanvasW / 4, Y: env.Cfg.CanvasH / 2}
	n := 20
	cv := workload.ConstantVelocityTrace(start, env.Cfg.ViewportW, 0, n,
		env.Cfg.ViewportW, env.Cfg.ViewportH)
	rw := workload.RandomWalkTrace(start, env.Cfg.ViewportW, n,
		env.Cfg.ViewportW, env.Cfg.ViewportH, env.Cfg.Seed, env.Dataset.Canvas())

	t := NewTable("Ablation A3: momentum prefetching with dynamic boxes",
		"value",
		[]string{"no prefetch / constant-v", "momentum / constant-v",
			"no prefetch / random-walk", "momentum / random-walk"},
		[]string{"mean ms", "hit rate %"})

	run := func(label string, tr *workload.Trace, usePrefetch bool) error {
		env.Srv.BackendCache().Clear()
		c, err := frontend.NewClient(env.BaseURL, env.CA, frontend.Options{
			Scheme: fetch.DBoxExact, Codec: server.CodecJSON,
			CacheBytes: env.Cfg.FrontendCacheBytes,
		})
		if err != nil {
			return err
		}
		var pf *prefetch.Prefetcher
		if usePrefetch {
			pf = prefetch.NewPrefetcher(prefetch.NewMomentum(3), c, []int{0}, env.Dataset.Canvas())
		}
		if _, err := c.Pan(tr.Steps[0]); err != nil {
			return err
		}
		if pf != nil {
			pf.OnPan(c.Viewport())
		}
		var sumMs float64
		hits := 0
		for _, step := range tr.Steps[1:] {
			rep, err := c.Pan(step)
			if err != nil {
				return err
			}
			sumMs += float64(rep.Duration.Microseconds()) / 1000
			if rep.Requests == 0 {
				hits++
			}
			if pf != nil {
				pf.OnPan(c.Viewport())
			}
		}
		steps := float64(tr.NumPans())
		s := Series{Scheme: label, Trace: tr.Name,
			MeanMs: sumMs / steps, RequestsPerStep: float64(hits)}
		t.Set(label, "mean ms", s.MeanMs, s)
		t.Set(label, "hit rate %", 100*float64(hits)/steps, s)
		return nil
	}
	if err := run("no prefetch / constant-v", cv, false); err != nil {
		return nil, err
	}
	if err := run("momentum / constant-v", cv, true); err != nil {
		return nil, err
	}
	if err := run("no prefetch / random-walk", rw, false); err != nil {
		return nil, err
	}
	if err := run("momentum / random-walk", rw, true); err != nil {
		return nil, err
	}
	return t, nil
}

// AblationSeparability measures what the §3.2 separability optimization
// saves: precomputation time with the separable shortcut (index the raw
// attributes) vs the full materialization path (copy + bbox + indexes)
// on the same data (A4).
func AblationSeparability(cfg Config) (*Table, error) {
	d := workload.Uniform(cfg.NumPoints, cfg.CanvasW, cfg.CanvasH, cfg.Seed)
	t := NewTable("Ablation A4: separable shortcut vs full precompute",
		"seconds",
		[]string{"separable (skip precompute)", "non-separable (materialize)"},
		[]string{"precompute time"})

	run := func(label string, placement *spec.Placement, reg *spec.Registry) error {
		db := sqldb.NewDB()
		if _, err := db.Exec("CREATE TABLE points (id INT, x DOUBLE, y DOUBLE, val DOUBLE)"); err != nil {
			return err
		}
		if err := loadPoints(db, d); err != nil {
			return err
		}
		app := &spec.App{
			Name: "sep",
			Canvases: []spec.Canvas{{
				ID: "main", W: d.CanvasW, H: d.CanvasH,
				Transforms: []spec.Transform{{
					ID: "pts", Query: "SELECT * FROM points", Columns: pointColumns,
				}},
				Layers: []spec.Layer{{
					TransformID: "pts", Placement: placement, Renderer: "dots",
				}},
			}},
			InitialCanvas: "main",
			InitialX:      d.CanvasW / 2, InitialY: d.CanvasH / 2,
			ViewportW: cfg.ViewportW, ViewportH: cfg.ViewportH,
		}
		ca, err := spec.Compile(app, reg)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := fetch.Materialize(context.Background(), db, ca, 0, 0, fetch.Options{BuildSpatial: true}); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		t.Set(label, "precompute time", elapsed, Series{Scheme: label})
		return nil
	}
	regSep := spec.NewRegistry()
	regSep.RegisterRenderer("dots")
	if err := run("separable (skip precompute)",
		&spec.Placement{XCol: "x", YCol: "y", Radius: cfg.Radius}, regSep); err != nil {
		return nil, err
	}
	regFn := spec.NewRegistry()
	regFn.RegisterRenderer("dots")
	regFn.RegisterPlacement("xyPlacement", placementXY(cfg.Radius))
	if err := run("non-separable (materialize)",
		&spec.Placement{Func: "xyPlacement"}, regFn); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("n=%d; identical placement, two physical strategies", cfg.NumPoints))
	return t, nil
}

// placementXY builds the functional twin of the separable x/y
// placement: identical geometry, forced through the materialize path.
func placementXY(radius float64) spec.PlacementFunc {
	return func(row storage.Row) geom.Rect {
		return geom.RectAround(geom.Point{X: row[1].AsFloat(), Y: row[2].AsFloat()}, radius)
	}
}

// loadPoints bulk-inserts a dataset into the points table.
func loadPoints(db *sqldb.DB, d *workload.Dataset) error {
	for i := range d.Points {
		p := &d.Points[i]
		if err := db.InsertRow("points", storage.Row{
			storage.I64(p.ID), storage.F64(p.X), storage.F64(p.Y), storage.F64(p.Val),
		}); err != nil {
			return err
		}
	}
	return nil
}

// AblationCodec compares the JSON and binary wire codecs on a dbox
// trace (server-side serialization hygiene, §3.2; A5).
func AblationCodec(env *Env) (*Table, error) {
	traces := workload.PaperTraces(env.Dataset, 1024, env.Cfg.ViewportW, env.Cfg.ViewportH)
	trc := traces[2]
	t := NewTable("Ablation A5: wire codec", "value",
		[]string{"json", "binary"}, []string{"mean ms", "bytes/step"})
	for _, codec := range []server.Codec{server.CodecJSON, server.CodecBinary} {
		env.Srv.BackendCache().Clear()
		c, err := frontend.NewClient(env.BaseURL, env.CA, frontend.Options{
			Scheme: fetch.DBoxExact, Codec: codec, CacheBytes: env.Cfg.FrontendCacheBytes,
		})
		if err != nil {
			return nil, err
		}
		if _, err := c.Pan(trc.Steps[0]); err != nil {
			return nil, err
		}
		var sumMs, bytes float64
		for _, step := range trc.Steps[1:] {
			rep, err := c.Pan(step)
			if err != nil {
				return nil, err
			}
			sumMs += float64(rep.Duration.Microseconds()) / 1000
			bytes += float64(rep.Bytes)
		}
		n := float64(trc.NumPans())
		s := Series{Scheme: string(codec), Trace: trc.Name, MeanMs: sumMs / n}
		t.Set(string(codec), "mean ms", s.MeanMs, s)
		t.Set(string(codec), "bytes/step", bytes/n, s)
	}
	return t, nil
}
