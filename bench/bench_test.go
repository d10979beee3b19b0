package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeScale is a 20k-point dataset and 50-step rounds: small enough
// that all four workloads, traced and untraced, run inside a few
// seconds. It is dense enough that a one-level zoom-out already exceeds
// LODRowBudget (zoom_lod reaches the pyramid within 50 steps) and wide
// enough that a zoomed-in viewport still refetches after a zoomed-out
// box, and that a client's 16 tiles do not fit its frontend cache.
var smokeScale = scale{Points: 20_000, CanvasW: 8192, CanvasH: 4096, MaxSteps: 50, Setups: 1}

// TestSmoke runs every workload both ways at smoke scale and holds the
// output to BENCHMARK.json: every named metric emitted, finite and
// unit-tagged, nothing failed, the span tree well-formed, and the
// predictions each workload exists for true.
func TestSmoke(t *testing.T) {
	ct, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(ct.Workloads), len(specs))
	}
	for i, w := range ct.Workloads {
		if w.Name != specs[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].Name)
		}
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{Spec: sp, Scale: smokeScale, Seed: defaultSeed, Seconds: 0.01, OutDir: dir, TmpRoot: dir}

			doc, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !doc.Correct || doc.Attempted == 0 {
				t.Fatalf("end-to-end run: %d of %d failed: %s", doc.Failed, doc.Attempted, doc.FirstError)
			}
			e2e, err := pick(doc.Metrics, ct.EndToEnd)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %g; it must never be 0", name, m.Value)
				}
			}

			cfg.Trace = true
			doc, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !doc.Correct {
				t.Fatalf("traced run: %d of %d failed: %s", doc.Failed, doc.Attempted, doc.FirstError)
			}
			layer, err := pick(doc.Metrics, ct.PerLayer)
			if err != nil {
				t.Fatal(err)
			}
			if len(layer) != len(doc.Metrics) {
				t.Errorf("the traced run measured %d metrics, BENCHMARK.json names %d of them", len(doc.Metrics), len(layer))
			}
			if len(doc.Stages) == 0 {
				t.Error("no stage cross-check table")
			}
			checkPredictions(t, sp.Name, layer)
			checkSpans(t, filepath.Join(dir, "trace-"+sp.Name+".json"))
		})
	}
}

func checkPredictions(t *testing.T, workload string, m metrics) {
	v := func(name string) float64 { return m[name].Value }
	if v("frontend.failed_ratio") != 0 || v("frontend.steps_in_budget_ratio") != 1 {
		t.Errorf("failed_ratio %g, steps_in_budget_ratio %g", v("frontend.failed_ratio"), v("frontend.steps_in_budget_ratio"))
	}
	switch workload {
	case "pan_hot":
		if v("cache.l1_hit_ratio") < 0.95 || v("server.delta_frame_ratio") <= 0 || v("server.db_queries_per_step") >= 0.1 {
			t.Errorf("pan_hot should be cache-resident with deltas: l1 hit %g, delta frames %g, dbq/step %g",
				v("cache.l1_hit_ratio"), v("server.delta_frame_ratio"), v("server.db_queries_per_step"))
		}
	case "scan_tiles":
		if v("cache.l1_hit_ratio") > 0.05 || v("server.delta_frame_ratio") != 0 {
			t.Errorf("scan_tiles should be the pure miss path: l1 hit %g, delta frames %g",
				v("cache.l1_hit_ratio"), v("server.delta_frame_ratio"))
		}
	case "zoom_lod":
		// At this scale L1 holds every box after the verify pass, so the
		// measured pass may route nothing to the pyramid; the row budget
		// is what must hold.
		if rows := v("frontend.rows_per_step"); rows <= 0 || rows > lodRowBudget {
			t.Errorf("zoom_lod fetched %g rows per step, want within (0, %d]", rows, lodRowBudget)
		}
	case "pan_update":
		if v("replog.applied_lag") != 0 || v("server.update_ack_p50_ms") <= 0 || v("store.l2_puts_per_step") <= 0 {
			t.Errorf("pan_update should ack updates through the log and fill L2: lag %g, ack p50 %g, l2 puts/step %g",
				v("replog.applied_lag"), v("server.update_ack_p50_ms"), v("store.l2_puts_per_step"))
		}
	}
}

// checkSpans reads a span file back and checks the tree: children start
// inside their parents, self times are never negative, and the three
// layers of a pan — its own work, the transport, the server's handler —
// account for its wall time.
func checkSpans(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	total, self, ok := selfTimes(file.Spans)
	if !ok {
		t.Error("span tree is not well-formed")
	}
	for name, ns := range self {
		if ns < 0 || ns > total[name] {
			t.Errorf("span %s: self time %d ns of %d ns", name, ns, total[name])
		}
	}
	pan := total["frontend.pan"]
	if pan == 0 || total["probe.sqldb"] == 0 {
		t.Fatalf("span file lacks pans or probes: %v", total)
	}
	if got := float64(self["frontend.pan"]+self["frontend.roundtrip"]+total["server.http"]) / float64(pan); got < 0.9 || got > 1.1 {
		t.Errorf("pan self + transport + server.http cover %.3f of pan wall time, want about 1", got)
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) → [2.75, 5.5, 8.25] and [1.5, 3.0, 5.5].
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5},
		{[]float64{1, 2, 3, 4, 7}, 4.0},
		{[]float64{3}, 0},
	} {
		if got := iqrOf(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqrOf(%v) = %g, want %g", c.v, got, c.want)
		}
	}
}

func TestCompareFlagsOnlyTheWorseDirection(t *testing.T) {
	ct := &contract{
		Workloads: []contractWorkload{{Name: "pan_hot"}},
		EndToEnd: []contractMetric{
			{Name: "steps_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "step_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		},
	}
	write := func(name string, steps, p50 float64) string {
		path := filepath.Join(t.TempDir(), name)
		m := metrics{}
		m.set("steps_per_s", "1/s", steps)
		m.set("step_p50_ms", "ms", p50)
		if err := appendLine(path, &document{Workload: "pan_hot", Metrics: m}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a", 1000, 2.0)
	for _, c := range []struct {
		name       string
		steps, p50 float64
		worse      bool
	}{
		{"faster", 1300, 1.5, false},
		{"within", 950, 2.1, false},
		{"slower", 850, 2.0, true},
		{"laggier", 1000, 2.3, true},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, ct, base, write(c.name, c.steps, c.p50))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.worse, out.String())
		}
	}
}
