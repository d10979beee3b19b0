package experiments

import (
	"testing"

	"kyrix/internal/fetch"
)

// TestObsSmoke is the CI obs-smoke check behind the experiments
// harness: run a small batched sweep on a 1-node cluster, scrape node
// 0's /metrics over HTTP, and require the stage breakdown to account
// for the traffic just served. It guards the whole chain — histograms
// observed on the serving path, exposition rendering, and the
// parse/quantile fold behind kyrix-bench's stage table.
func TestObsSmoke(t *testing.T) {
	ce := quickNode(t)
	opts := ConcurrentOptions{
		ClientCounts:   []int{2},
		StepsPerClient: 4,
		Scheme:         fetch.TileSpatial1024,
		BatchSize:      8,
		Workload:       "zipf",
	}
	if _, _, err := ClusterRun(ce, opts); err != nil {
		t.Fatal(err)
	}
	stages, err := ScrapeStages(ce.Nodes[0].BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	// Every registered stage series appears (zero-count ones included:
	// the exposition declares the full family), and the ones the sweep
	// exercised have real observations.
	for _, stage := range []string{"batch", "item", "db.query", "flush"} {
		q, ok := stages[stage]
		if !ok {
			t.Fatalf("stage %q missing from scrape (have %v)", stage, stages)
		}
		if q.Count == 0 {
			t.Fatalf("stage %q has no observations after the sweep", stage)
		}
		if q.P95Ms < q.P50Ms {
			t.Fatalf("stage %q quantiles inverted: %+v", stage, q)
		}
	}
	if _, ok := stages["peer.fetch"]; !ok {
		t.Fatal("unexercised stages must still be declared in the exposition")
	}
}
