package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"kyrix/internal/server"
	"kyrix/internal/storage"
)

// Failover experiment: the replicated update log's availability claim,
// measured end to end. A 3-node cluster serves tiles over HTTP while a
// client stream interleaves quorum-committed updates; mid-run the
// leader is killed. The survivors must elect a replacement, keep
// serving tiles, keep acking updates, and lose none of the updates
// they acked — the headline numbers are the steady vs failover tile
// p50 and UpdatesLost (which must be 0).

// FailoverOptions configures one failover measurement.
type FailoverOptions struct {
	// StepsPerPhase is the number of tile GETs per phase (steady,
	// failover).
	StepsPerPhase int
	// UpdateEvery interleaves one counting update per this many tile
	// steps.
	UpdateEvery int
}

// DefaultFailoverOptions measures 200 tile steps per phase with an
// update every 10 steps.
func DefaultFailoverOptions() FailoverOptions {
	return FailoverOptions{StepsPerPhase: 200, UpdateEvery: 10}
}

// FailoverPhase is one phase's measurements.
type FailoverPhase struct {
	// Phase is "steady" or "failover".
	Phase string
	// Steps is the number of tile requests measured.
	Steps int
	// P50Ms / P95Ms / MeanMs summarize per-request tile latency.
	P50Ms  float64
	P95Ms  float64
	MeanMs float64
	// TileErrors counts failed tile GETs (transient 503s during the
	// election count here; they are retried, not lost).
	TileErrors int
	// UpdatesAcked is how many updates this phase's client got a 200
	// for.
	UpdatesAcked int
	// UpdateRetries counts submit attempts beyond the first per update
	// (failover: the retries that bridge the election window).
	UpdateRetries int
}

// FailoverResult is a whole failover experiment — what kyrix-bench
// -failover prints.
type FailoverResult struct {
	Config string
	Nodes  int
	Phases []FailoverPhase
	// UpdatesAcked is the total count of acknowledged updates across
	// phases; UpdatesLost is how many of those were missing from the
	// survivors' replicated state at the end. The log's contract is
	// that UpdatesLost is always 0.
	UpdatesAcked int
	UpdatesLost  int
	// ElectionMs is how long after the kill the survivors took to
	// elect a leader (first successful update ack is the observable
	// proxy).
	ElectionMs float64
}

// Format renders the result as an aligned comparison table.
func (r *FailoverResult) Format() string {
	out := fmt.Sprintf("Failover: %d-node replicated /update over %q (leader killed between phases)\n", r.Nodes, r.Config)
	out += fmt.Sprintf("  %-10s %8s %10s %10s %10s %8s %8s %8s\n",
		"phase", "steps", "p50 ms", "p95 ms", "mean ms", "tile-err", "acked", "retries")
	for _, p := range r.Phases {
		out += fmt.Sprintf("  %-10s %8d %10.2f %10.2f %10.2f %8d %8d %8d\n",
			p.Phase, p.Steps, p.P50Ms, p.P95Ms, p.MeanMs, p.TileErrors, p.UpdatesAcked, p.UpdateRetries)
	}
	out += fmt.Sprintf("  updates acked %d, lost %d; re-election bridged in %.0fms\n",
		r.UpdatesAcked, r.UpdatesLost, r.ElectionMs)
	return out
}

// failoverPhase drives one phase's tile+update stream against urls.
// Updates carry their sequence number as the written value (idempotent
// under retry), starting after *acked; every ack advances *acked.
func failoverPhase(ce *ClusterEnv, opts FailoverOptions, urls []string, phase string, acked *int) (FailoverPhase, error) {
	p := FailoverPhase{Phase: phase}
	rng := rand.New(rand.NewSource(42))
	cols := int(ce.Cfg.CanvasW / 1024)
	rows := int(ce.Cfg.CanvasH / 1024)
	client := &http.Client{Timeout: 10 * time.Second}
	var durs []float64
	for step := 0; step < opts.StepsPerPhase; step++ {
		url := fmt.Sprintf("%s/tile?canvas=main&layer=0&col=%d&row=%d&size=1024",
			urls[step%len(urls)], rng.Intn(cols), rng.Intn(rows))
		start := time.Now()
		resp, err := client.Get(url)
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			}
		}
		if err != nil {
			p.TileErrors++
		} else {
			durs = append(durs, float64(time.Since(start).Microseconds())/1000)
		}
		if opts.UpdateEvery > 0 && (step+1)%opts.UpdateEvery == 0 {
			k := *acked + 1
			deadline := time.Now().Add(15 * time.Second)
			for attempt := 0; ; attempt++ {
				err := postFailoverUpdate(client, urls[attempt%len(urls)], k)
				if err == nil {
					*acked = k
					p.UpdatesAcked++
					p.UpdateRetries += attempt
					break
				}
				if time.Now().After(deadline) {
					return p, fmt.Errorf("experiments: update %d never acked: %w", k, err)
				}
				time.Sleep(50 * time.Millisecond)
			}
		}
	}
	p.Steps = len(durs)
	sort.Float64s(durs)
	var sum float64
	for _, d := range durs {
		sum += d
	}
	if len(durs) > 0 {
		p.MeanMs = sum / float64(len(durs))
	}
	p.P50Ms = quantile(durs, 0.50)
	p.P95Ms = quantile(durs, 0.95)
	return p, nil
}

func postFailoverUpdate(client *http.Client, url string, k int) error {
	req := server.UpdateRequest{
		SQL:  "UPDATE points SET val = ? WHERE id = 1",
		Args: []server.ArgValue{{Kind: storage.TFloat64, F: float64(k)}},
	}
	body, _ := json.Marshal(req)
	resp, err := client.Post(url+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// FailoverExperiment builds a 3-node replicated cluster, measures a
// steady phase, kills the leader, and measures the failover phase
// against the survivors (logs under cfg.ReplogRoot, or a temporary
// directory). The returned result reports per-phase tile latency, the
// acked-update count, and how many acked updates the surviving
// replicated state is missing (contractually 0).
func FailoverExperiment(cfg Config, opts FailoverOptions) (*FailoverResult, error) {
	if opts.StepsPerPhase <= 0 {
		opts.StepsPerPhase = 200
	}
	ce, err := NewClusterEnv(cfg, "uniform", 3)
	if err != nil {
		return nil, err
	}
	defer ce.Close()

	// Wait for the first election so "steady" measures a settled tier.
	leader := -1
	deadline := time.Now().Add(10 * time.Second)
	for leader < 0 {
		for i := range ce.Nodes {
			if ce.Nodes[i].Srv.Replog().IsLeader() {
				leader = i
				break
			}
		}
		if leader < 0 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("experiments: no leader elected")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	res := &FailoverResult{Config: cfg.Name, Nodes: 3}
	acked := 0
	steady, err := failoverPhase(ce, opts, ce.URLs, "steady", &acked)
	if err != nil {
		return nil, err
	}
	res.Phases = append(res.Phases, steady)

	// Kill whoever leads NOW (the lease may have moved since startup).
	for i := range ce.Nodes {
		if ce.Nodes[i].Srv.Replog().IsLeader() {
			leader = i
		}
	}
	ce.StopNode(leader)
	var survivorURLs []string
	var survivors []int
	for i := range ce.Nodes {
		if i != leader {
			survivors = append(survivors, i)
			survivorURLs = append(survivorURLs, ce.URLs[i])
		}
	}
	// Election window: time from the kill until a survivor leads. The
	// failover phase then measures the tier mid-/post-recovery.
	res.ElectionMs = float64(failoverElectionProxy(ce, survivors, time.Now()).Microseconds()) / 1000
	failover, err := failoverPhase(ce, opts, survivorURLs, "failover", &acked)
	if err != nil {
		return nil, err
	}
	res.Phases = append(res.Phases, failover)
	res.UpdatesAcked = acked

	// Zero-loss audit: every survivor's replicated state must hold the
	// last acked value (updates are applied in log order, and the value
	// written is the sequence number).
	res.UpdatesLost = 0
	for _, i := range survivors {
		q, err := ce.Nodes[i].Srv.DB().Query("SELECT val FROM points WHERE id = 1")
		if err != nil || len(q.Rows) != 1 {
			return nil, fmt.Errorf("experiments: audit query on node %d: %v", i, err)
		}
		if got := int(q.Rows[0][0].F); got < acked {
			lost := acked - got
			if lost > res.UpdatesLost {
				res.UpdatesLost = lost
			}
		}
	}
	return res, nil
}

// failoverElectionProxy waits (bounded) for a survivor to lead and
// returns the elapsed time since start.
func failoverElectionProxy(ce *ClusterEnv, survivors []int, start time.Time) time.Duration {
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, i := range survivors {
			if ce.Nodes[i].Srv.Replog().IsLeader() {
				return time.Since(start)
			}
		}
		if time.Now().After(deadline) {
			return time.Since(start)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
