package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// metric is one named number. IQR is the quartile distance across the
// rounds the value is the median of; it is absent for counts and
// single-shot probes.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	IQR   *float64 `json:"iqr,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// setRounds stores the median of per-round values with their IQR.
func (m metrics) setRounds(name, unit string, perRound []float64) {
	iqr := iqrOf(perRound)
	m[name] = metric{Value: median(perRound), Unit: unit, IQR: &iqr}
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of v (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrOf is the distance between the first and third quartile as
// Python's statistics.quantiles(v, n=4) gives them (exclusive method),
// the same rule the acceptance check applies across runs.
func iqrOf(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sorted(v)
	at := func(i int) float64 { // the i-th of 4 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(3) - at(1)
}

// contract is BENCHMARK.json: the names, units and bounds this program
// is held to. The program checks what it emits against it, so the two
// cannot drift apart silently.
type contract struct {
	Workloads []contractWorkload `json:"workloads"`
	EndToEnd  []contractMetric   `json:"end_to_end"`
	PerLayer  []contractMetric   `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// pick returns exactly the contract's metrics out of m, failing on any
// that is missing, not finite, or carries another unit.
func pick(m metrics, want []contractMetric) (metrics, error) {
	out := metrics{}
	for _, w := range want {
		got, ok := m[w.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", w.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return nil, fmt.Errorf("metric %s is not finite", w.Name)
		case got.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
		out[w.Name] = metric{Value: got.Value, Unit: got.Unit}
	}
	return out, nil
}
