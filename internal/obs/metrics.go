package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBuckets are the upper bounds (seconds) for latency histograms:
// 50µs up to 2.5s in a coarse exponential ladder sized for a serving path
// whose SLO is "interaction under 500ms".
var DefaultBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Counter is a monotonically increasing metric series.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket latency histogram. Observations are
// durations; exposition is in seconds. All mutation is atomic — Observe
// costs two atomic adds plus a branch-free bucket search.
type Histogram struct {
	bounds []float64 // upper bounds, seconds; ascending
	counts []atomic.Uint64
	count  atomic.Uint64
	sumNS  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(d.Nanoseconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot returns cumulative bucket counts aligned with bounds plus +Inf,
// the total count, and the sum in seconds.
func (h *Histogram) snapshot() (cum []uint64, total uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.count.Load(), float64(h.sumNS.Load()) / 1e9
}

// Quantile estimates the q-quantile (0..1) in seconds by linear
// interpolation within the bucket containing the target rank, matching
// Prometheus's histogram_quantile. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	cum, total, _ := h.snapshot()
	return bucketQuantile(h.bounds, cum, total, q)
}

func bucketQuantile(bounds []float64, cum []uint64, total uint64, q float64) float64 {
	if total == 0 || len(cum) == 0 {
		return 0
	}
	rank := q * float64(total)
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if i == len(cum) {
		i = len(cum) - 1
	}
	if i >= len(bounds) { // landed in +Inf: report the last finite bound
		if len(bounds) == 0 {
			return 0
		}
		return bounds[len(bounds)-1]
	}
	lo, clo := 0.0, uint64(0)
	if i > 0 {
		lo, clo = bounds[i-1], cum[i-1]
	}
	hi, chi := bounds[i], cum[i]
	if chi == clo {
		return hi
	}
	return lo + (hi-lo)*(rank-float64(clo))/(float64(chi)-float64(clo))
}

// labelSet is a rendered, sorted label string like `stage="db.query"`.
type labelSet string

func makeLabels(kv ...string) labelSet {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+`="`+escapeLabel(kv[i+1])+`"`)
	}
	sort.Strings(pairs)
	return labelSet(strings.Join(pairs, ","))
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

type family struct {
	name string
	help string
	typ  string // "counter", "histogram"

	mu         sync.Mutex
	counters   map[labelSet]*Counter   // guarded by mu
	histograms map[labelSet]*Histogram // guarded by mu
}

// Registry owns metric families and renders them as Prometheus text
// exposition. Handles returned by Counter/Histogram are stable — resolve
// them once at setup and mutate lock-free on the hot path.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family           // guarded by mu
	order      []string                     // guarded by mu
	collectors []func(*CollectorScratchpad) // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:       name,
			help:       help,
			typ:        typ,
			counters:   make(map[labelSet]*Counter),
			histograms: make(map[labelSet]*Histogram),
		}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// Counter returns the counter series for name with the given label
// key/value pairs, creating family and series on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.family(name, help, "counter")
	ls := makeLabels(labels...)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[ls]
	if !ok {
		c = &Counter{}
		f.counters[ls] = c
	}
	return c
}

// Histogram returns the histogram series for name with the given label
// key/value pairs, using DefaultBuckets.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	f := r.family(name, help, "histogram")
	ls := makeLabels(labels...)
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.histograms[ls]
	if !ok {
		h = newHistogram(DefaultBuckets)
		f.histograms[ls] = h
	}
	return h
}

// CollectorScratchpad accumulates scrape-time samples from collectors:
// families whose values live elsewhere (server atomic counters, cache and
// store snapshots) and are only rendered, never owned, by the registry.
type CollectorScratchpad struct {
	lines []promFamily
}

type promFamily struct {
	name, help, typ string
	samples         []promSample
}

type promSample struct {
	labels labelSet
	value  float64
}

// Gauge emits one gauge sample.
func (c *CollectorScratchpad) Gauge(name, help string, value float64, labels ...string) {
	c.emit(name, help, "gauge", value, labels...)
}

// Counter emits one counter sample (value must be cumulative).
func (c *CollectorScratchpad) Counter(name, help string, value float64, labels ...string) {
	c.emit(name, help, "counter", value, labels...)
}

func (c *CollectorScratchpad) emit(name, help, typ string, value float64, labels ...string) {
	ls := makeLabels(labels...)
	for i := range c.lines {
		if c.lines[i].name == name {
			c.lines[i].samples = append(c.lines[i].samples, promSample{ls, value})
			return
		}
	}
	c.lines = append(c.lines, promFamily{name: name, help: help, typ: typ,
		samples: []promSample{{ls, value}}})
}

// RegisterCollector adds fn to the scrape path. Collectors run on every
// WriteProm call, in registration order.
func (r *Registry) RegisterCollector(fn func(*CollectorScratchpad)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// WriteProm renders every family (owned and collected) in Prometheus text
// exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(order))
	for _, name := range order {
		fams = append(fams, r.families[name])
	}
	collectors := make([]func(*CollectorScratchpad), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		writeOwnedFamily(bw, f)
	}
	pad := &CollectorScratchpad{}
	for _, fn := range collectors {
		fn(pad)
	}
	for _, pf := range pad.lines {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", pf.name, pf.help, pf.name, pf.typ)
		for _, s := range pf.samples {
			writeSample(bw, pf.name, s.labels, s.value)
		}
	}
	return bw.Flush()
}

func writeOwnedFamily(w *bufio.Writer, f *family) {
	f.mu.Lock()
	counters := make(map[labelSet]*Counter, len(f.counters))
	for ls, c := range f.counters {
		counters[ls] = c
	}
	histograms := make(map[labelSet]*Histogram, len(f.histograms))
	for ls, h := range f.histograms {
		histograms[ls] = h
	}
	f.mu.Unlock()

	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	switch f.typ {
	case "counter":
		for _, ls := range sortedKeys(counters) {
			writeSample(w, f.name, ls, float64(counters[ls].Value()))
		}
	case "histogram":
		for _, ls := range sortedKeys(histograms) {
			h := histograms[ls]
			cum, total, sum := h.snapshot()
			for i, ub := range h.bounds {
				writeSample(w, f.name+"_bucket", addLE(ls, formatBound(ub)), float64(cum[i]))
			}
			writeSample(w, f.name+"_bucket", addLE(ls, "+Inf"), float64(total))
			writeSample(w, f.name+"_sum", ls, sum)
			writeSample(w, f.name+"_count", ls, float64(total))
		}
	}
}

func sortedKeys[V any](m map[labelSet]V) []labelSet {
	keys := make([]labelSet, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func addLE(ls labelSet, le string) labelSet {
	if ls == "" {
		return labelSet(`le="` + le + `"`)
	}
	return ls + labelSet(`,le="`+le+`"`)
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func writeSample(w *bufio.Writer, name string, ls labelSet, v float64) {
	var val string
	switch {
	case math.IsInf(v, 1):
		val = "+Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		val = strconv.FormatFloat(v, 'f', -1, 64)
	default:
		val = strconv.FormatFloat(v, 'g', -1, 64)
	}
	if ls == "" {
		fmt.Fprintf(w, "%s %s\n", name, val)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, ls, val)
}

// ---- Exposition parsing (consumer side: kyrix-bench, obs-smoke) ----

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed Prometheus text payload.
type Exposition struct {
	Types   map[string]string // family name -> counter/gauge/histogram
	Samples []Sample
}

// HasFamily reports whether the payload declared a # TYPE for name.
func (e *Exposition) HasFamily(name string) bool {
	_, ok := e.Types[name]
	return ok
}

// ParseExposition parses Prometheus text exposition format. It understands
// the subset WriteProm emits (HELP/TYPE comments, optional label sets,
// +Inf) which is all kyrix-bench and the smoke tests need.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				e.Types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if brace := strings.IndexByte(line, '{'); brace >= 0 {
		close := strings.LastIndexByte(line, '}')
		if close < brace {
			return s, fmt.Errorf("obs: malformed sample %q", line)
		}
		s.Name = line[:brace]
		if err := parseLabels(line[brace+1:close], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(line[close+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return s, fmt.Errorf("obs: malformed sample %q", line)
		}
		s.Name = fields[0]
		rest = fields[1]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("obs: malformed sample %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("obs: bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(v, 64)
}

func parseLabels(body string, out map[string]string) error {
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return fmt.Errorf("obs: malformed labels %q", body)
		}
		key := strings.TrimSpace(body[:eq])
		i := eq + 2
		var sb strings.Builder
		for i < len(body) {
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				switch body[i+1] {
				case 'n':
					sb.WriteByte('\n')
				default:
					sb.WriteByte(body[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
			i++
		}
		if i >= len(body) {
			return fmt.Errorf("obs: unterminated label value in %q", body)
		}
		out[key] = sb.String()
		body = strings.TrimPrefix(strings.TrimSpace(body[i+1:]), ",")
		body = strings.TrimSpace(body)
	}
	return nil
}

// HistogramQuantiles extracts p50/p95/p99 (plus count) for each series of
// histogram family name, keyed by the value of keyLabel (e.g. "stage").
func (e *Exposition) HistogramQuantiles(name, keyLabel string) map[string]StageQuantiles {
	type acc struct {
		bounds []float64
		cum    []uint64
		total  uint64
		sum    float64
	}
	accs := map[string]*acc{}
	get := func(k string) *acc {
		a, ok := accs[k]
		if !ok {
			a = &acc{}
			accs[k] = a
		}
		return a
	}
	for _, s := range e.Samples {
		key := s.Labels[keyLabel]
		switch s.Name {
		case name + "_bucket":
			a := get(key)
			le := s.Labels["le"]
			if le == "+Inf" {
				continue // total comes from _count
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			a.bounds = append(a.bounds, b)
			a.cum = append(a.cum, uint64(s.Value))
		case name + "_count":
			get(key).total = uint64(s.Value)
		case name + "_sum":
			get(key).sum = s.Value
		}
	}
	out := map[string]StageQuantiles{}
	for k, a := range accs {
		sort.Sort(&boundSorter{a.bounds, a.cum})
		q := StageQuantiles{Count: a.total}
		if a.total > 0 {
			q.P50Ms = bucketQuantile(a.bounds, withInf(a.cum, a.total), a.total, 0.50) * 1000
			q.P95Ms = bucketQuantile(a.bounds, withInf(a.cum, a.total), a.total, 0.95) * 1000
			q.P99Ms = bucketQuantile(a.bounds, withInf(a.cum, a.total), a.total, 0.99) * 1000
			q.MeanMs = a.sum / float64(a.total) * 1000
		}
		out[k] = q
	}
	return out
}

func withInf(cum []uint64, total uint64) []uint64 {
	return append(append([]uint64(nil), cum...), total)
}

type boundSorter struct {
	bounds []float64
	cum    []uint64
}

func (b *boundSorter) Len() int           { return len(b.bounds) }
func (b *boundSorter) Less(i, j int) bool { return b.bounds[i] < b.bounds[j] }
func (b *boundSorter) Swap(i, j int) {
	b.bounds[i], b.bounds[j] = b.bounds[j], b.bounds[i]
	b.cum[i], b.cum[j] = b.cum[j], b.cum[i]
}

// StageQuantiles is the per-stage summary kyrix-bench prints after a
// client sweep.
type StageQuantiles struct {
	Count  uint64  `json:"count"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MeanMs float64 `json:"meanMs"`
}
