// Package telemetry is the system-wide metrics layer: a low-overhead
// registry of counters, gauges and sharded latency histograms, plus a
// per-request span recorder, rendered in the Prometheus text
// exposition format (hand-rolled — no dependencies beyond
// internal/stats).
//
// Design rules, in order of importance:
//
//   - A nil registry is a working registry. Every constructor on a nil
//     *Registry returns a nil instrument, and every instrument method
//     on a nil receiver is a no-op — one predictable branch on the hot
//     path. That is what lets core.Engine, fleet.Step and wal record
//     stage timings unconditionally while benchmarks pin the disabled
//     cost at zero (see BenchmarkSubmitTelemetry).
//   - Observation never allocates and never takes a registry-wide
//     lock. Counters are single atomics; latency histograms
//     shard their state and pick a shard from the observed value's
//     float bits, so concurrent observers rarely contend.
//   - Exposition is the slow path. Gather snapshots every instrument
//     under its own lock and renders families grouped by name; the
//     scrape pays for consistency, not the quote path.
//
// Metric naming follows the Prometheus conventions: a "ptrider_"
// namespace, base units (seconds), "_total" on counters, and label
// dimensions for route/stage/city. Each latency histogram additionally
// exposes P² quantile estimates (p50/p95/p99) as a companion summary
// family named "<name>_summary" — O(1) per observation, no sample
// retention (see stats.P2Quantile).
package telemetry

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ptrider/internal/stats"
)

// Label is one name=value pair of a metric series.
type Label struct {
	Name, Value string
}

// Registry holds a set of metric instruments for one subsystem (one
// city engine, the HTTP layer, the relay scheduler). A nil *Registry
// is valid everywhere and hands out nil instruments whose methods are
// no-ops.
type Registry struct {
	mu      sync.Mutex
	order   []string            // family emission order (first registration wins)
	series  map[string][]series // family name → series
	keySeen map[string]series   // name + label key → existing instrument (dedupe)
}

// series is one registered instrument with its fixed labels.
type series struct {
	labels []Label
	help   string
	inst   any // *Counter, *LatencyHist, counterFunc, gaugeFunc
}

type counterFunc func() float64
type gaugeFunc func() float64

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series:  make(map[string][]series),
		keySeen: make(map[string]series),
	}
}

// seriesKey identifies one series inside a family for deduplication.
func seriesKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

// register installs the instrument mk builds under (name, labels),
// returning the existing instrument when the identical series was
// registered before — the idempotence that lets callers re-request a
// labeled series (per-route histograms, once per HTTP request) without
// tracking first-use themselves. mk runs only for a new series: a
// latency histogram is dozens of allocations.
func (r *Registry) register(name, help string, labels []Label, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(name, labels)
	if prior, ok := r.keySeen[key]; ok {
		return prior.inst
	}
	inst := mk()
	if _, ok := r.series[name]; !ok {
		r.order = append(r.order, name)
	}
	s := series{labels: labels, help: help, inst: inst}
	r.series[name] = append(r.series[name], s)
	r.keySeen[key] = s
	return inst
}

// Counter returns the monotonically increasing counter registered
// under name+labels, creating it on first use. Nil registry → nil
// counter (whose methods are no-ops).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, labels, func() any { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at
// gather time — for monotone totals a subsystem already tracks
// (request counts behind an atomic, say). fn runs on the scrape path
// and may take locks.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, labels, func() any { return counterFunc(fn) })
}

// GaugeFunc registers a gauge read from fn at gather time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, labels, func() any { return gaugeFunc(fn) })
}

// LatencyHist returns the sharded latency histogram registered under
// name+labels (seconds; default exponential bucket bounds).
func (r *Registry) LatencyHist(name, help string, labels ...Label) *LatencyHist {
	if r == nil {
		return nil
	}
	return r.register(name, help, labels, func() any { return newLatencyHist() }).(*LatencyHist)
}

// ---------------------------------------------------------------------------
// Instruments

// Counter is a monotonically increasing counter. The zero value is
// ready; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// defBuckets are the latency histogram's cumulative upper bounds in
// seconds: 50µs to 10s, roughly exponential — wide enough for an
// in-process quote (~100µs) and a cross-network HTTP round trip alike.
var defBuckets = []float64{
	5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
	2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histShards is the shard fan-out of one LatencyHist. Power of two so
// shard selection is a mask.
const histShards = 4

// histShard is one shard's state, mutated under its own lock.
type histShard struct {
	mu     sync.Mutex
	counts []int64 // per defBuckets bound, plus a +Inf overflow slot
	sum    float64
	n      int64
	p50    *stats.P2Quantile
	p95    *stats.P2Quantile
	p99    *stats.P2Quantile
	// pad keeps neighbouring shards off one cache line.
	_ [24]byte
}

// LatencyHist is a fixed-bucket latency histogram with P² quantile
// summaries, sharded so concurrent observers rarely share a lock. A
// nil *LatencyHist is a no-op — the zero-cost disabled state.
type LatencyHist struct {
	shards [histShards]*histShard
}

func newLatencyHist() *LatencyHist {
	h := &LatencyHist{}
	for i := range h.shards {
		h.shards[i] = &histShard{
			counts: make([]int64, len(defBuckets)+1),
			p50:    stats.NewP2Quantile(0.50),
			p95:    stats.NewP2Quantile(0.95),
			p99:    stats.NewP2Quantile(0.99),
		}
	}
	return h
}

// Observe records one latency in seconds. Shard selection hashes the
// value's float bits — stateless, allocation-free, and effectively
// random across the nanosecond noise of measured durations.
func (h *LatencyHist) Observe(seconds float64) {
	if h == nil {
		return
	}
	bits := math.Float64bits(seconds)
	sh := h.shards[(bits^bits>>7)&(histShards-1)]
	sh.mu.Lock()
	i := sort.SearchFloat64s(defBuckets, seconds)
	sh.counts[i]++
	sh.sum += seconds
	sh.n++
	sh.p50.Observe(seconds)
	sh.p95.Observe(seconds)
	sh.p99.Observe(seconds)
	sh.mu.Unlock()
}

// ObserveSince records the latency elapsed since start.
func (h *LatencyHist) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// snapshot merges the shards into one consistent view. Bucket counts
// and sums merge exactly; the quantile estimates merge as
// count-weighted means of the per-shard P² values (each shard saw an
// unbiased sample partition, so the weighted mean is a faithful
// estimator of the same quantile).
func (h *LatencyHist) snapshot() histSnapshot {
	var s histSnapshot
	s.counts = make([]int64, len(defBuckets)+1)
	var q50, q95, q99 float64
	for _, sh := range h.shards {
		sh.mu.Lock()
		for i, c := range sh.counts {
			s.counts[i] += c
		}
		s.sum += sh.sum
		s.n += sh.n
		if sh.n > 0 {
			w := float64(sh.n)
			q50 += w * sh.p50.Value()
			q95 += w * sh.p95.Value()
			q99 += w * sh.p99.Value()
		}
		sh.mu.Unlock()
	}
	if s.n > 0 {
		w := float64(s.n)
		s.q50, s.q95, s.q99 = q50/w, q95/w, q99/w
	}
	return s
}

type histSnapshot struct {
	counts        []int64 // non-cumulative per-bucket counts
	sum           float64
	n             int64
	q50, q95, q99 float64
}

// ---------------------------------------------------------------------------
// Spans

// Stage is one named timing of a span.
type Stage struct {
	Name    string
	Seconds float64
}

// Span records the per-stage timings of one request as it crosses the
// layers: the HTTP middleware opens it, the engine's submit pipeline
// appends quote/register/WAL-wait stages, and a slow-request log line
// renders the breakdown. A nil *Span is a no-op, so the engine records
// stages unconditionally.
type Span struct {
	// ID is the request correlation id (the X-Request-ID value).
	ID    string
	Start time.Time

	mu     sync.Mutex
	stages []Stage
}

// NewSpan opens a span for one correlated request.
func NewSpan(id string) *Span {
	return &Span{ID: id, Start: time.Now()}
}

// spanKey keys the span in a request's context.
type spanKey struct{}

// WithSpan returns ctx carrying sp: the HTTP middleware attaches each
// request's span, and the layers below read it back with SpanFrom.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the span ctx carries, nil when none (a nil span is a
// no-op everywhere).
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Observe appends one stage timing.
func (s *Span) Observe(stage string, seconds float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stages = append(s.stages, Stage{Name: stage, Seconds: seconds})
	s.mu.Unlock()
}

// Stages returns a copy of the recorded stages (nil on a nil span).
func (s *Span) Stages() []Stage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Stage(nil), s.stages...)
}

// Breakdown renders the stages as "quote=1.234ms register=0.1ms" for
// log lines. Empty string when nothing was recorded.
func (s *Span) Breakdown() string {
	stages := s.Stages()
	if len(stages) == 0 {
		return ""
	}
	parts := make([]string, len(stages))
	for i, st := range stages {
		parts[i] = fmt.Sprintf("%s=%.3fms", st.Name, st.Seconds*1e3)
	}
	return strings.Join(parts, " ")
}

// ServerTiming renders the stages as a Server-Timing header value,
// "quote;dur=0.412, register;dur=0.031" in milliseconds. Empty string
// when nothing was recorded.
func (s *Span) ServerTiming() string {
	stages := s.Stages()
	parts := make([]string, len(stages))
	for i, st := range stages {
		parts[i] = fmt.Sprintf("%s;dur=%.3f", st.Name, st.Seconds*1e3)
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// Gathering and exposition

// Series is one rendered metric series of a family.
type Series struct {
	Labels []Label
	// Value carries counter/gauge series.
	Value float64
	// Hist carries histogram series (nil otherwise).
	Hist *HistView
}

// HistView is a gathered histogram: cumulative bucket counts over the
// default bounds, the sum/count pair, and the P² quantile estimates.
type HistView struct {
	Bounds []float64 // upper bounds; the final +Inf bucket is implied
	Counts []int64   // cumulative, len(Bounds)+1 with the +Inf total last
	Sum    float64
	Count  int64
	Q50    float64
	Q95    float64
	Q99    float64
}

// Family is one gathered metric family.
type Family struct {
	Name   string
	Help   string
	Type   string // "counter", "gauge" or "histogram"
	Series []Series
}

// Gather snapshots every registered instrument into families, in
// registration order. Nil registry gathers nothing.
func (r *Registry) Gather() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	byName := make(map[string][]series, len(names))
	for _, n := range names {
		byName[n] = append([]series(nil), r.series[n]...)
	}
	r.mu.Unlock()

	fams := make([]Family, 0, len(names))
	for _, name := range names {
		group := byName[name]
		if len(group) == 0 {
			continue
		}
		fam := Family{Name: name, Help: group[0].help}
		for _, s := range group {
			switch inst := s.inst.(type) {
			case *Counter:
				fam.Type = "counter"
				fam.Series = append(fam.Series, Series{Labels: s.labels, Value: float64(inst.Value())})
			case counterFunc:
				fam.Type = "counter"
				fam.Series = append(fam.Series, Series{Labels: s.labels, Value: inst()})
			case gaugeFunc:
				fam.Type = "gauge"
				fam.Series = append(fam.Series, Series{Labels: s.labels, Value: inst()})
			case *LatencyHist:
				fam.Type = "histogram"
				snap := inst.snapshot()
				hv := &HistView{
					Bounds: defBuckets,
					Counts: make([]int64, len(snap.counts)),
					Sum:    snap.sum, Count: snap.n,
					Q50: snap.q50, Q95: snap.q95, Q99: snap.q99,
				}
				cum := int64(0)
				for i, c := range snap.counts {
					cum += c
					hv.Counts[i] = cum
				}
				fam.Series = append(fam.Series, Series{Labels: s.labels, Hist: hv})
			}
		}
		fams = append(fams, fam)
	}
	return fams
}

// WithLabel returns the families with one extra label prepended to
// every series — how the multi-city router tags each city registry's
// families with city=<name> before merging them.
func WithLabel(fams []Family, name, value string) []Family {
	out := make([]Family, len(fams))
	for i, f := range fams {
		nf := f
		nf.Series = make([]Series, len(f.Series))
		for j, s := range f.Series {
			ns := s
			ns.Labels = append([]Label{{Name: name, Value: value}}, s.Labels...)
			nf.Series[j] = ns
		}
		out[i] = nf
	}
	return out
}

// Merge combines families with the same name (their series concatenate
// in order) so one exposition emits each HELP/TYPE header once even
// when several registries contribute the family.
func Merge(groups ...[]Family) []Family {
	var order []string
	byName := make(map[string]*Family)
	for _, fams := range groups {
		for _, f := range fams {
			if prior, ok := byName[f.Name]; ok {
				prior.Series = append(prior.Series, f.Series...)
				continue
			}
			cp := f
			cp.Series = append([]Series(nil), f.Series...)
			byName[f.Name] = &cp
			order = append(order, f.Name)
		}
	}
	out := make([]Family, len(order))
	for i, n := range order {
		out[i] = *byName[n]
	}
	return out
}

// formatValue renders a sample value in exposition form.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelString renders {a="b",c="d"} (empty string for no labels);
// extra appends one more pair (the le/quantile label).
func labelString(labels []Label, extra ...Label) string {
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label(nil), labels...), extra...)
	}
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteText renders families in the Prometheus text exposition format
// (version 0.0.4). Histograms emit the standard _bucket/_sum/_count
// triple plus a companion "<name>_summary" summary family carrying the
// P² quantile estimates.
func WriteText(b *strings.Builder, fams []Family) {
	for _, f := range fams {
		if len(f.Series) == 0 {
			continue
		}
		fmt.Fprintf(b, "# HELP %s %s\n", f.Name, f.Help)
		fmt.Fprintf(b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Series {
			if s.Hist == nil {
				fmt.Fprintf(b, "%s%s %s\n", f.Name, labelString(s.Labels), formatValue(s.Value))
				continue
			}
			h := s.Hist
			for i, bound := range h.Bounds {
				fmt.Fprintf(b, "%s_bucket%s %d\n",
					f.Name, labelString(s.Labels, Label{"le", formatValue(bound)}), h.Counts[i])
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n",
				f.Name, labelString(s.Labels, Label{"le", "+Inf"}), h.Counts[len(h.Counts)-1])
			fmt.Fprintf(b, "%s_sum%s %s\n", f.Name, labelString(s.Labels), formatValue(h.Sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.Name, labelString(s.Labels), h.Count)
		}
		if f.Type == "histogram" {
			sname := f.Name + "_summary"
			fmt.Fprintf(b, "# HELP %s P2 quantile estimates of %s\n", sname, f.Name)
			fmt.Fprintf(b, "# TYPE %s summary\n", sname)
			for _, s := range f.Series {
				if s.Hist == nil {
					continue
				}
				h := s.Hist
				for _, q := range []struct {
					q string
					v float64
				}{{"0.5", h.Q50}, {"0.95", h.Q95}, {"0.99", h.Q99}} {
					fmt.Fprintf(b, "%s%s %s\n",
						sname, labelString(s.Labels, Label{"quantile", q.q}), formatValue(q.v))
				}
				fmt.Fprintf(b, "%s_sum%s %s\n", sname, labelString(s.Labels), formatValue(h.Sum))
				fmt.Fprintf(b, "%s_count%s %d\n", sname, labelString(s.Labels), h.Count)
			}
		}
	}
}
