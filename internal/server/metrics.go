// metrics.go serves GET /metrics: the Prometheus text exposition of
// the server-owned registry (HTTP route latencies, status-code counts,
// SSE stream health, the process's Go runtime) merged with the backend's families when the
// backend carries a telemetry registry — submit-stage timings, tick
// shard wall times, WAL append/fsync latencies, surge gauges. Both
// core.Engine and multicity.Coordinator implement MetricFamilies, so
// one scrape covers single-city, multi-city and cluster deployments
// alike.
package server

import (
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"strings"

	"ptrider/internal/telemetry"
)

// metricFamilySource is implemented by backends that expose gathered
// telemetry families (core.Engine, multicity.Coordinator). Backends built
// without a registry return nil and contribute nothing.
type metricFamilySource interface {
	MetricFamilies() []telemetry.Family
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	fams := s.reg.Gather()
	if src, ok := s.svc.(metricFamilySource); ok {
		fams = telemetry.Merge(fams, src.MetricFamilies())
	}
	var b strings.Builder
	telemetry.WriteText(&b, fams)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// registerRuntime adds the process's Go runtime families, read through
// runtime/metrics at scrape time only. They live on the server's own
// registry, so a process reports them once whatever its backend.
func registerRuntime(reg *telemetry.Registry) {
	read := func(name string) func() float64 {
		return func() float64 {
			s := []metrics.Sample{{Name: name}}
			metrics.Read(s)
			return float64(s[0].Value.Uint64())
		}
	}
	reg.GaugeFunc("ptrider_go_heap_live_bytes", "Heap bytes the last GC cycle marked live.", read("/gc/heap/live:bytes"))
	reg.GaugeFunc("ptrider_go_goroutines", "Live goroutines.", read("/sched/goroutines:goroutines"))
	reg.CounterFunc("ptrider_go_gc_cycles_total", "Completed GC cycles.", read("/gc/cycles/total:gc-cycles"))

	// Two runtime histograms as their median and 99th percentile: four
	// samples, where the runtime's bucket lists would add hundreds of
	// series to every scrape.
	for _, f := range []struct{ name, metric, help string }{
		{"ptrider_go_gc_pause_seconds", "/sched/pauses/total/gc:seconds",
			"Stop-the-world GC pause quantiles since the process started."},
		{"ptrider_go_sched_latency_seconds", "/sched/latencies:seconds",
			"Quantiles of the time goroutines spent runnable before running, since the process started."},
	} {
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.99", 0.99}} {
			reg.GaugeFunc(f.name, f.help, func() float64 {
				s := []metrics.Sample{{Name: f.metric}}
				metrics.Read(s)
				if s[0].Value.Kind() != metrics.KindFloat64Histogram {
					return 0
				}
				return histQuantile(s[0].Value.Float64Histogram(), q.q)
			}, telemetry.Label{Name: "quantile", Value: q.label})
		}
	}
}

// histQuantile is the upper bound of the bucket that holds the q-th
// quantile of h's samples, or that bucket's lower bound when the upper
// is +Inf; 0 when h is empty.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
