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
}
