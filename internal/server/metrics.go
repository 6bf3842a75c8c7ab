// metrics.go serves GET /metrics: the Prometheus text exposition of
// the server-owned registry (HTTP route latencies, status-code counts,
// SSE stream health) merged with the backend's families when the
// backend carries a telemetry registry — submit-stage timings, tick
// shard wall times, WAL append/fsync latencies, surge gauges. Both
// core.Engine and multicity.Coordinator implement MetricFamilies, so
// one scrape covers single-city, multi-city and cluster deployments
// alike.
package server

import (
	"io"
	"net/http"
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
