// middleware.go is the server's observability wrapper: every request
// passes through one handler that assigns (or echoes) an X-Request-ID,
// opens a telemetry span for the backend's stage timings, records
// per-route latency histograms and status-code counters on the
// server-owned registry, and emits one log/slog line for requests
// slower than the configured threshold — correlation id and
// per-stage breakdown included, so a slow submit can be attributed to
// quote, WAL wait or probe/commit without reproducing it.
package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"ptrider/internal/telemetry"
)

// Options configures the server's observability surface. The zero
// value matches NewService: metrics on, slow-request logging off.
type Options struct {
	// DisableMetrics turns off the server-owned HTTP/SSE instrumentation
	// and the GET /metrics endpoint (backend families included — the
	// endpoint is the only exposition surface).
	DisableMetrics bool
	// SlowRequest, when positive, logs one slog line for every request
	// whose wall time meets or exceeds it, carrying the request id,
	// route, status and the span's per-stage breakdown.
	SlowRequest time.Duration
}

// nextRequestID mints a process-unique correlation id for requests
// that arrive without an X-Request-ID header.
func (s *Server) nextRequestID() string {
	return s.idBase + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// statusRecorder captures the response status for the route metrics
// and slow-request log. It forwards Flush so the SSE stream keeps
// working through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if fl, ok := sr.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (sr *statusRecorder) statusCode() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

// instrument wraps the mux with the correlation/metrics/slow-log
// middleware. With metrics disabled and no slow threshold the request
// id is still assigned — correlation is unconditional.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = s.nextRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		sp := telemetry.NewSpan(reqID)
		r = r.WithContext(telemetry.WithSpan(r.Context(), sp))
		sr := &statusRecorder{ResponseWriter: w}
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		start := time.Now()
		next.ServeHTTP(sr, r)
		elapsed := time.Since(start)

		// The mux resolves the route pattern without serving, so the
		// label is the registered pattern ("/v1/requests/{id}"), never a
		// high-cardinality concrete path.
		_, route := s.mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		if s.reg != nil {
			s.reg.LatencyHist("ptrider_http_request_duration_seconds",
				"HTTP request wall time by route.",
				telemetry.Label{Name: "route", Value: route}).Observe(elapsed.Seconds())
			s.reg.Counter("ptrider_http_requests_total",
				"HTTP requests by route, method and status code.",
				telemetry.Label{Name: "route", Value: route},
				telemetry.Label{Name: "method", Value: r.Method},
				telemetry.Label{Name: "code", Value: strconv.Itoa(sr.statusCode())}).Inc()
		}
		if s.opts.SlowRequest > 0 && elapsed >= s.opts.SlowRequest {
			slog.Warn("server: slow request", "request_id", reqID, "method", r.Method, "route", route,
				"status", sr.statusCode(), "duration_ms", float64(elapsed.Microseconds())/1e3, "stages", sp.Breakdown())
		}
	})
}
