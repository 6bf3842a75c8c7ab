// observability_test.go pins PR 9's telemetry surface over both
// backends: the /metrics exposition shape (HTTP route histograms plus
// the backend's submit-stage, tick-shard, WAL and surge families),
// X-Request-ID echo and generation, the GET /v1/requests listing, and
// the slow-request structured log line.
package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/multicity"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
	"ptrider/internal/testnet"
	"ptrider/internal/wal"
)

// obsSingle builds a telemetry- and WAL-enabled single-city backend so
// every metric family the acceptance list names is registered.
func obsSingle(t *testing.T) v1Backend {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		GridCols: 3, GridRows: 3, Capacity: 4,
		Algorithm: core.AlgoDualSide, Seed: 1,
		Durability: wal.ModeAsync, WALDir: t.TempDir(),
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(server.NewService(eng).Handler())
	t.Cleanup(ts.Close)
	return v1Backend{name: "single-city", ts: ts, city: core.DefaultCityName, numCities: 1}
}

// obsMulti builds the telemetry- and WAL-enabled two-city backend.
func obsMulti(t *testing.T) v1Backend {
	t.Helper()
	router, err := multicity.BuildFromSpecWithConfig("east:10x10:10,west:8x8:8",
		core.Config{Capacity: 4, Algorithm: core.AlgoDualSide}, 5,
		multicity.RouterConfig{
			EnableRelay: true,
			Durability:  wal.ModeAsync, WALDir: t.TempDir(),
			Telemetry: telemetry.NewRegistry(),
		})
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(func() { router.Close() })
	ts := httptest.NewServer(server.NewService(router).Handler())
	t.Cleanup(ts.Close)
	return v1Backend{name: "two-city-relay", ts: ts, city: "east", numCities: 2, relay: true}
}

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, b v1Backend) string {
	t.Helper()
	resp, err := http.Get(b.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestV1MetricsExposition drives traffic (submit, choice, tick) and
// checks every acceptance-list family shows up in the scrape on both
// backends — with city labels on the multi-city one.
func TestV1MetricsExposition(t *testing.T) {
	for _, b := range []v1Backend{obsSingle(t), obsMulti(t)} {
		b := b
		t.Run(b.name, func(t *testing.T) {
			id := submitQuoted(t, b)
			if resp, out := do(t, http.MethodPost, fmt.Sprintf("%s/v1/requests/%d/choice", b.ts.URL, id),
				map[string]any{"option": 0}); resp.StatusCode != http.StatusOK {
				t.Fatalf("choice status %d: %v", resp.StatusCode, out)
			}
			if resp, _ := do(t, http.MethodPost, b.ts.URL+"/v1/ticks",
				map[string]any{"seconds": 1}); resp.StatusCode != http.StatusOK {
				t.Fatalf("tick status %d", resp.StatusCode)
			}

			body := scrape(t, b)
			for _, want := range []string{
				// Server-owned HTTP metrics.
				"# TYPE ptrider_http_request_duration_seconds histogram",
				`ptrider_http_requests_total{route="/v1/requests",method="POST",code="200"}`,
				"ptrider_sse_dropped_total 0",
				"ptrider_sse_subscribers 0",
				// The process's Go runtime, once per process.
				"# TYPE ptrider_go_heap_live_bytes gauge",
				"# TYPE ptrider_go_goroutines gauge",
				"# TYPE ptrider_go_gc_cycles_total counter",
				// Submit-stage timings (quote recorded on every submit,
				// probe/commit on the choice we just drove).
				"# TYPE ptrider_submit_stage_duration_seconds histogram",
				`stage="quote"`,
				`stage="probe_commit"`,
				// P² summaries ride along with every histogram family.
				"# TYPE ptrider_submit_stage_duration_seconds_summary summary",
				// Tick wall time, per-shard and whole-tick.
				"# TYPE ptrider_tick_duration_seconds histogram",
				"# TYPE ptrider_tick_shard_duration_seconds histogram",
				// WAL group-commit latencies (durability is on here).
				"# TYPE ptrider_wal_append_duration_seconds histogram",
				"# TYPE ptrider_wal_fsync_duration_seconds histogram",
				// Ledger counters and surge gauges (surge families are
				// registered even with surge pricing off).
				"# TYPE ptrider_requests_total counter",
				"# TYPE ptrider_surge_epoch gauge",
				"# TYPE ptrider_surge_active_cells gauge",
				"ptrider_clock_seconds",
				"ptrider_vehicles",
				// Distance memo occupancy and batch-fill hit ratio.
				"# TYPE ptrider_memo_entries gauge",
				"# TYPE ptrider_memo_bytes gauge",
				"# TYPE ptrider_memo_capacity_bytes gauge",
				"# TYPE ptrider_memo_dense_rows gauge",
				"# TYPE ptrider_memo_batch_lookups_total counter",
				"# TYPE ptrider_memo_batch_misses_total counter",
				"# TYPE ptrider_memo_replacements_total counter",
				// The ledger's live and archived record counts.
				"# TYPE ptrider_ledger_records gauge",
				`state="live"`,
				`state="archived"`,
			} {
				if !strings.Contains(body, want) {
					t.Errorf("exposition misses %q", want)
				}
			}
			for _, fam := range []string{"ptrider_go_heap_live_bytes", "ptrider_go_goroutines", "ptrider_go_gc_cycles_total"} {
				if n := strings.Count(body, "\n"+fam+" "); n != 1 {
					t.Errorf("%s: %d samples, want one per process", fam, n)
				}
			}
			if b.numCities > 1 {
				for _, want := range []string{`city="east"`, `city="west"`,
					"# TYPE ptrider_relay_leg_quote_duration_seconds histogram",
					"# TYPE ptrider_relay_trips gauge"} {
					if !strings.Contains(body, want) {
						t.Errorf("multi-city exposition misses %q", want)
					}
				}
			}
			// The quote stage saw at least the submits we drove: its
			// +Inf bucket must be non-zero.
			if !quoteStageObserved(body) {
				t.Error("quote stage has no observations")
			}
		})
	}
}

// quoteStageObserved reports whether any quote-stage +Inf bucket
// carries a non-zero count.
func quoteStageObserved(body string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "ptrider_submit_stage_duration_seconds_bucket") &&
			strings.Contains(line, `stage="quote"`) &&
			strings.Contains(line, `le="+Inf"`) &&
			!strings.HasSuffix(line, " 0") {
			return true
		}
	}
	return false
}

// TestV1RequestIDCorrelation pins the X-Request-ID contract: a
// client-sent id echoes back verbatim; absent one, the server mints a
// non-empty id — on both backends.
func TestV1RequestIDCorrelation(t *testing.T) {
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodGet, b.ts.URL+"/v1/stats", nil)
			req.Header.Set("X-Request-ID", "corr-42")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := resp.Header.Get("X-Request-ID"); got != "corr-42" {
				t.Fatalf("echoed id = %q, want corr-42", got)
			}

			resp, err = http.Get(b.ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if got := resp.Header.Get("X-Request-ID"); got == "" {
				t.Fatal("no generated X-Request-ID")
			}
		})
	}
}

// listRequests fetches GET /v1/requests with the given query string.
func listRequests(t *testing.T, b v1Backend, query string) (int, []map[string]any) {
	t.Helper()
	resp, out := do(t, http.MethodGet, b.ts.URL+"/v1/requests"+query, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("listing %q status %d: %v", query, resp.StatusCode, out)
	}
	var count int
	json.Unmarshal(out["count"], &count)
	var views []map[string]any
	json.Unmarshal(out["requests"], &views)
	if count != len(views) {
		t.Fatalf("listing %q count %d != len %d", query, count, len(views))
	}
	return count, views
}

// TestV1RequestListing pins GET /v1/requests: id-ascending order, the
// vehicles-style limit/offset pagination, the status filter, and the
// city filter on the multi-city backend.
func TestV1RequestListing(t *testing.T) {
	for _, b := range conformanceBackends(t) {
		b := b
		t.Run(b.name, func(t *testing.T) {
			ids := []int64{submitQuoted(t, b), submitQuoted(t, b), submitQuoted(t, b)}
			if resp, _ := do(t, http.MethodPost,
				fmt.Sprintf("%s/v1/requests/%d/decline", b.ts.URL, ids[2]), nil); resp.StatusCode != http.StatusOK {
				t.Fatal("decline failed")
			}

			_, all := listRequests(t, b, "")
			if len(all) < 3 {
				t.Fatalf("full listing has %d records, want >= 3", len(all))
			}
			for i := 1; i < len(all); i++ {
				if all[i]["id"].(float64) <= all[i-1]["id"].(float64) {
					t.Fatalf("listing not id-ascending at %d: %v", i, all)
				}
			}

			// Pagination: page 2 of size 1 is the full listing's second row.
			count, page := listRequests(t, b, "?limit=1&offset=1")
			if count != 1 || page[0]["id"] != all[1]["id"] {
				t.Fatalf("page(1,1) = %v, want id %v", page, all[1]["id"])
			}
			// An offset past the end clamps to an empty page.
			if count, _ := listRequests(t, b, "?limit=5&offset=10000"); count != 0 {
				t.Fatalf("past-the-end page count = %d", count)
			}

			// Status filter: the declined request, and only declined ones.
			_, declined := listRequests(t, b, "?status=declined")
			found := false
			for _, v := range declined {
				if v["status"] != "declined" {
					t.Fatalf("status filter leaked %v", v)
				}
				if int64(v["id"].(float64)) == ids[2] {
					found = true
				}
			}
			if !found {
				t.Fatalf("declined listing misses id %d: %v", ids[2], declined)
			}

			// City filter: every row carries the requested city.
			_, scoped := listRequests(t, b, "?city="+b.city)
			if len(scoped) < 3 {
				t.Fatalf("city listing has %d records, want >= 3", len(scoped))
			}
			for _, v := range scoped {
				if v["city"] != b.city {
					t.Fatalf("city filter leaked %v", v)
				}
			}
		})
	}
}

// syncBuf is a concurrency-safe log sink.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestV1SlowRequestLog pins the slow-request line: with a threshold
// every request beats, a submit logs one structured line carrying the
// correlation id and the backend's per-stage breakdown.
func TestV1SlowRequestLog(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		GridCols: 3, GridRows: 3, Capacity: 4,
		Algorithm: core.AlgoDualSide, Seed: 1,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	var buf syncBuf
	srv := server.NewServiceWithOptions(eng, server.Options{
		SlowRequest: time.Nanosecond,
		Logger:      log.New(&buf, "", 0),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/requests",
		strings.NewReader(`{"s":3,"d":40,"riders":1}`))
	req.Header.Set("X-Request-ID", "slow-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// The line lands after the response body; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	var line string
	for time.Now().Before(deadline) {
		if s := buf.String(); strings.Contains(s, "slow_probe") || strings.Contains(s, "slow-probe-1") {
			line = s
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		`"msg":"slow_request"`,
		`"request_id":"slow-probe-1"`,
		`"route":"/v1/requests"`,
		"quote=",
	} {
		if !strings.Contains(line, want) {
			t.Fatalf("slow log %q misses %q", line, want)
		}
	}
}
