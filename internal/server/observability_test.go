// observability_test.go pins PR 9's telemetry surface over both
// backends: the /metrics exposition shape (HTTP route histograms plus
// the backend's submit-stage, tick-shard, WAL and surge families),
// X-Request-ID echo and generation, the GET /v1/requests listing, and
// the slow-request slog line.
package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
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
	b, _ := obsEngine(t, t.TempDir())
	return b
}

// obsEngine is obsSingle journaling into dir, with its engine.
func obsEngine(t *testing.T, dir string) (v1Backend, *core.Engine) {
	t.Helper()
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		Capacity:  4,
		Algorithm: core.AlgoDualSide, Seed: 1,
		Durability: wal.ModeAsync, WALDir: dir,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(server.NewService(eng).Handler())
	t.Cleanup(ts.Close)
	return v1Backend{name: "single-city", ts: ts, city: core.DefaultCityName, numCities: 1}, eng
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
			// The GC-pause and scheduler-latency families: a median and a
			// 99th percentile each, once per process, in seconds.
			for _, fam := range []string{"ptrider_go_gc_pause_seconds", "ptrider_go_sched_latency_seconds"} {
				if !strings.Contains(body, "# TYPE "+fam+" gauge") {
					t.Errorf("exposition misses the %s gauge family", fam)
				}
				if n := strings.Count(body, "\n"+fam+"{"); n != 2 {
					t.Errorf("%s: %d samples, want two per process", fam, n)
				}
				var q50, q99 float64
				for _, q := range []struct {
					label string
					v     *float64
				}{{"0.5", &q50}, {"0.99", &q99}} {
					line := "\n" + fam + `{quantile="` + q.label + `"} `
					i := strings.Index(body, line)
					if i < 0 {
						t.Errorf("%s misses quantile %s", fam, q.label)
						continue
					}
					v, _, _ := strings.Cut(body[i+len(line):], "\n")
					f, err := strconv.ParseFloat(v, 64)
					if err != nil || f < 0 || f > 60 {
						t.Errorf("%s{quantile=%q} = %q, want seconds in [0, 60]", fam, q.label, v)
					}
					*q.v = f
				}
				if q50 > q99 {
					t.Errorf("%s: median %v above the 99th percentile %v", fam, q50, q99)
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

// TestV1MetricsSnapshotSeries forces an engine snapshot and reads the
// journal's two snapshot series off /metrics: the payload's bytes,
// which are the snapshot file's less its 16-byte header, and one
// observation of the write's wall time. Before it both read 0.
func TestV1MetricsSnapshotSeries(t *testing.T) {
	dir := t.TempDir()
	b, eng := obsEngine(t, dir)
	sample := func(body, series string) float64 { t.Helper(); return sampleOf(t, body, series) }
	body := scrape(t, b)
	for _, want := range []string{
		"# TYPE ptrider_wal_snapshot_bytes gauge",
		"# TYPE ptrider_wal_snapshot_duration_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition misses %q", want)
		}
	}
	if n, c := sample(body, "ptrider_wal_snapshot_bytes"), sample(body, "ptrider_wal_snapshot_duration_seconds_count"); n != 0 || c != 0 {
		t.Fatalf("before any snapshot: %v bytes, %v observations", n, c)
	}

	submitQuoted(t, b)
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files %v (%v), want one", snaps, err)
	}
	fi, err := os.Stat(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	body = scrape(t, b)
	if n, want := sample(body, "ptrider_wal_snapshot_bytes"), float64(fi.Size()-16); n != want {
		t.Errorf("ptrider_wal_snapshot_bytes %v, the file holds a %v-byte payload", n, want)
	}
	if c := sample(body, "ptrider_wal_snapshot_duration_seconds_count"); c != 1 {
		t.Errorf("ptrider_wal_snapshot_duration_seconds_count %v, want 1", c)
	}
}

// sampleOf returns the value of an unlabelled series in an exposition
// body, failing the test when it has none.
func sampleOf(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no %s sample", series)
	return 0
}

// TestV1MetricsFlushLag pins the journal's flush-lag gauge: exported
// with durability on, it reads the last flushed batch's lag — above 0
// once a submit's record has been written and fsynced, and no more
// than the wall time since the engine was built — and with durability off
// the family is absent.
func TestV1MetricsFlushLag(t *testing.T) {
	start := time.Now()
	b, eng := obsEngine(t, t.TempDir())
	submitQuoted(t, b)
	// A snapshot syncs the journal first: the submit's batch is flushed.
	if err := eng.Snapshot(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	if lag := sampleOf(t, scrape(t, b), "ptrider_wal_flush_lag_seconds"); lag <= 0 || lag > elapsed {
		t.Fatalf("flush lag %v s, want in (0, %v]", lag, elapsed)
	}

	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	off, err := core.NewEngine(g, core.Config{Capacity: 4, Seed: 1, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewService(off).Handler())
	t.Cleanup(ts.Close)
	body := scrape(t, v1Backend{name: "single-city", ts: ts, city: core.DefaultCityName, numCities: 1})
	if strings.Contains(body, "ptrider_wal_flush_lag_seconds") {
		t.Fatal("durability off, yet the exposition has ptrider_wal_flush_lag_seconds")
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

// TestV1SlowRequestLog pins the slow-request line: with a threshold
// every request beats, a submit logs one slog line carrying the
// correlation id, method, route, status, wall time and the backend's
// per-stage breakdown.
func TestV1SlowRequestLog(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		Capacity:  4,
		Algorithm: core.AlgoDualSide, Seed: 1,
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	logs := testnet.CaptureLog(t)
	srv := server.NewServiceWithOptions(eng, server.Options{SlowRequest: time.Nanosecond})
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
	var line *testnet.LogLine
	for deadline := time.Now().Add(2 * time.Second); line == nil && time.Now().Before(deadline); {
		for _, l := range logs.Lines() {
			if l.Attrs["request_id"] == "slow-probe-1" {
				line = &l
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if line == nil {
		t.Fatalf("no slow-request line for slow-probe-1 in %+v", logs.Lines())
	}
	if line.Message != "server: slow request" || line.Level != slog.LevelWarn {
		t.Fatalf("slow log line %+v, want a warning \"server: slow request\"", *line)
	}
	for k, want := range map[string]any{"method": "POST", "route": "/v1/requests", "status": int64(200)} {
		if line.Attrs[k] != want {
			t.Fatalf("slow log %s = %v (%T), want %v", k, line.Attrs[k], line.Attrs[k], want)
		}
	}
	if ms, ok := line.Attrs["duration_ms"].(float64); !ok || ms < 0 {
		t.Fatalf("slow log duration_ms = %v", line.Attrs["duration_ms"])
	}
	if st, _ := line.Attrs["stages"].(string); !strings.Contains(st, "quote=") {
		t.Fatalf("slow log stages %q misses quote=", st)
	}
}

// TestV1ServerTiming pins the submit answer's Server-Timing header: on
// a journaled engine it names the quote, register and wal_wait stages
// the engine recorded on the request's span. A gateway's names the hop:
// gateway_queue, the time from the request's arrival to its first round
// trip, then wire, the round trip to the shard less the shard's own
// stages, then the stages the shard's header reported, as shard_quote
// and shard_register (its shards keep no journal, so no
// shard_wal_wait).
func TestV1ServerTiming(t *testing.T) {
	submit := func(b v1Backend) *http.Response {
		t.Helper()
		resp, err := http.Post(b.ts.URL+"/v1/requests", "application/json",
			strings.NewReader(fmt.Sprintf(`{"city":%q,"s":3,"d":40,"riders":1}`, b.city)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: submit status %d", b.name, resp.StatusCode)
		}
		return resp
	}
	st := submit(obsSingle(t)).Header.Get("Server-Timing")
	for _, stage := range []string{"quote;dur=", "register;dur=", "wal_wait;dur="} {
		if !strings.Contains(st, stage) {
			t.Errorf("engine Server-Timing %q misses %q", st, stage)
		}
	}
	st = submit(remoteBackend(t)).Header.Get("Server-Timing")
	var names []string
	for _, stage := range telemetry.ParseServerTiming(st) {
		names = append(names, stage.Name)
	}
	if want := []string{"gateway_queue", "wire", "shard_quote", "shard_register"}; !slices.Equal(names, want) {
		t.Errorf("gateway Server-Timing %q names %v, want %v", st, names, want)
	}
}
