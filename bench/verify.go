package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"ptrider/internal/core"
)

// gateSamples is how many requests the matcher-equality gate checks
// before any timing starts.
const gateSamples = 64

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func sameOptions(a, b []core.Option) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Coordinates only: which of two vehicles offering the same
		// pick-up and price wins the tie depends on discovery order.
		if !near(a[i].PickupDist, b[i].PickupDist) || !near(a[i].Price, b[i].Price) {
			return false
		}
	}
	return true
}

// matcherGate is the paper's equivalence claim as a precondition of
// every measurement: the naive scan, the single-side search and the
// dual-side search return identical skylines.
func matcherGate(eng *core.Engine, trips []trip) error {
	for i, t := range trips {
		if i == gateSamples {
			break
		}
		naive, _, err := eng.MatchOnce(core.AlgoNaive, t.S, t.D, t.Riders)
		if err != nil {
			return fmt.Errorf("gate: naive match %d→%d: %w", t.S, t.D, err)
		}
		for _, algo := range []core.Algorithm{core.AlgoSingleSide, core.AlgoDualSide} {
			got, _, err := eng.MatchOnce(algo, t.S, t.D, t.Riders)
			if err != nil {
				return fmt.Errorf("gate: %v match %d→%d: %w", algo, t.S, t.D, err)
			}
			if !sameOptions(naive, got) {
				return fmt.Errorf("gate: %v skyline of %d→%d differs from naive (%d vs %d options)",
					algo, t.S, t.D, len(got), len(naive))
			}
		}
	}
	return nil
}

// scrape reads the deployment's /metrics.
func scrape(base string) (promText, error) {
	c := newConn(base, nil)
	defer c.close()
	code, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	return parseProm(string(body)), nil
}

// checkCounters holds the client's tallies against the engine's own
// lifecycle counters over the same interval.
func checkCounters(before, after promText, cl *client) error {
	for _, c := range []struct {
		family string
		client int64
	}{
		{"ptrider_requests_total", cl.quoted.Load()},
		{"ptrider_assigned_total", cl.assigned.Load()},
		{"ptrider_declined_total", cl.declined.Load()},
	} {
		if delta := after.sum(c.family, nil) - before.sum(c.family, nil); delta != float64(c.client) {
			return fmt.Errorf("%s moved by %v, the client counted %d", c.family, delta, c.client)
		}
	}
	return nil
}

// checkHistogram holds the client's view of the submit route against
// the server's ptrider_http_request_duration_seconds: the two medians
// must fall within one bucket of each other. svc is the client-side
// wall time, in seconds, of every call the route served.
func checkHistogram(before, after promText, svc []float64) error {
	want := map[string]string{"route": requestsRoute}
	const family = "ptrider_http_request_duration_seconds"
	h := after.hist(family, want).sub(before.hist(family, want))
	if int(h.count) != len(svc) {
		return fmt.Errorf("%s{route=%q} observed %v calls, the client made %d", family, requestsRoute, h.count, len(svc))
	}
	server, client := h.medianBucket(), h.bucketOf(median(svc))
	if d := server - client; d < -1 || d > 1 {
		return fmt.Errorf("median of %s in bucket %d (≤%gs), the client's in bucket %d (%.6fs)",
			family, server, h.bounds[server], client, median(svc))
	}
	return nil
}

// ledgerRow is what must survive a restart of a request record.
type ledgerRow struct {
	id      core.RequestID
	status  core.RequestStatus
	vehicle int32
	price   float64
}

func ledgerOf(eng *core.Engine) ([]ledgerRow, error) {
	recs, err := eng.Requests("", core.RequestFilter{}, 0)
	if err != nil {
		return nil, err
	}
	out := make([]ledgerRow, len(recs))
	for i, r := range recs {
		out[i] = ledgerRow{id: r.ID, status: r.Status, vehicle: int32(r.Vehicle), price: r.Price}
	}
	return out, nil
}

// checkRecovery closes the world's engine, re-opens its journal
// directory and compares the recovered ledger with the live one. It
// returns how long the re-open took. The world's engine is gone after.
func checkRecovery(wd *world) (recoverMs float64, err error) {
	live, err := ledgerOf(wd.eng)
	if err != nil {
		return 0, err
	}
	if err := wd.eng.Close(); err != nil {
		return 0, fmt.Errorf("close engine: %w", err)
	}
	g := wd.eng.Graph()
	wd.eng = nil
	cfg := wd.engCfg
	cfg.Telemetry = nil
	t0 := time.Now()
	eng, err := core.NewEngine(g, cfg)
	recoverMs = ms(time.Since(t0))
	if err != nil {
		return 0, fmt.Errorf("re-open %s: %w", cfg.WALDir, err)
	}
	defer eng.Close() // read-only re-open: nothing to flush
	if !eng.Recovered() {
		return 0, fmt.Errorf("re-open %s: nothing recovered", cfg.WALDir)
	}
	got, err := ledgerOf(eng)
	if err != nil {
		return 0, err
	}
	if len(got) != len(live) {
		return 0, fmt.Errorf("recovered ledger has %d records, the live one %d", len(got), len(live))
	}
	for i := range live {
		if got[i] != live[i] {
			return 0, fmt.Errorf("recovered record %+v differs from live %+v", got[i], live[i])
		}
	}
	return recoverMs, nil
}
