// sse_internal_test.go forces the hub's drop-on-slow-subscriber path
// (unreachable from the HTTP surface without a stalled client) and
// checks the drop count surfaces on /v1/stats and the telemetry
// counter; it also drives Server.Tick, the realtime driver's entry
// point, against a subscriber of the hub.
package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ptrider/internal/core"
	"ptrider/internal/testnet"
)

func TestSSEDropOnSlowSubscriber(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		Capacity:  4,
		Algorithm: core.AlgoDualSide, Seed: 1,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	s := NewService(eng)

	// A subscriber that never drains: the buffer fills, then every
	// further publish drops.
	ch := s.hub.subscribe()
	defer s.hub.unsubscribe(ch)
	const extra = 10
	for i := 0; i < subscriberBuffer+extra; i++ {
		s.hub.publish(sseMsg{event: "pickup", city: "x", data: []byte("{}")})
	}
	if got := s.hub.droppedCount(); got != extra {
		t.Fatalf("droppedCount = %d, want %d", got, extra)
	}

	// The drop total surfaces on /v1/stats...
	rec := httptest.NewRecorder()
	s.handleStatsV1(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var out struct {
		Server struct {
			SSESubscribers int   `json:"sse_subscribers"`
			SSEDropped     int64 `json:"sse_dropped"`
		} `json:"server"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if out.Server.SSEDropped != extra || out.Server.SSESubscribers != 1 {
		t.Fatalf("stats server panel = %+v", out.Server)
	}

	// ...and on the telemetry counter.
	rec = httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "ptrider_sse_dropped_total 10") {
		t.Fatalf("metrics miss the drop counter: %s", rec.Body.String())
	}
}

// TestServerTickPublishesEvents: Server.Tick (what ptrider-server
// -realtime calls every second) advances the backend's clock and puts
// every movement event the tick returned on the /v1/events hub, in
// order; a rejected tick moves nothing.
func TestServerTickPublishesEvents(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 8, 8, 100)
	eng, err := core.NewEngine(g, core.Config{
		Capacity:  4,
		Algorithm: core.AlgoDualSide, Seed: 1,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	eng.AddVehiclesUniform(10)
	rec, err := eng.Submit(5, 60, 1)
	if err != nil || len(rec.Options) == 0 {
		t.Fatalf("submit: %v (%d options)", err, len(rec.Options))
	}
	if err := eng.Choose(rec.ID, 0); err != nil {
		t.Fatalf("choose: %v", err)
	}
	s := NewService(eng)
	ch := s.hub.subscribe()
	defer s.hub.unsubscribe(ch)

	// The one assigned rider is the only source of events: a pickup,
	// then a dropoff.
	var kinds []string
	for i := 1; len(kinds) < 2; i++ {
		if i > 600 {
			t.Fatalf("events after %d ticks: %v", i-1, kinds)
		}
		if err := s.Tick(1); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if got := eng.Clock(); got != float64(i) {
			t.Fatalf("clock after %d ticks = %v", i, got)
		}
		for len(ch) > 0 {
			m := <-ch
			if m.id != int64(rec.ID) || m.city != core.DefaultCityName {
				t.Fatalf("event %+v, want request %d in %q", m, rec.ID, core.DefaultCityName)
			}
			kinds = append(kinds, m.event)
		}
	}
	if !slices.Equal(kinds, []string{"pickup", "dropoff"}) {
		t.Fatalf("events %v, want pickup then dropoff", kinds)
	}

	clock := eng.Clock()
	if err := s.Tick(-1); err == nil {
		t.Fatal("negative tick accepted")
	}
	if eng.Clock() != clock || len(ch) != 0 {
		t.Fatalf("rejected tick moved the clock to %v or published %d events", eng.Clock(), len(ch))
	}
}
