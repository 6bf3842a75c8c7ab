// sse.go implements GET /v1/events: a Server-Sent Events stream of the
// movement events (pickups and dropoffs) produced by simulated time
// advancing — POST /v1/ticks and realtime drivers calling Server.Tick
// both feed it.
//
// Each movement event is one SSE message whose event name is the kind:
//
//	event: pickup
//	data: {"city":"east","kind":"pickup","vehicle":3,"request":41,"odo":812.5}
//
// Subscribers are held behind buffered channels; a subscriber that
// stops draining loses events rather than stalling ticks (the stream is
// an observability surface, not a ledger — GET /v1/requests/{id} is the
// source of truth).
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"ptrider/internal/core"
)

// sseMsg is one formatted stream message. city carries the producing
// city so per-subscriber ?city= filters can match without re-parsing
// the JSON payload; id is the request's correlation id, emitted as
// the SSE "id:" field so clients can tie events back to requests.
type sseMsg struct {
	event string
	city  string
	id    int64
	data  []byte
}

// subscriberBuffer bounds each subscriber's in-flight events.
const subscriberBuffer = 256

// eventHub fans movement events out to the active /v1/events streams.
// dropped counts events discarded on full subscriber buffers — the
// cost of the drop-don't-stall policy, surfaced through /v1/stats and
// the ptrider_sse_dropped_total counter.
type eventHub struct {
	mu      sync.Mutex
	subs    map[chan sseMsg]struct{}
	dropped atomic.Int64
}

// subscriberCount returns the number of active subscribers.
func (h *eventHub) subscriberCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// droppedCount returns the total events dropped on slow subscribers.
func (h *eventHub) droppedCount() int64 { return h.dropped.Load() }

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan sseMsg]struct{})}
}

func (h *eventHub) subscribe() chan sseMsg {
	ch := make(chan sseMsg, subscriberBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *eventHub) unsubscribe(ch chan sseMsg) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// publish delivers one message to every subscriber, dropping it for
// subscribers whose buffer is full.
func (h *eventHub) publish(m sseMsg) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- m:
		default: // slow consumer: drop rather than stall the tick
			h.dropped.Add(1)
		}
	}
}

// publishEvents renders tick movement events onto the stream.
func (s *Server) publishEvents(events []core.ServiceEvent) {
	for _, e := range events {
		data, err := json.Marshal(e)
		if err != nil {
			continue
		}
		s.hub.publish(sseMsg{event: e.Kind, city: e.City, id: e.Request, data: data})
	}
}

// handleEvents serves GET /v1/events as an SSE stream until the client
// disconnects. An optional ?city= parameter narrows the stream to one
// city's events; the filter runs subscriber-side so one hub serves
// every combination of filters.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	cityFilter := r.URL.Query().Get("city")
	fl, ok := w.(http.Flusher)
	if !ok {
		writeCode(w, http.StatusInternalServerError, "internal", "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	ch := s.hub.subscribe()
	defer s.hub.unsubscribe(ch)
	// An immediate comment line lets clients confirm the subscription
	// is live before the first tick fires.
	fmt.Fprint(w, ": stream open\n\n")
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-ch:
			if cityFilter != "" && m.city != cityFilter {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", m.id, m.event, m.data)
			fl.Flush()
		}
	}
}
