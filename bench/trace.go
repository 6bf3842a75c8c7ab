package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one rider (live
// phases) or of one replayed request (the ladder) share a trace id.
type span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// record stores one finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(traceID, parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		TraceID: traceID, SpanID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
	return id
}

// setParent links already-recorded child spans under a parent recorded
// after them (a rider's span ends after its calls do).
func (t *tracer) setParent(parent uint64, children ...uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, c := range children {
		if c != 0 {
			t.spans[c-1].Parent = parent
		}
	}
	t.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
