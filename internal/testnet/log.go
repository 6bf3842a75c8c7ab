package testnet

import (
	"context"
	"log/slog"
	"slices"
	"sync"
	"testing"
)

// LogLine is one captured slog record: level, message and attributes.
type LogLine struct {
	Level   slog.Level
	Message string
	Attrs   map[string]any
}

// LogRecorder is a slog handler that keeps every record it is given.
type LogRecorder struct {
	mu    sync.Mutex
	lines []LogLine
}

func (h *LogRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h *LogRecorder) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *LogRecorder) WithGroup(string) slog.Handler            { return h }

func (h *LogRecorder) Handle(_ context.Context, r slog.Record) error {
	l := LogLine{Level: r.Level, Message: r.Message, Attrs: map[string]any{}}
	r.Attrs(func(a slog.Attr) bool { l.Attrs[a.Key] = a.Value.Any(); return true })
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lines = append(h.lines, l)
	return nil
}

// Lines returns the lines logged so far.
func (h *LogRecorder) Lines() []LogLine {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.lines)
}

// CaptureLog routes the default slog logger into a LogRecorder for the
// rest of the test and restores the previous logger afterwards.
func CaptureLog(t testing.TB) *LogRecorder {
	h := &LogRecorder{}
	prev := slog.Default()
	slog.SetDefault(slog.New(h))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return h
}
