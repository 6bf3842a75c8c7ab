package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every constructor on a nil registry and every method
// on a nil instrument must be a usable no-op — that IS the disabled
// state the hot paths rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	h := r.LatencyHist("x_seconds", "")
	r.CounterFunc("f_total", "", func() float64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	if c.Value() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	if fams := r.Gather(); fams != nil {
		t.Fatalf("nil registry gathered %v", fams)
	}
	var sp *Span
	sp.Observe("quote", 1)
	if sp.Stages() != nil || sp.Breakdown() != "" {
		t.Fatalf("nil span must be empty")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.v.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	// Registration is idempotent: same name+labels returns the same
	// instrument.
	if c2 := r.Counter("reqs_total", "requests"); c2 != c {
		t.Fatalf("re-registration returned a new counter")
	}
	// Same name, different labels → distinct series of one family.
	cb := r.Counter("reqs_total", "requests", Label{"route", "/v1/requests"})
	cb.Inc()
	fams := r.Gather()
	var fam *Family
	for i := range fams {
		if fams[i].Name == "reqs_total" {
			fam = &fams[i]
		}
	}
	if fam == nil || len(fam.Series) != 2 {
		t.Fatalf("want 2 series in reqs_total, got %+v", fam)
	}
	r.GaugeFunc("clock_seconds", "clock", func() float64 { return 12.5 })
	for _, f := range r.Gather() {
		if f.Name == "clock_seconds" && (f.Type != "gauge" || f.Series[0].Value != 12.5) {
			t.Fatalf("gauge family = %+v, want one gauge series at 12.5", f)
		}
	}
}

// TestReRequestBuildsNoInstrument pins the cost of re-requesting a
// registered series, which the HTTP middleware does for its per-route
// histogram on every request: the lookup may build the series key, but
// not a fresh histogram to throw away.
func TestReRequestBuildsNoInstrument(t *testing.T) {
	r := NewRegistry()
	route := Label{"route", "/v1/requests"}
	h := r.LatencyHist("http_seconds", "", route)
	allocs := testing.AllocsPerRun(100, func() {
		if r.LatencyHist("http_seconds", "", route) != h {
			t.Fatal("re-request returned a new histogram")
		}
	})
	if allocs > 3 {
		t.Fatalf("re-requesting a histogram allocates %.0f objects, want at most 3", allocs)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHist("lat_seconds", "latency")
	// 1000 observations uniform in (0, 1]s.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	if n := h.snapshot().n; n != 1000 {
		t.Fatalf("count = %d", n)
	}
	fams := r.Gather()
	hv := fams[0].Series[0].Hist
	if hv == nil {
		t.Fatalf("no hist view")
	}
	// Cumulative counts must be monotone and end at the total.
	last := int64(0)
	for i, c := range hv.Counts {
		if c < last {
			t.Fatalf("bucket %d not cumulative: %v", i, hv.Counts)
		}
		last = c
	}
	if last != 1000 {
		t.Fatalf("+Inf bucket = %d, want 1000", last)
	}
	// le=0.5 must hold exactly the 500 observations ≤ 0.5.
	for i, b := range hv.Bounds {
		if b == 0.5 && hv.Counts[i] != 500 {
			t.Fatalf("le=0.5 bucket = %d, want 500", hv.Counts[i])
		}
	}
	if math.Abs(hv.Sum-500.5) > 1e-6 {
		t.Fatalf("sum = %v, want 500.5", hv.Sum)
	}
	// P² estimates on uniform data: generous tolerance, the point is
	// they landed in the right region after shard merging.
	if hv.Q50 < 0.3 || hv.Q50 > 0.7 {
		t.Fatalf("p50 = %v, want ~0.5", hv.Q50)
	}
	if hv.Q99 < 0.9 || hv.Q99 > 1.01 {
		t.Fatalf("p99 = %v, want ~0.99", hv.Q99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().LatencyHist("lat_seconds", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w*1000+i) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if n := h.snapshot().n; n != 8000 {
		t.Fatalf("count = %d, want 8000", n)
	}
}

func TestSpan(t *testing.T) {
	sp := NewSpan("req-123")
	sp.Observe("quote", 0.0012)
	sp.Observe("register", 0.0001)
	st := sp.Stages()
	if len(st) != 2 || st[0].Name != "quote" || st[1].Name != "register" {
		t.Fatalf("stages = %+v", st)
	}
	bd := sp.Breakdown()
	if !strings.Contains(bd, "quote=1.200ms") || !strings.Contains(bd, "register=0.100ms") {
		t.Fatalf("breakdown = %q", bd)
	}
}

// TestSpanObserveFirst: only the first mark of a stage is kept, timed
// from the span's start; a nil span ignores it.
func TestSpanObserveFirst(t *testing.T) {
	sp := NewSpan("req-1")
	sp.ObserveFirst("gateway_queue", sp.Start.Add(3*time.Millisecond))
	sp.Observe("wire", 0.001)
	sp.ObserveFirst("gateway_queue", sp.Start.Add(9*time.Millisecond))
	st := sp.Stages()
	if len(st) != 2 || st[0] != (Stage{"gateway_queue", 0.003}) || st[1].Name != "wire" {
		t.Fatalf("stages = %+v, want gateway_queue 3 ms then wire", st)
	}
	var none *Span
	none.ObserveFirst("gateway_queue", time.Now())
}

// TestServerTimingRoundTrip: ParseServerTiming reads back what
// ServerTiming renders, to the header's microsecond, and renders again
// to the same bytes; entries of another shape are skipped.
func TestServerTimingRoundTrip(t *testing.T) {
	sp := NewSpan("req-1")
	want := []Stage{{"quote", 0.000412}, {"register", 0.0000314}, {"wal_wait", 1.25}}
	for _, st := range want {
		sp.Observe(st.Name, st.Seconds)
	}
	h := sp.ServerTiming()
	got := ParseServerTiming(h)
	if len(got) != len(want) {
		t.Fatalf("ParseServerTiming(%q) = %+v, want %d stages", h, got, len(want))
	}
	again := NewSpan("req-2")
	for i, st := range got {
		if st.Name != want[i].Name || math.Abs(st.Seconds-want[i].Seconds) > 0.5e-6 {
			t.Fatalf("stage %d = %+v, want %+v within 0.5 µs", i, st, want[i])
		}
		again.Observe(st.Name, st.Seconds)
	}
	if h2 := again.ServerTiming(); h2 != h {
		t.Fatalf("rendered again %q, want %q", h2, h)
	}
	if got := ParseServerTiming(""); got != nil {
		t.Fatalf("empty header parsed to %+v", got)
	}
	got = ParseServerTiming(`cache;desc="hit", db;dur=x,app;dur=2.5`)
	if len(got) != 1 || got[0].Name != "app" || got[0].Seconds != 0.0025 {
		t.Fatalf("mixed header parsed to %+v, want app 2.5 ms only", got)
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_reqs_total", "total requests").v.Add(7)
	r.GaugeFunc("app_clock_seconds", "sim clock", func() float64 { return 42 })
	h := r.LatencyHist("app_lat_seconds", "latency", Label{"stage", "quote"})
	h.Observe(0.003)
	h.Observe(0.2)
	var b strings.Builder
	WriteText(&b, r.Gather())
	out := b.String()

	for _, want := range []string{
		"# HELP app_reqs_total total requests",
		"# TYPE app_reqs_total counter",
		"app_reqs_total 7",
		"# TYPE app_clock_seconds gauge",
		"app_clock_seconds 42",
		"# TYPE app_lat_seconds histogram",
		`app_lat_seconds_bucket{stage="quote",le="+Inf"} 2`,
		`app_lat_seconds_count{stage="quote"} 2`,
		"# TYPE app_lat_seconds_summary summary",
		`app_lat_seconds_summary{stage="quote",quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

func TestWithLabelAndMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("c_total", "help").v.Add(1)
	b := NewRegistry()
	b.Counter("c_total", "help").v.Add(2)
	merged := Merge(WithLabel(a.Gather(), "city", "east"), WithLabel(b.Gather(), "city", "west"))
	if len(merged) != 1 {
		t.Fatalf("want 1 family, got %d", len(merged))
	}
	f := merged[0]
	if len(f.Series) != 2 {
		t.Fatalf("want 2 series, got %+v", f.Series)
	}
	for i, city := range []string{"east", "west"} {
		if f.Series[i].Labels[0] != (Label{"city", city}) {
			t.Fatalf("series %d labels = %+v", i, f.Series[i].Labels)
		}
	}
	if f.Series[0].Value != 1 || f.Series[1].Value != 2 {
		t.Fatalf("values = %v %v", f.Series[0].Value, f.Series[1].Value)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "h", Label{"v", "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	WriteText(&b, r.Gather())
	if !strings.Contains(b.String(), `e_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}
