package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ptrider/internal/roadnet"
)

// A run splits its -seconds into phases by these shares. The untraced
// run spends them on phase A (open loop at the reference load) and
// phase C (closed loop); the traced run on a short phase A, the three
// rate steps of phase B, a short phase C and the ladder replay. Phase
// C's share fixes how many cycles it does, not how long it takes.
const (
	shareA       = 0.70
	shareC       = 0.25
	shareTracedA = 0.20
	shareStepB   = 0.05
	shareTracedC = 0.10
	// warmShare of phase A is sent but not timed: connections open,
	// caches fill and the scheduler settles before the first sample.
	warmShare = 0.10
	// closedWarmShare of phase C's cycles is sent but not timed.
	closedWarmShare = 0.25
	// genLagLimitMs is how late the generator's idle workers may wake at
	// the 99th percentile before a run's notes flag it.
	genLagLimitMs = 1.0
	// ladderPerSecond sizes the ladder replay: requests per second of
	// -seconds.
	ladderPerSecond = 20
	// setupRepeats is how often an untraced run sets the deployment up;
	// setup_s is the median. A traced run reports no set-up time and
	// sets up once.
	setupRepeats = 3
)

// stepRates are phase B's fixed arrival rates.
var stepRates = []int{450, 600, 750}

type runConfig struct {
	w        *workload
	seed     int64
	seconds  float64
	traced   bool
	dir      string // scratch directory of this run, removed afterwards
	shardBin string
	spanFile string // where a traced run writes its spans
	setups   int    // how often to set up; setup_s is the median
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are printed before the result line, for a human reader.
	notes []string
	// values collects measurements by name; finish keeps those of the
	// run's catalogue.
	values map[string]float64
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish fills Metrics from the catalogue. A catalogue entry nothing
// measured, or a value JSON cannot carry, fails the run.
func (r *result) finish(defs []metricDef) {
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.notef("FAIL metric %s not measured (%v)", d.name, v)
			r.Correct = false
			v = 0
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}

func (cfg *runConfig) phase(share float64) time.Duration {
	return time.Duration(share * cfg.seconds * float64(time.Second))
}

// rngFor derives an independent generator per purpose from the run seed.
func (cfg *runConfig) rngFor(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(cfg.seed*7919 + purpose))
}

const (
	purposePhaseA = iota + 1
	purposeClosed
	purposeLadder
	purposeSteps // and the following: one per step's arrivals, then one per step's trips
)

// phaseAStream builds the workload's own traffic for an open-loop
// phase of the given length.
func (cfg *runConfig) phaseAStream(src *streamSource, dur time.Duration) ([]rider, error) {
	w, rng := cfg.w, cfg.rngFor(purposePhaseA)
	switch {
	case w.burstEvery > 0:
		return src.hotcellStream(rng, w.burstEvery, dur), nil
	case w.peakRate > 0:
		// The day is always compressed into an untraced run's phase A, so
		// riders and ticks move at one speed in both kinds of run; a
		// shorter phase replays the stretch of that day from peakWindowStart.
		full := cfg.phase(shareA)
		trips := int(math.Round(w.peakRate * full.Seconds() / 24 / peakHourShare))
		day, err := src.peakStream(cfg.seed, trips, peakDaySeconds, peakDaySeconds/full.Seconds())
		if err != nil || dur >= full {
			return day, err
		}
		start := time.Duration(peakWindowStart * float64(full))
		var window []rider
		for _, r := range day {
			if r.Due >= start && r.Due < start+dur {
				r.Due -= start
				window = append(window, r)
			}
		}
		return window, nil
	default:
		return src.uniformStream(rng, w.refRate, dur, w.relayShare), nil
	}
}

// closedTrips is the input of closed loops, rate steps and the ladder:
// single-city requests of the workload's own kind, as one-trip riders.
func (cfg *runConfig) closedTrips(src *streamSource, purpose int64, n int) []rider {
	rng := cfg.rngFor(purpose)
	pool := make([]rider, n)
	var hot []roadnet.VertexID
	if cfg.w.burstEvery > 0 {
		hot = hotCell(src.grid)
	}
	for i := range pool {
		if hot != nil {
			pool[i] = src.single(0, hotTrip(rng, src.graphs[0], hot))
			continue
		}
		city := rng.Intn(len(src.graphs))
		pool[i] = src.single(0, uniformTrip(rng, src.graphs[city], city))
	}
	return pool
}

// live is what one open-loop phase measured.
type live struct {
	riders  []rider
	samples []sample
}

// newTicker returns the workload's tick connection schedule, nil when
// time stands still.
func (cfg *runConfig) newTicker() *ticker {
	w := cfg.w
	if w.tickEvery == 0 {
		return nil
	}
	secs := w.tickSecs
	if secs == 0 {
		// Replay the compressed day in step with the riders' schedule.
		secs = peakDaySeconds / cfg.phase(shareA).Seconds() * w.tickEvery.Seconds()
	}
	return &ticker{every: w.tickEvery, seconds: secs, listing: w.listing}
}

// byKind selects the timed samples of one rider kind: those due after
// the warm-up share of the phase.
func (lv *live) byKind(kind riderKind, warm time.Duration, f func(*sample) time.Duration) []float64 {
	var out []float64
	for i := range lv.samples {
		if s := &lv.samples[i]; s.kind == kind && s.due >= warm && !s.failed {
			out = append(out, ms(f(s)))
		}
	}
	return out
}

// submitMs is the timed submit latencies of single-city riders sent
// individually.
func (lv *live) submitMs(warm time.Duration) []float64 {
	return lv.byKind(kindSingle, warm, (*sample).submitLatency)
}

func newConns(base string, n int, log *routeLog) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = newConn(base, log)
	}
	return out
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// runner carries one run's state across its phases.
type runner struct {
	cfg   *runConfig
	wd    *world
	cl    *client
	conns []*conn
	res   *result
	// log records every call this run makes to the deployment's
	// /v1/requests route, for the histogram cross-check.
	log routeLog
	// stopTicks ends the tick connection, which otherwise spans the
	// live phases: simulated time keeps moving between them, as it
	// would under an operator's scheduler.
	stopTicks func()
	ticker    *ticker
}

// openPhase runs the riders on schedule and books their outcomes.
func (rn *runner) openPhase(ctx context.Context, riders []rider, pol policy) []sample {
	samples := rn.cl.openLoop(ctx, rn.conns, riders, pol)
	rn.res.Attempted += int64(len(samples))
	return samples
}

// startTicks starts the workload's tick connection, if it has one.
func (rn *runner) startTicks(ctx context.Context) {
	rn.ticker = rn.cfg.newTicker()
	rn.stopTicks = func() {}
	if rn.ticker == nil {
		return
	}
	tctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	c := newConn(rn.wd.base, &rn.log)
	go func() {
		defer close(done)
		rn.ticker.run(tctx, rn.cl, c)
	}()
	rn.stopTicks = func() {
		cancel()
		<-done
		c.close()
		rn.stopTicks = func() {}
	}
}

// setupTimed sets the deployment up repeats times, keeps the last and
// returns the median wall time of a set-up: from nothing to a server
// that answers its readiness probe, child processes spawned and warm-up
// trips committed.
func setupTimed(cfg *runConfig, repeats int) (*world, float64, error) {
	var times []float64
	var wd *world
	for i := range repeats {
		if wd != nil {
			wd.close()
			if err := os.RemoveAll(wd.dir); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		wd, err = setup(cfg.w, filepath.Join(cfg.dir, fmt.Sprintf("world%d", i)), cfg.shardBin)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return wd, median(times), nil
}

// run executes one workload once and returns its result line.
func run(ctx context.Context, cfg *runConfig) (*result, error) {
	res := &result{Correct: true, values: map[string]float64{}}
	if cfg.w.twin && cfg.shardBin == "" {
		return nil, fmt.Errorf("%s needs the ptrider-shard binary", cfg.w.name)
	}
	wd, setupS, err := setupTimed(cfg, max(cfg.setups, 1))
	if err != nil {
		return nil, err
	}
	defer wd.close()
	res.set("setup_s", setupS)

	rn := &runner{cfg: cfg, wd: wd, res: res, cl: &client{seed: cfg.seed}}
	rn.conns = newConns(wd.base, runtime.NumCPU(), &rn.log)
	defer closeConns(rn.conns)
	src := wd.source()

	durA := cfg.phase(shareA)
	if cfg.traced {
		durA = cfg.phase(shareTracedA)
		rn.cl.tr = newTracer(cfg.w.name)
	}
	riders, err := cfg.phaseAStream(src, durA)
	if err != nil {
		return nil, err
	}
	lv := &live{riders: riders}
	res.notef("stream %s: %d riders, hash %s", cfg.w.name, len(riders), streamHash(riders))

	if wd.eng != nil {
		if err := matcherGate(wd.eng, singlesOf(riders)); err != nil {
			res.notef("FAIL %v", err)
			res.Correct = false
		}
	}
	before, err := scrape(wd.base)
	if err != nil {
		return nil, err
	}

	rn.startTicks(ctx)
	lv.samples = rn.openPhase(ctx, riders, cfg.w.policy)

	if cfg.traced {
		err = rn.tracedRest(ctx, lv, src)
	} else {
		err = rn.untracedRest(ctx, lv, src)
	}
	rn.stopTicks()
	if err != nil {
		return nil, err
	}
	rn.verify(before)

	res.Failed = rn.cl.fails.Load()
	if res.Failed > 0 {
		res.Correct = false
		res.notef("FAIL %d operations failed; first: %v", res.Failed, rn.cl.firstErr)
	}
	if cfg.traced {
		res.finish(perLayer)
		if err := rn.cl.tr.writeFile(cfg.spanFile); err != nil {
			return nil, err
		}
		res.notef("spans: %d written to %s", len(rn.cl.tr.spans), cfg.spanFile)
	} else {
		res.finish(endToEnd)
	}
	return res, nil
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// untracedRest finishes an untraced run after phase A: the heap
// reading, then phase C's closed loop.
func (rn *runner) untracedRest(ctx context.Context, lv *live, src *streamSource) error {
	cfg, res := rn.cfg, rn.res
	warm := time.Duration(warmShare * float64(cfg.phase(shareA)))
	res.set("heap_mb", heapMB())
	// Phase C measures quoting capacity against the fleet as phase A left
	// it: time stands still, so no tick's work is booked to the cycles.
	rn.stopTicks()
	rn.reportLive(lv, warm)

	rn.closedPhase(ctx, src, cfg.phase(shareC))
	return nil
}

// closedPhase is phase C: nproc clients work through closedRate × dur
// quote+decline cycles, each sending its next when the last completed.
// Every cycle is a fresh trip drawn from the seed. The first
// closedWarmShare of the cycles is sent but not timed: the loop settles
// before the first sample.
func (rn *runner) closedPhase(ctx context.Context, src *streamSource, dur time.Duration) {
	res := rn.res
	n := int(math.Round(rn.cfg.w.closedRate * dur.Seconds()))
	trips := rn.cfg.closedTrips(src, purposeClosed, n)
	samples := rn.cl.closedLoop(ctx, rn.conns, trips)
	res.Attempted += int64(len(samples))
	timed := samples[min(int(closedWarmShare*float64(n)), len(samples)):]
	var cycles []float64
	first, last := time.Duration(math.MaxInt64), time.Duration(0)
	for i := range timed {
		if s := &timed[i]; !s.failed {
			cycles = append(cycles, ms(s.end-s.start))
			first, last = min(first, s.start), max(last, s.end)
		}
	}
	wall := (last - first).Seconds()
	res.set("cycle_p50_ms", median(cycles))
	res.set("throughput_rps", ratio(float64(len(cycles)), wall))
	res.notef("phase C: %d quote+decline cycles on %d connections, %d timed in %.2fs: %.0f req/s, cycle p50 %.3f p90 %.3f ms",
		len(samples), len(rn.conns), len(cycles), wall, ratio(float64(len(cycles)), wall), median(cycles), quantile(cycles, 0.90))
}

// liveOps are the operations only some workloads' traffic contains, in
// the order reportLive collects them: the two metrics each yields, and
// the ladder rung that stands in on a workload without the operation.
type opQuantile struct {
	name string
	p    float64
}

var liveOps = []struct {
	rung      string
	quantiles [2]opQuantile
}{
	{"POST /v1/requests (batch of 16)", [2]opQuantile{{"batch_p50_ms", 0.50}, {"batch_p90_ms", 0.90}}},
	{"POST /v1/requests/{id}/choice", [2]opQuantile{{"choose_p50_ms", 0.50}, {"choose_p99_ms", 0.99}}},
	{"POST /v1/requests (relay)", [2]opQuantile{{"relay_p50_ms", 0.50}, {"relay_p95_ms", 0.95}}},
	{"POST /v1/ticks", [2]opQuantile{{"advance_p50_ms", 0.50}, {"advance_p95_ms", 0.95}}},
}

// reportLive books phase A's timings and notes its sample counts, the
// generator's own lateness and the latency limit for the reader. The
// tick connection must have stopped.
func (rn *runner) reportLive(lv *live, warm time.Duration) {
	res := rn.res
	var lag []float64
	backlog, stale, chose := 0, 0, 0
	for i := range lv.samples {
		s := &lv.samples[i]
		if s.slept {
			lag = append(lag, ms(s.start-s.due))
		}
		backlog = max(backlog, s.backlog)
		if s.stale {
			stale++
		}
		if s.chose {
			chose++
		}
	}
	submit := lv.submitMs(warm)
	call := lv.byKind(kindSingle, warm, (*sample).submitService)
	res.set("call_p50_ms", quantile(call, 0.50))
	res.set("submit_p50_ms", quantile(submit, 0.50))
	res.set("submit_p99_ms", quantile(submit, 0.99))
	res.set("load.gen_lag_p99_ms", quantile(lag, 0.99))
	res.set("load.max_backlog", float64(backlog))
	res.notef("phase A: %d riders sent, %d submit samples timed, %d chose, %d stale; max backlog %d",
		len(lv.samples), len(submit), chose, stale, backlog)
	res.notef("phase A submit: call p50 %.3f p90 %.3f ms; rider's wait from due time p50 %.3f p90 %.3f p95 %.3f p99 %.3f ms",
		quantile(call, 0.50), quantile(call, 0.90),
		quantile(submit, 0.50), quantile(submit, 0.90), quantile(submit, 0.95), quantile(submit, 0.99))
	if p99 := quantile(lag, 0.99); p99 > genLagLimitMs {
		res.notef("WARN generator lag p99 %.3f ms exceeds %g ms: idle workers woke late, so riders were sent later than scheduled", p99, genLagLimitMs)
	} else {
		res.notef("generator lag p99 %.3f ms within %g ms", p99, genLagLimitMs)
	}
	var choices, ticks []float64
	for i := range lv.samples {
		if s := &lv.samples[i]; s.chose && s.due >= warm {
			choices = append(choices, ms(s.answer))
		}
	}
	if rn.ticker != nil {
		ticks = durationsMs(rn.ticker.ticks)
	}
	for i, xs := range [][]float64{
		lv.byKind(kindBatch, warm, (*sample).submitLatency), choices,
		lv.byKind(kindRelay, warm, (*sample).submitLatency), ticks,
	} {
		for _, q := range liveOps[i].quantiles {
			if len(xs) > 0 {
				res.set(q.name, quantile(xs, q.p))
			}
		}
	}
	if p99 := quantile(submit, 0.99); p99 > rn.cfg.w.sloMs {
		res.notef("latency limit: submit p99 %.2f ms exceeds %.0f ms", p99, rn.cfg.w.sloMs)
	} else {
		res.notef("latency limit: submit p99 %.2f ms within %.0f ms", p99, rn.cfg.w.sloMs)
	}
}

// verify runs the checks that follow the traffic: engine invariants,
// lifecycle counters and request histogram against the client's own
// books, and for a journaled engine the recovery round trip.
func (rn *runner) verify(before promText) {
	res, wd := rn.res, rn.wd
	check := func(err error) {
		if err != nil {
			res.notef("FAIL %v", err)
			res.Correct = false
		}
	}
	after, err := scrape(wd.base)
	if err != nil {
		check(err)
		return
	}
	check(checkHistogram(before, after, rn.log.seconds))
	if wd.eng == nil {
		return
	}
	check(wd.eng.CheckInvariants())
	check(checkCounters(before, after, rn.cl))
	if rn.cfg.w.wal {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = wd.srv.Shutdown(ctx) // the engine is closed next either way
		cancel()
		wd.srv = nil
		recoverMs, err := checkRecovery(wd)
		check(err)
		res.notef("recovery: journal re-opened in %.1f ms, ledger equal", recoverMs)
	}
}
