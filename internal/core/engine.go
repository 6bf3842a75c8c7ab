package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ptrider/internal/fleet"
	"ptrider/internal/gridindex"
	"ptrider/internal/kinetic"
	"ptrider/internal/pricing"
	"ptrider/internal/pricing/surge"
	"ptrider/internal/roadnet"
	"ptrider/internal/stats"
	"ptrider/internal/telemetry"
	"ptrider/internal/wal"
)

// Algorithm selects the matching method (configurable in the demo's
// website interface).
type Algorithm int

// Matching algorithms.
const (
	AlgoNaive Algorithm = iota
	AlgoSingleSide
	AlgoDualSide
)

func (a Algorithm) String() string {
	switch a {
	case AlgoNaive:
		return "naive"
	case AlgoSingleSide:
		return "single-side"
	case AlgoDualSide:
		return "dual-side"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm maps a name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "naive":
		return AlgoNaive, nil
	case "single", "single-side":
		return AlgoSingleSide, nil
	case "dual", "dual-side":
		return AlgoDualSide, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// MarshalText encodes the algorithm by name, as the params panel shows
// it.
func (a Algorithm) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText accepts any name ParseAlgorithm does.
func (a *Algorithm) UnmarshalText(b []byte) (err error) {
	*a, err = ParseAlgorithm(string(b))
	return err
}

// Config carries the demo's global settings (paper §4.2: taxi capacity,
// number of taxis, maximal waiting time, service constraint, price
// calculator function, and the matching algorithm). The grid index
// (§3.2.1) is not a setting: it always has 16×16 cells over the road
// network's bounding box, and surge pricing tracks those cells.
type Config struct {
	// Capacity is the per-vehicle rider capacity.
	Capacity int
	// MaxSchedulePoints caps pending stops per vehicle (0 = 8; at most
	// 16 — the kinetic quote's permutation encoding and factorial
	// enumeration both cap there, and NewEngine rejects more).
	MaxSchedulePoints int

	// SpeedKmh is the constant vehicle speed; the demo uses 48 km/h.
	SpeedKmh float64
	// MaxWaitSeconds is the global maximal waiting time w.
	MaxWaitSeconds float64
	// Sigma is the global service constraint σ.
	Sigma float64
	// MaxPickupSeconds caps the planned pick-up time of returned
	// options (search cutoff). Zero means 1800 s.
	MaxPickupSeconds float64

	// PriceRatio overrides the paper's f_n (nil = default).
	PriceRatio pricing.RatioFunc

	// SurgeEnabled turns on the quote-time surge stage of the pricing
	// pipeline: a per-cell demand/supply tracker scales each quote's
	// ratio by its origin cell's multiplier. Off, the pipeline runs the
	// static paper model alone, bit-identically.
	SurgeEnabled bool
	// SurgeEpochSeconds is the surge epoch length in simulated seconds:
	// multipliers recompute when the engine clock crosses an epoch
	// boundary at tick time (0 = 60).
	SurgeEpochSeconds float64
	// SurgeAlpha is the EMA weight of the newest epoch's demand/supply
	// ratio (0 = the tracker default, 0.5).
	SurgeAlpha float64
	// SurgeTiers overrides the ratio→multiplier tier table
	// (nil = surge.DefaultTiers: >1.5 → 1.2×, >2.0 → 1.5×).
	SurgeTiers []surge.Tier

	// Algorithm selects the matcher. The zero value is AlgoNaive; the
	// facade and the servers default to AlgoDualSide.
	Algorithm Algorithm

	// Seed drives vehicle placement and roaming.
	Seed int64

	// CommitSlack loosens Choose's validate-then-commit: when the
	// quoted candidate has gone stale (the vehicle moved or accepted
	// other riders between quote and choice), the request is re-probed
	// and a fresh candidate within CommitSlack·dist(s,d) metres of the
	// quoted pick-up distance and detour is committed instead. Zero is
	// strict: a stale candidate fails the choice, as the serial engine
	// did.
	CommitSlack float64

	// Durability selects the write-ahead journaling mode (off, async,
	// sync; see package wal). When not off, WALDir must name the
	// journal directory; NewEngine recovers any state found there
	// before serving.
	Durability wal.Mode
	// WALDir is the journal + snapshot directory (created on demand).
	// The engine snapshots every 4096 journaled records, checked at
	// tick boundaries.
	WALDir string

	// Telemetry, when non-nil, receives the engine's hot-path metrics:
	// submit-stage latency histograms (quote/register/wal_wait/
	// probe_commit), tick and tick-shard wall times, WAL append/fsync
	// latencies, lifecycle counters and surge/clock gauges (see
	// internal/telemetry for the instrument semantics). Nil — the
	// default — disables instrumentation at zero hot-path cost: every
	// observation site is a nil histogram whose methods no-op
	// (BenchmarkSubmitTelemetry pins the enabled overhead < 3%).
	Telemetry *telemetry.Registry
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Capacity == 0 {
		out.Capacity = 4
	}
	if out.SpeedKmh == 0 {
		out.SpeedKmh = 48
	}
	if out.MaxWaitSeconds == 0 {
		out.MaxWaitSeconds = 300
	}
	if out.Sigma == 0 {
		out.Sigma = 0.4
	}
	if out.MaxPickupSeconds == 0 {
		out.MaxPickupSeconds = 1800
	}
	if out.SurgeEpochSeconds == 0 {
		out.SurgeEpochSeconds = 60
	}
	return out
}

// Engine is the PTRider system core: it owns the index structures, the
// fleet and the matchers, answers requests with skyline options,
// commits rider choices, and advances simulated time.
//
// Safe for concurrent use — and, unlike the first generation of this
// engine, internally parallel. State is layered by mutability:
//
//   - Substrate: graph, grid index, pricing — immutable,
//     shared lock-free (see Substrate).
//   - Distance memo: one row per vertex, read without a lock, written
//     under a per-row mutex (see memoMetric).
//   - Fleet: per-vehicle locks; probes and commits on distinct
//     vehicles never contend (see package fleet).
//   - Coordination core: the request ledger (see ledger.go) behind
//     its own mutex led.mu, the response/quality accumulators behind
//     statsMu, the simulated clock in an atomic, the algorithm switch
//     in an atomic, and the placement RNG behind rngMu. Ticks are
//     serialised by tickMu but overlap freely with matching.
//
// Lock order: led.mu → statsMu, and led.mu → Vehicle.mu (a journaled
// operation is one critical section of led.mu, see journaled: Choose
// holds the ledger across its vehicle commit so assignment is atomic
// against event application and vehicle removal); no code path
// acquires led.mu while holding a vehicle lock. Submit holds no
// engine-wide lock while matching, so request answering scales with
// cores.
type Engine struct {
	sub    *Substrate
	metric *memoMetric
	lists  *gridindex.VehicleLists
	fleet  *fleet.Fleet

	matchers map[Algorithm]Matcher
	mctx     *matchContext
	algo     atomic.Int32

	// Pricing pipeline (see pricing.Pipeline): every quote resolves its
	// FareContext here. fares is immutable after construction; tracker
	// is nil when surge is disabled. surgeNext (the clock at which the
	// next epoch advances) and surgeSupply (the Advance scratch) ride
	// under led.mu: the epoch rolls in the tick record's critical
	// section.
	fares       *pricing.Pipeline
	tracker     *surge.Tracker
	surgeNext   float64 // guarded by led.mu
	surgeSupply []int   // guarded by led.mu

	clockBits atomic.Uint64 // simulated seconds, as math.Float64bits
	nextID    atomic.Int64
	requests  atomic.Int64 // quoted requests, for consistent Stats

	tickMu sync.Mutex // serialises Tick's movement phase

	rngMu  sync.Mutex
	rng    *rand.Rand
	rngSrc *countedSource // rng's source, counted for snapshots

	// led is the request ledger; led.mu is the engine's coordination
	// lock.
	led *ledger

	// Durability (see durability.go). journal is nil when off; the
	// records-since-snapshot cadence counter rides under led.mu like
	// the appends it counts. snapEvery is defaultSnapshotEvery (tests
	// change it before use; negative disables automatic snapshots).
	journal      *wal.Journal
	snapEvery    int
	recSinceSnap int    // guarded by led.mu
	walScratch   []byte // record-encoding scratch, guarded by led.mu
	// Reused record envelopes for the hot append paths (submit and
	// choose run once per request); appendLocked only encodes them, so
	// reuse under led.mu is safe and keeps the paths allocation-free.
	walRecScratch walRecord
	walSubScratch submitRec
	walChoScratch chooseRec
	divergence    atomic.Int64

	// statsMu guards the online accumulators for the website panel
	// (Fig. 4c). Taken after led.mu when both are needed.
	statsMu    sync.Mutex
	respNs     stats.Online // per-match wall time
	respP95    *stats.P2Quantile
	optCount   stats.Online
	verified   stats.Online
	pruned     stats.Online
	cells      stats.Online
	distCalls  stats.Online
	waitDist   stats.Online // actual − planned pickup distance
	detourFrac stats.Online // in-vehicle distance / direct distance

	// Tick observability (also behind statsMu): wall time and merged
	// event volume per Tick, plus the worst per-tick shard skew seen —
	// the gap between the slowest and fastest shard of one step, the
	// quantity that bounds parallel efficiency.
	tickWallMs     stats.Online
	tickEvents     stats.Online
	lastTickWallMs float64
	maxShardSkewMs float64

	// Telemetry instruments (see Config.Telemetry). reg and every
	// histogram are nil when telemetry is off; the histograms' methods
	// are nil-safe no-ops, so the hot paths observe unconditionally and
	// only pay when enabled.
	reg             *telemetry.Registry
	quoteHist       *telemetry.LatencyHist
	registerHist    *telemetry.LatencyHist
	walWaitHist     *telemetry.LatencyHist
	probeCommitHist *telemetry.LatencyHist
	tickHist        *telemetry.LatencyHist
}

// NewEngine builds the full system over an embedded road network.
func NewEngine(g *roadnet.Graph, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	sub, err := newSubstrate(g, cfg)
	if err != nil {
		return nil, err
	}
	metric := newMemoMetric(sub.grid, sub.ch)
	lists := gridindex.NewVehicleLists(sub.grid.NumCells())
	fl, err := fleet.New(sub.grid, lists, metric, fleet.Config{
		Capacity:          cfg.Capacity,
		MaxSchedulePoints: cfg.MaxSchedulePoints,
		Seed:              cfg.Seed,
		// Nil registry hands out a nil histogram — telemetry off.
		ShardHist: cfg.Telemetry.LatencyHist(
			"ptrider_tick_shard_duration_seconds",
			"Per-shard wall time of one fleet movement step."),
	})
	if err != nil {
		return nil, err
	}
	rngSrc := newCountedSource(cfg.Seed)
	e := &Engine{
		sub:       sub,
		metric:    metric,
		lists:     lists,
		fleet:     fl,
		rng:       rand.New(rngSrc),
		rngSrc:    rngSrc,
		led:       newLedger(),
		respP95:   stats.NewP2Quantile(0.95),
		snapEvery: defaultSnapshotEvery,
	}
	e.algo.Store(int32(cfg.Algorithm))
	if cfg.SurgeEnabled {
		e.tracker = surge.New(sub.grid.NumCells(), surge.Config{Tiers: cfg.SurgeTiers, Alpha: cfg.SurgeAlpha})
		e.surgeSupply = make([]int, sub.grid.NumCells())
		e.surgeNext = cfg.SurgeEpochSeconds
		e.fares = pricing.NewPipeline(pricing.Base(sub.model), pricing.Surge(e.tracker))
	} else {
		e.fares = pricing.NewPipeline(pricing.Base(sub.model))
	}
	e.mctx = newMatchContext(sub, fl, lists, metric)
	e.matchers = map[Algorithm]Matcher{
		AlgoNaive:      newNaiveMatcher(e.mctx),
		AlgoSingleSide: newRingMatcher(e.mctx, false),
		AlgoDualSide:   newRingMatcher(e.mctx, true),
	}
	if cfg.Telemetry != nil {
		e.initTelemetry(cfg.Telemetry)
	}
	if cfg.Durability != wal.ModeOff {
		if err := e.openDurability(cfg); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// initTelemetry registers the engine's instruments. Stage histograms
// live as fields so the hot paths reach them without a registry
// lookup; lifecycle counters and clock/surge gauges are func-backed —
// the engine already tracks them, so the scrape reads the live values
// instead of double-counting. The surge gauges are registered even
// when surge is off (reading zero) so the family exists on every
// telemetry-enabled backend.
func (e *Engine) initTelemetry(reg *telemetry.Registry) {
	e.reg = reg
	stage := func(s string) telemetry.Label { return telemetry.Label{Name: "stage", Value: s} }
	const subHelp = "Submit pipeline stage wall times."
	e.quoteHist = reg.LatencyHist("ptrider_submit_stage_duration_seconds", subHelp, stage("quote"))
	e.registerHist = reg.LatencyHist("ptrider_submit_stage_duration_seconds", subHelp, stage("register"))
	e.walWaitHist = reg.LatencyHist("ptrider_submit_stage_duration_seconds", subHelp, stage("wal_wait"))
	e.probeCommitHist = reg.LatencyHist("ptrider_submit_stage_duration_seconds", subHelp, stage("probe_commit"))
	e.tickHist = reg.LatencyHist("ptrider_tick_duration_seconds",
		"Whole-tick movement-phase wall time.")

	reg.CounterFunc("ptrider_requests_total", "Quoted requests.",
		func() float64 { return float64(e.requests.Load()) })
	reg.CounterFunc("ptrider_assigned_total", "Requests committed to a vehicle.",
		func() float64 { return float64(e.lifecycle().assigned) })
	reg.CounterFunc("ptrider_declined_total", "Requests declined or cancelled.",
		func() float64 { return float64(e.lifecycle().declined) })
	reg.CounterFunc("ptrider_completed_total", "Requests dropped off.",
		func() float64 { return float64(e.lifecycle().completed) })
	reg.GaugeFunc("ptrider_clock_seconds", "Simulated engine clock.", e.Clock)
	reg.GaugeFunc("ptrider_vehicles", "In-service vehicles.",
		func() float64 { return float64(e.NumVehicles()) })
	reg.GaugeFunc("ptrider_surge_epoch", "Current surge pricing epoch (0 when surge is off).",
		func() float64 { return float64(e.SurgeStats().Epoch) })
	reg.GaugeFunc("ptrider_surge_active_cells", "Cells with a non-unit surge multiplier.",
		func() float64 { return float64(e.SurgeStats().ActiveCells) })

	// The distance memo's occupancy (bytes / capacity is how close
	// replacement is, dense rows how many rows hold a word per pair) and
	// its hit ratio over batch fills (1 - misses / lookups).
	m := e.metric
	count := func(v *atomic.Int64) func() float64 { return func() float64 { return float64(v.Load()) } }
	reg.GaugeFunc("ptrider_memo_entries", "Vertex pairs the distance memo holds.", count(&m.entries))
	reg.GaugeFunc("ptrider_memo_bytes", "Bytes of the distance memo's tables.", count(&m.bytes))
	reg.GaugeFunc("ptrider_memo_capacity_bytes", "Table bytes past which the distance memo's rows stop growing and replace.",
		func() float64 { return float64(m.maxBytes) })
	reg.GaugeFunc("ptrider_memo_dense_rows", "Distance memo rows holding a word for every pair of their span.", count(&m.denseRows))
	reg.CounterFunc("ptrider_memo_batch_lookups_total", "Targets of distance batch fills looked up in the memo.", count(&m.batchLookups))
	reg.CounterFunc("ptrider_memo_batch_misses_total", "Batch-fill targets the memo did not hold.", count(&m.batchMisses))
	reg.CounterFunc("ptrider_memo_replacements_total", "Cached pairs overwritten by a newcomer at the cap.", count(&m.replacements))

	// The ledger's two stores: live records (quoted, assigned, onboard)
	// and the archive of finished ones.
	records := func(archived bool) func() float64 {
		return func() float64 {
			e.led.mu.Lock()
			defer e.led.mu.Unlock()
			if archived {
				return float64(e.led.arch.n)
			}
			return float64(len(e.led.reqs))
		}
	}
	const recHelp = "Request records the ledger holds, live or archived."
	reg.GaugeFunc("ptrider_ledger_records", recHelp, records(false), telemetry.Label{Name: "state", Value: "live"})
	reg.GaugeFunc("ptrider_ledger_records", recHelp, records(true), telemetry.Label{Name: "state", Value: "archived"})
}

// MetricFamilies gathers the engine's telemetry registry (nil when
// telemetry is off). The server's /metrics handler merges this with
// its own HTTP-layer families.
func (e *Engine) MetricFamilies() []telemetry.Family { return e.reg.Gather() }

// Ready reports whether the engine can serve traffic: construction
// succeeded (trivially true by the time a caller holds an *Engine) and
// the journal, when configured, has not died. The /v1/readyz probe is
// the caller.
func (e *Engine) Ready() error { return e.alive() }

// Grid exposes the road-network index (read-only).
func (e *Engine) Grid() *gridindex.Grid { return e.sub.grid }

// Graph exposes the road network.
func (e *Engine) Graph() *roadnet.Graph { return e.sub.g }

// Speed returns the system speed in metres per second.
func (e *Engine) Speed() float64 { return e.sub.speed }

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.sub.cfg }

// LegLimits returns the global waiting-time and planned-pick-up
// budgets relay leg quoting widens by the transfer buffer. Part of the
// relay.LegEngine contract, which remote shard clients also satisfy.
func (e *Engine) LegLimits() (maxWait, maxPickup float64) {
	return e.sub.cfg.MaxWaitSeconds, e.sub.cfg.MaxPickupSeconds
}

// ReadyCities reports the single city's readiness (see Ready).
func (e *Engine) ReadyCities() []CityReadiness {
	cr := CityReadiness{City: DefaultCityName, Ready: true}
	if err := e.Ready(); err != nil {
		cr.Ready, cr.Err = false, err.Error()
	}
	return []CityReadiness{cr}
}

// Clock returns the simulated time in seconds.
func (e *Engine) Clock() float64 {
	return math.Float64frombits(e.clockBits.Load())
}

// SetAlgorithm switches the matching algorithm at run time (website
// admin control).
func (e *Engine) SetAlgorithm(a Algorithm) error {
	if _, ok := e.matchers[a]; !ok {
		return fmt.Errorf("core: unknown algorithm %v", a)
	}
	e.algo.Store(int32(a))
	return nil
}

// Algorithm returns the active matching algorithm.
func (e *Engine) Algorithm() Algorithm {
	return Algorithm(e.algo.Load())
}

// journaled runs one journaled operation as a single critical section
// of led.mu — op validates against the ledger, acts on the fleet,
// appends, then runs the ledger transition — and waits for the append's
// group commit after the unlock.
func (e *Engine) journaled(op func() (wal.Commit, error)) error {
	if err := e.alive(); err != nil {
		return err
	}
	e.led.mu.Lock()
	commit, err := op()
	e.led.mu.Unlock()
	if err != nil {
		return err
	}
	return commit.Wait()
}

// AddVehicleAt places a vehicle at the given vertex.
func (e *Engine) AddVehicleAt(loc roadnet.VertexID) fleet.VehicleID {
	ids := e.addVehicles([]roadnet.VertexID{loc}, 0)
	if len(ids) == 0 {
		return -1
	}
	return ids[0]
}

// AddVehiclesUniform places n vehicles uniformly at random vertices
// (the demo's initialisation) and returns their ids.
func (e *Engine) AddVehiclesUniform(n int) []fleet.VehicleID {
	return e.addVehicles(nil, n)
}

// addVehicles journals and applies a placement at locs or, when locs
// is nil, at n vertices drawn from the placement stream.
func (e *Engine) addVehicles(locs []roadnet.VertexID, n int) (ids []fleet.VehicleID) {
	err := e.journaled(func() (wal.Commit, error) {
		var draws uint64
		if locs == nil {
			// Drawn under led.mu: the journaled record carries both the
			// drawn locations and the placement stream's raw step count,
			// so the snapshot's stream position and the tail's burns
			// always add up (led.mu → rngMu is a fresh lock edge with no
			// reverse path).
			e.rngMu.Lock()
			before := e.rngSrc.Draws()
			locs = make([]roadnet.VertexID, n)
			for i := range locs {
				locs[i] = roadnet.VertexID(e.rng.Intn(e.sub.g.NumVertices()))
			}
			draws = e.rngSrc.Draws() - before
			e.rngMu.Unlock()
		}
		commit, err := e.appendLocked(&walRecord{Op: tagAddV, AddV: &addvRec{Locs: locs, Draws: draws}})
		if err != nil {
			return commit, err
		}
		ids = make([]fleet.VehicleID, len(locs))
		for i, loc := range locs {
			ids[i] = e.fleet.AddVehicle(loc).ID
		}
		return commit, nil
	})
	if err != nil {
		return nil
	}
	return ids
}

// NumVehicles returns the number of in-service vehicles.
func (e *Engine) NumVehicles() int {
	return e.fleet.NumActive()
}

// Constraints carries per-request overrides of the global waiting time
// and service constraint. The demo "adopts a global setting for
// simplification" but notes riders may set their own (§4.2); this is
// the non-simplified version. Zero fields fall back to the globals.
type Constraints struct {
	// WaitSeconds overrides the maximal waiting time w.
	WaitSeconds float64
	// Sigma overrides the service constraint σ. Negative means "use the
	// global"; zero is a valid override (no detour allowed), so use
	// DefaultSigma (-1) for fallback.
	Sigma float64
	// MaxPickupSeconds overrides the engine-global planned pick-up
	// cutoff for this request (0 = global). Relay leg quoting widens it:
	// a hand-off pickup may legitimately be planned one transfer window
	// later than an ordinary door pickup.
	MaxPickupSeconds float64
}

// DefaultSigma requests the engine-global service constraint.
const DefaultSigma = -1.0

// DefaultConstraints uses the engine-global settings.
func DefaultConstraints() Constraints {
	return Constraints{WaitSeconds: 0, Sigma: DefaultSigma}
}

// Submit answers a ridesharing request under the global constraints: it
// runs the active matcher and returns a snapshot of the request record
// holding all qualified non-dominated options. The rider then calls
// Choose or Decline. Submissions run fully in parallel: no engine-wide
// lock is held while matching.
func (e *Engine) Submit(s, d roadnet.VertexID, riders int) (*RequestRecord, error) {
	return e.submit(context.TODO(), s, d, riders, DefaultConstraints(), "")
}

// submit is the one submit path: Submit and SubmitRequest both end
// here. ctx is the caller's (SubmitSpec.Ctx). The ring walk
// polls it once per cell, and a quote whose caller has gone is
// abandoned before it registers: no record, no journal append, no
// request counted, and its id stays a gap. The span ctx may carry (the
// server's middleware opens one per HTTP request) receives the stage
// timings that become the slow-request breakdown. A nil span costs
// nothing (nil-safe no-ops), and the histograms are nil when telemetry
// is off, so the instrumentation reuses the clock reads observeMatch
// already pays for.
func (e *Engine) submit(ctx context.Context, s, d roadnet.VertexID, riders int, c Constraints, idemKey string) (*RequestRecord, error) {
	if err := e.alive(); err != nil {
		return nil, err
	}
	if idemKey != "" {
		e.led.mu.Lock()
		cp, hit := e.led.keyed(idemKey)
		e.led.mu.Unlock()
		if hit {
			return &cp, nil
		}
	}
	spec, wait, sigma, err := e.prepareRequest(s, d, riders, c)
	if err != nil {
		return nil, err
	}

	var ms MatchStats
	start := time.Now()
	options := e.matchers[e.Algorithm()].Match(ctx, &spec, &ms)
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, abandoned(err)
	}
	e.observeMatch(&ms, len(options), float64(elapsed.Nanoseconds()))
	sp := telemetry.SpanFrom(ctx)
	if e.quoteHist != nil || sp != nil {
		secs := elapsed.Seconds()
		e.quoteHist.Observe(secs)
		sp.Observe("quote", secs)
	}

	cp, err := e.registerRecord(&spec, wait, sigma, options, idemKey, sp)
	if err != nil {
		return nil, err
	}
	return &cp, nil
}

// abandoned is the error of a quote whose caller's context is done.
func abandoned(cause error) error {
	return fmt.Errorf("core: quote abandoned: %w: %w", ErrUnavailable, cause)
}

// prepareRequest validates a request, resolves constraint defaults, and
// builds the matcher-level spec under a freshly assigned id — the entry
// work shared by per-request and batch submission.
func (e *Engine) prepareRequest(s, d roadnet.VertexID, riders int, c Constraints) (spec ReqSpec, wait, sigma float64, err error) {
	n := e.sub.g.NumVertices()
	if s < 0 || int(s) >= n || d < 0 || int(d) >= n {
		return spec, 0, 0, fmt.Errorf("core: request endpoints out of range")
	}
	if s == d {
		return spec, 0, 0, fmt.Errorf("core: start and destination coincide")
	}
	if riders < 1 {
		return spec, 0, 0, fmt.Errorf("core: rider count %d < 1", riders)
	}
	// A group larger than every vehicle's capacity is a legitimate
	// request that simply cannot be served: matching returns an empty
	// skyline (each kinetic tree refuses it), mirroring the demo's
	// behaviour of showing no taxis rather than an input error.
	sd := e.metric.Dist(s, d)
	if math.IsInf(sd, 1) {
		return spec, 0, 0, fmt.Errorf("core: no route from %d to %d", s, d)
	}
	wait = c.WaitSeconds
	if wait <= 0 {
		wait = e.sub.cfg.MaxWaitSeconds
	}
	sigma = c.Sigma
	if sigma < 0 {
		sigma = e.sub.cfg.Sigma
	}
	maxPickup := c.MaxPickupSeconds
	if maxPickup <= 0 {
		maxPickup = e.sub.cfg.MaxPickupSeconds
	}
	// Resolve the fare through the pricing pipeline, pinned to the
	// origin cell's surge multiplier as of this instant — the context
	// is immutable for the quote's lifetime, so an epoch rolling over
	// mid-match cannot bend a price already being searched under.
	cell := int32(-1)
	if e.tracker != nil {
		cell = int32(e.sub.grid.CellOf(s))
	}
	fare := e.fares.Resolve(riders, sd, cell)
	spec = ReqSpec{
		Kin:           e.kineticRequest(RequestID(e.nextID.Add(1)), s, d, riders, sd, sigma, wait),
		Fare:          fare,
		Ratio:         fare.Ratio,
		MinPrice:      fare.MinPrice(sd),
		MaxPickupDist: maxPickup * e.sub.speed,
	}
	return spec, wait, sigma, nil
}

// observeMatch folds one answered match into the online accumulators
// and counts the request. The count lands before the record becomes
// visible: any assign that includes this request is then counted after
// it, keeping Stats' Assigned ≤ Requests under concurrency.
func (e *Engine) observeMatch(ms *MatchStats, numOptions int, elapsedNs float64) {
	e.statsMu.Lock()
	e.respNs.Observe(elapsedNs)
	e.respP95.Observe(elapsedNs)
	e.optCount.Observe(float64(numOptions))
	e.verified.Observe(float64(ms.Verified))
	e.pruned.Observe(float64(ms.PrunedVehicles))
	e.cells.Observe(float64(ms.CellsScanned))
	e.distCalls.Observe(float64(ms.DistCalls))
	e.statsMu.Unlock()
	e.requests.Add(1)
}

// registerRecord creates the quoted ledger record for an answered
// request, journals it, and returns a snapshot copy. A non-empty
// idemKey is re-checked authoritatively under led.mu — two
// concurrent submits with the same key race to here, and the loser
// returns the winner's record (undoing its own request count so the
// lifecycle counters match a single submission).
func (e *Engine) registerRecord(spec *ReqSpec, wait, sigma float64, options []Option, idemKey string, sp *telemetry.Span) (RequestRecord, error) {
	// Stage timing brackets the ledger critical section ("register")
	// and the group-commit wait ("wal_wait") separately — the two very
	// different ways a submit can stall. Clock reads are gated so the
	// telemetry-off path stays free of them.
	timed := e.registerHist != nil || sp != nil
	var regStart time.Time
	if timed {
		regStart = time.Now()
	}
	sub := submitRec{
		ID: spec.Kin.ID, S: spec.Kin.S, D: spec.Kin.D, Riders: spec.Kin.Riders,
		Wait: wait, Sigma: sigma, SD: spec.Kin.SD, Clock: e.Clock(),
		FareRatio: spec.Fare.Ratio, SurgeMult: spec.Fare.Multiplier,
		SurgeCell: spec.Fare.Cell, SurgeEpoch: spec.Fare.Epoch,
		IdemKey: idemKey, Options: options,
	}
	rec := newQuotedRecord(&sub)
	e.led.mu.Lock()
	if idemKey != "" {
		if cp, hit := e.led.keyed(idemKey); hit {
			e.led.mu.Unlock()
			e.requests.Add(-1)
			return cp, nil
		}
	}
	e.walSubScratch = sub
	e.walRecScratch = walRecord{Op: tagSubmit, Submit: &e.walSubScratch}
	commit, err := e.appendLocked(&e.walRecScratch)
	if err != nil {
		e.led.mu.Unlock()
		return RequestRecord{}, err
	}
	e.installLocked(rec, idemKey)
	cp := *rec
	e.led.mu.Unlock()
	var walStart time.Time
	if timed {
		secs := time.Since(regStart).Seconds()
		e.registerHist.Observe(secs)
		sp.Observe("register", secs)
		walStart = time.Now()
	}
	err = commit.Wait()
	if timed && e.journal != nil {
		secs := time.Since(walStart).Seconds()
		e.walWaitHist.Observe(secs)
		sp.Observe("wal_wait", secs)
	}
	if err != nil {
		return RequestRecord{}, err
	}
	return cp, nil
}

// installLocked lands a journaled quote: the ledger record and, with
// surge on, the demand it adds to its origin cell. Demand lands here,
// under led.mu after the journal append, so a replayed tracker
// re-accumulates exactly what the live one counted: one per installed
// record, idempotent duplicates excluded.
func (e *Engine) installLocked(rec *RequestRecord, idemKey string) {
	e.led.install(rec, idemKey)
	if e.tracker != nil {
		e.tracker.RecordDemand(rec.SurgeCell)
	}
}

// Choose commits the rider's selected option: a validate-then-commit
// under the chosen vehicle's lock. The option's pick-up distance is
// validated against the vehicle's current schedule state; if it has
// gone stale and Config.CommitSlack allows, the request is re-probed
// and an equivalent fresh candidate committed (see fleet.Commit).
//
// The ledger lock is held across the vehicle commit. That is what
// makes assignment atomic with respect to the rest of the lifecycle:
// a pickup served by a concurrent Tick, or an orphaning
// RemoveVehicle, must pass through led.mu to touch the record, so
// neither can observe — or be clobbered by — a half-finalised
// assignment. The order led.mu → Vehicle.mu is safe because no
// code path acquires led.mu while holding a vehicle lock (Tick
// releases every vehicle before its ledger phase), and matching —
// the hot path — never touches led.mu at all.
func (e *Engine) Choose(id RequestID, optionIndex int) error {
	return e.journaled(func() (wal.Commit, error) { return e.chooseLocked(id, optionIndex) })
}

func (e *Engine) chooseLocked(id RequestID, optionIndex int) (wal.Commit, error) {
	var none wal.Commit
	rec, err := e.led.choosable(id)
	if err != nil {
		return none, err
	}
	if optionIndex < 0 || optionIndex >= len(rec.Options) {
		return none, fmt.Errorf("core: option index %d outside [0,%d)", optionIndex, len(rec.Options))
	}
	opt := rec.Options[optionIndex]
	// Reprice under the quote-time fare context, never the current
	// tracker state: the rider chose from prices fixed at submit, and a
	// surge epoch rolling over between quote and choice must not move
	// them. Zero FareRatio means a record recovered from a pre-pipeline
	// snapshot; the static model is exact for those.
	ratio := rec.FareRatio
	if ratio == 0 {
		ratio = e.sub.model.Ratio(rec.Riders)
	}

	var pc0 time.Time
	if e.probeCommitHist != nil {
		pc0 = time.Now()
	}
	cand := kinetic.Candidate{PickupDist: opt.PickupDist, Delta: quotedDetour(opt.Price, ratio, rec.SD)}
	res, err := e.fleet.Commit(opt.Vehicle, e.kineticRequest(rec.ID, rec.S, rec.D, rec.Riders, rec.SD, rec.Sigma, rec.WaitSeconds), cand, e.sub.cfg.CommitSlack)
	if e.probeCommitHist != nil {
		// Failed commits are observed too: a stale-candidate rejection
		// still spent the vehicle-lock time the histogram measures.
		e.probeCommitHist.ObserveSince(pc0)
	}
	if err != nil {
		return none, err
	}
	price := opt.Price
	if res.Reprobed {
		// The committed detour differs from the quoted one; reprice
		// from it so the record stays truthful.
		price = ratio * (res.Candidate.Delta + rec.SD)
	}
	// Journal the commit outcome after the vehicle accepted it. A crash
	// between the fleet commit and a durable append leaves the dying
	// process's fleet ahead of the journal — harmless, because the
	// in-memory state is discarded and recovery rebuilds the fleet from
	// what was journaled.
	e.walChoScratch = chooseRec{
		ID: id, OptionIndex: optionIndex, Vehicle: opt.Vehicle,
		Price: price, PlannedPickupOdo: res.PlannedPickupOdo,
	}
	e.walRecScratch = walRecord{Op: tagChoose, Choose: &e.walChoScratch}
	commit, err := e.appendLocked(&e.walRecScratch)
	if err != nil {
		return none, err
	}
	return commit, e.led.assign(&e.walChoScratch)
}

// kineticRequest builds the matcher-level request — for a quote, a
// fleet commit and its replay alike — and is the one place its budgets
// are made: ServiceLimit = (1+σ)·sd and WaitBudget = wait·speed, each
// rounded down to the distance grid. Distances are multiples of
// 1/roadnet.GridSteps m, so every deadline and step budget the kinetic
// walk compares is then exact too, and the walk needs no tolerance.
func (e *Engine) kineticRequest(id RequestID, s, d roadnet.VertexID, riders int, sd, sigma, wait float64) kinetic.Request {
	floor := func(x float64) float64 { return math.Floor(x*roadnet.GridSteps) / roadnet.GridSteps }
	return kinetic.Request{
		ID: id, S: s, D: d, Riders: riders, SD: sd,
		ServiceLimit: floor((1 + sigma) * sd),
		WaitBudget:   floor(wait * e.sub.speed),
	}
}

// CancelAssigned releases an assigned request whose rider has not been
// picked up yet: the vehicle reservation is dropped (see fleet.Cancel)
// and the record ends declined. It is the compensation primitive of the
// relay scheduler's two-phase commit — abort of leg 2 must release
// leg 1 — and doubles as a rider cancellation. A request whose rider is
// already onboard cannot be cancelled; the error reports it.
//
// Like Choose, the ledger lock is held across the fleet mutation so a
// concurrent Tick's event application cannot interleave with the
// cancellation: a pickup that already physically happened makes
// fleet.Cancel refuse (the record then stays assigned and the pickup
// lands normally), and one that has not cannot land afterwards because
// the request has left the vehicle's tree.
func (e *Engine) CancelAssigned(id RequestID) error {
	return e.journaled(func() (wal.Commit, error) {
		rec, err := e.led.in(id, StatusAssigned)
		if err != nil {
			return wal.Commit{}, err
		}
		if err := e.fleet.Cancel(rec.Vehicle, id); err != nil {
			return wal.Commit{}, err
		}
		commit, err := e.appendLocked(&walRecord{Op: tagCancel, ReqID: id})
		if err != nil {
			return commit, err
		}
		return commit, e.led.release(id)
	})
}

// BatchItem is one request of a simultaneous batch.
type BatchItem struct {
	S, D        roadnet.VertexID
	Riders      int
	Constraints Constraints
}

// batchPrep is one validated batch item and, once matchWave ran, its
// answer: its options, counters and its own Match wall time (not the
// wave's mean — response-time quantiles are taken over these).
type batchPrep struct {
	idx         int // index into the run
	spec        ReqSpec
	wait, sigma float64
	options     []Option
	stats       MatchStats
	elapsedNs   float64
}

// SubmitBatch quotes simultaneously issued requests as one wave (see
// matchWave) and declines them all; ids are taken and records
// registered in batch order. It returns one record per item, in order,
// with its quoted options, nil for a failed item, and the first
// failure, numbered as SubmitRequestBatch numbers it.
func (e *Engine) SubmitBatch(items []BatchItem) ([]*RequestRecord, error) {
	specs := make([]SubmitSpec, len(items))
	for i, it := range items {
		specs[i] = SubmitSpec{S: it.S, D: it.D, Riders: it.Riders, Constraints: it.Constraints}
	}
	recs, err := e.SubmitRequestBatch(specs)
	out := make([]*RequestRecord, len(recs))
	for i, rec := range recs {
		if rec != nil {
			out[i] = &rec.RequestRecord
		}
	}
	return out, err
}

// quoteWave is RunBatch's quote for the engine: it quotes a run of
// items without a chooser as one wave and declines them all, and
// reports the first failure with the index in run of the item it hit.
func (e *Engine) quoteWave(run []SubmitSpec) ([]*ServiceRecord, int, error) {
	if err := e.alive(); err != nil {
		return nil, -1, err
	}
	out := make([]*ServiceRecord, len(run))
	failed, firstErr := -1, error(nil)
	fail := func(i int, err error) {
		if firstErr == nil {
			failed, firstErr = i, err
		}
	}

	wave := make([]batchPrep, 0, len(run))
	for i := range run {
		p := batchPrep{idx: i}
		s, d, err := e.resolveSpec(&run[i])
		if err == nil {
			p.spec, p.wait, p.sigma, err = e.prepareRequest(s, d, run[i].Riders, run[i].Constraints)
		}
		if err != nil {
			fail(i, err)
			continue
		}
		wave = append(wave, p)
	}

	e.matchWave(wave)
	for wi := range wave {
		p := &wave[wi]
		e.observeMatch(&p.stats, len(p.options), p.elapsedNs)
		e.quoteHist.Observe(p.elapsedNs / 1e9)
		rec, err := e.registerRecord(&p.spec, p.wait, p.sigma, p.options, "", nil)
		if err != nil {
			fail(p.idx, err)
			continue
		}
		out[p.idx], _ = Settle(e, e.serviceRecord(&rec), nil) // no chooser: declined, no error
	}
	return out, failed, firstErr
}

// matchWave quotes one wave in place: every item runs the configured
// matcher, fanned out over the fleet's width (GOMAXPROCS at
// construction). Items are mutually independent (each owns its skyline
// and counters, and quoting never mutates fleet state), so the wave's
// option sets match a serial pass exactly. Per-request DistCalls
// deltas are read from the shared counter, so concurrently-running
// items bleed into each other's counts — the same documented
// imprecision concurrent Submits always had (see MatchStats); the
// engine-level DistCalls() total stays exact. A started wave runs to
// the end — RunBatch checks the items' contexts before it hands the
// wave over — so its matches get none.
func (e *Engine) matchWave(wave []batchPrep) {
	m := e.matchers[e.Algorithm()]
	parallelFor(e.fleet.Workers(), len(wave), func(i int) {
		p := &wave[i]
		start := time.Now()
		p.options = m.Match(context.Background(), &p.spec, &p.stats)
		p.elapsedNs = float64(time.Since(start).Nanoseconds())
	})
}

// Decline records that the rider took none of the options.
func (e *Engine) Decline(id RequestID) error {
	return e.journaled(func() (wal.Commit, error) {
		if _, err := e.led.in(id, StatusQuoted); err != nil {
			return wal.Commit{}, err
		}
		commit, err := e.appendLocked(&walRecord{Op: tagDecline, ReqID: id})
		if err != nil {
			return commit, err
		}
		return commit, e.led.decline(id)
	})
}

// Tick advances simulated time by dt seconds: vehicles move at the
// system speed, pickups and dropoffs fire, request records update.
// Ticks serialise against each other but overlap with matching and
// choices; a commit landing mid-tick simply waits for that one
// vehicle's step.
func (e *Engine) Tick(dt float64) ([]fleet.Event, error) {
	if dt < 0 {
		return nil, fmt.Errorf("core: negative tick %v: %w", dt, ErrInvalidArgument)
	}
	if err := e.alive(); err != nil {
		return nil, err
	}
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	t0 := time.Now()
	events, err := e.fleet.Step(dt * e.sub.speed)
	wallMs := float64(time.Since(t0)) / float64(time.Millisecond)
	e.tickHist.Observe(wallMs / 1e3)
	// statsMu taken alone is fine (led.mu → statsMu is an order, not a
	// requirement to hold both).
	ss := e.fleet.StepStats()
	skewMs := float64(ss.MaxShardNanos-ss.MinShardNanos) / float64(time.Millisecond)
	e.statsMu.Lock()
	e.tickWallMs.Observe(wallMs)
	e.tickEvents.Observe(float64(len(events)))
	e.lastTickWallMs = wallMs
	if skewMs > e.maxShardSkewMs {
		e.maxShardSkewMs = skewMs
	}
	e.statsMu.Unlock()
	if err == nil {
		// The clock advances only after the fleet completed the whole
		// movement step: a failed step must not leave the engine clock
		// permanently ahead of fleet odometry. Events a partially-failed
		// step did produce are still folded below — that movement
		// physically happened, and dropping the pickups/dropoffs would
		// desynchronise the ledger from the fleet. (A failed step is an
		// engine inconsistency; retrying the tick is best-effort, not
		// exactly-once, for the vehicles that did move.)
		e.clockBits.Store(math.Float64bits(e.Clock() + dt))
	}
	e.led.mu.Lock()
	var commit wal.Commit
	if e.journal != nil && err == nil {
		// Journal the tick as (dt, event digest): replay re-runs the
		// deterministic fleet step and cross-checks the digest. A failed
		// step is not journaled — it is unreachable through the public
		// API, and replaying it would re-advance a clock the live engine
		// did not.
		w := &walRecord{Op: tagTick, Tick: &tickRec{Dt: dt, N: len(events), Digest: eventsDigest(events)}}
		var jerr error
		commit, jerr = e.appendLocked(w)
		if jerr != nil {
			e.led.mu.Unlock()
			return nil, jerr
		}
	}
	if err == nil {
		e.advanceSurgeLocked()
	}
	for _, ev := range events {
		e.applyEventLocked(ev)
	}
	needSnap := err == nil && e.snapshotDueLocked()
	e.led.mu.Unlock()
	if werr := commit.Wait(); werr != nil {
		return nil, werr
	}
	if needSnap {
		if serr := e.journal.Snapshot(&e.led.mu, e.captureLocked); serr != nil {
			return events, serr
		}
	}
	return events, err
}

// advanceSurgeLocked closes a surge epoch when one is due at the
// engine clock: the grid index's per-cell vehicle counts are read in
// one lock and folded with the demand accumulated since the last
// epoch. It runs in the critical section of the tick's journal record,
// live and on replay alike, so the epoch is not journaled: replaying
// the tick re-derives it from the same supply, demand and clock, and
// every submit lands on the same side of the epoch boundary on both
// runs. Caller holds led.mu.
func (e *Engine) advanceSurgeLocked() {
	if e.tracker == nil {
		return
	}
	clk := e.Clock()
	if clk < e.surgeNext {
		return
	}
	e.lists.FillSupply(e.surgeSupply)
	e.tracker.Advance(e.surgeSupply)
	e.surgeNext = clk + e.sub.cfg.SurgeEpochSeconds
}

// SetVehicleStepFault injects a per-vehicle movement failure into the
// fleet step. A fleet step failure is not reachable through the public
// API on a consistent engine, so tests that pin the failure semantics
// (the clock holds, the errors join, healthy vehicles still move, the
// HTTP layer answers 500) fault every vehicle or a chosen few here.
// Passing nil clears the fault. Call before concurrent use; not part of
// the supported surface.
func (e *Engine) SetVehicleStepFault(fn func(fleet.VehicleID) error) {
	e.fleet.SetStepFault(fn)
}

// applyEventLocked folds one movement event into the ledger and its
// outcome into the quality accumulators — the live tick and its replay
// alike. The caller holds led.mu; statsMu is taken inside (led.mu →
// statsMu is the documented order).
func (e *Engine) applyEventLocked(ev fleet.Event) {
	observed, ok := e.led.fold(ev)
	if !ok {
		return
	}
	e.statsMu.Lock()
	if ev.Kind == fleet.EventPickup {
		e.waitDist.Observe(observed)
	} else {
		e.detourFrac.Observe(observed)
	}
	e.statsMu.Unlock()
}

// VehicleView is a vehicle summary for the website's map.
type VehicleView struct {
	ID       fleet.VehicleID  `json:"id"`
	Location roadnet.VertexID `json:"location"`
	X        float64          `json:"x"`
	Y        float64          `json:"y"`
	Onboard  int              `json:"onboard"`
	Pending  int              `json:"pending_requests"`
}

// VehicleViews returns summaries of up to limit in-service vehicles
// (limit ≤ 0 means all), in id order.
func (e *Engine) VehicleViews(limit int) []VehicleView {
	var out []VehicleView
	for _, v := range e.fleet.Snapshot() {
		if limit > 0 && len(out) >= limit {
			break
		}
		loc, onboard, pending, removed := v.View()
		if removed {
			continue
		}
		p := e.sub.g.Point(loc)
		out = append(out, VehicleView{
			ID:       v.ID,
			Location: loc,
			X:        p.X,
			Y:        p.Y,
			Onboard:  onboard,
			Pending:  pending,
		})
	}
	return out
}

// VehicleSchedules returns every valid trip schedule of a vehicle (the
// website's red lines) plus its current location.
func (e *Engine) VehicleSchedules(id fleet.VehicleID) (loc roadnet.VertexID, branches [][]kinetic.Point, err error) {
	v, err := e.fleet.Vehicle(id)
	if err != nil {
		return 0, nil, err
	}
	loc, branches = v.Schedules()
	return loc, branches, nil
}

// RemoveVehicle injects a vehicle failure. The vehicle's pending
// requests are orphaned: their records are marked declined and their
// ids returned so the caller can resubmit them.
//
// Unlike its first generation this runs under led.mu end to end so
// the removal record's journal position matches the ledger mutation
// (led.mu → Vehicle.mu inside fleet.RemoveVehicle is the documented
// order; the reverse edge does not exist).
func (e *Engine) RemoveVehicle(id fleet.VehicleID) (orphaned []RequestID, err error) {
	err = e.journaled(func() (wal.Commit, error) {
		riders, err := e.fleet.RemoveVehicle(id)
		if err != nil {
			return wal.Commit{}, err
		}
		commit, err := e.appendLocked(&walRecord{Op: tagRemV, Vehicle: id})
		if err != nil {
			return commit, err
		}
		orphaned = e.led.orphan(id, riders)
		return commit, nil
	})
	if err != nil {
		return nil, err
	}
	return orphaned, nil
}

// EngineStats is the statistics panel snapshot (Fig. 4c).
type EngineStats struct {
	Clock           float64
	Requests        int64
	Assigned        int64
	Declined        int64
	Completed       int64
	SharedCompleted int64
	SharingRate     float64 // shared / completed
	AvgResponseMs   float64
	P95ResponseMs   float64
	AvgOptions      float64
	AvgVerified     float64
	AvgPruned       float64
	AvgCellsScanned float64
	AvgDistCalls    float64
	AvgWaitSeconds  float64 // actual−planned pickup wait
	AvgDetourFactor float64 // in-vehicle distance / direct
	ActiveVehicles  int

	// Commit-protocol effectiveness (see fleet.CommitStats): stale
	// first-commit attempts, CommitSlack re-probes, and the commits the
	// re-probe salvaged.
	CommitStale    int64
	Reprobes       int64
	ReprobeCommits int64

	// Tick is the sharded time-advancement panel.
	Tick TickStats

	// Surge is the dynamic-pricing panel (Enabled false when the surge
	// stage is off).
	Surge SurgePanel

	// Durability is the write-ahead journaling panel (Mode "off" when
	// journaling is disabled).
	Durability DurabilityStats
}

// SurgePanel summarises the surge pricing stage: the current epoch,
// how much of the grid is surged, and how many quotes priced under a
// non-unit multiplier.
type SurgePanel struct {
	// Enabled reports whether the surge stage is in the pipeline.
	Enabled bool
	// Epoch is the tracker's current epoch (0 before the first
	// advance); EpochSeconds its configured length.
	Epoch        uint64
	EpochSeconds float64
	// Cells is the tracked cell count; ActiveCells how many currently
	// carry a multiplier above 1.
	Cells       int
	ActiveCells int
	// MaxMultiplier and AvgMultiplier describe the current multiplier
	// vector (both 1 when the grid is idle).
	MaxMultiplier float64
	AvgMultiplier float64
	// SurgedQuotes counts quotes resolved under a multiplier above 1.
	SurgedQuotes int64
}

// TickStats summarises Tick's sharded time advancement: how wide the
// shard fan-out runs, how long ticks take, how many movement events they
// merge, and the worst shard skew seen — the slowest-minus-fastest shard
// gap that bounds parallel efficiency.
type TickStats struct {
	// Workers is the shard width the engine derived from GOMAXPROCS at
	// construction (each step additionally clamps to the population).
	Workers int
	// Ticks counts recorded ticks.
	Ticks int64
	// LastWallMs and AvgWallMs measure the fleet step's wall time.
	LastWallMs float64
	AvgWallMs  float64
	// AvgEvents is the mean merged pickup/dropoff events per tick.
	AvgEvents float64
	// MaxShardSkewMs is the largest slowest−fastest shard wall-time gap
	// observed in any single tick.
	MaxShardSkewMs float64
}

// Stats returns a consistent snapshot of the running statistics without
// stalling the matchers: the lifecycle counters are copied in one brief
// ledger lock, the quality accumulators in one brief stats lock, and
// the request counter is read last so Assigned ≤ Requests and
// Completed ≤ Assigned always hold in the result.
func (e *Engine) Stats() EngineStats {
	var s EngineStats
	n := e.lifecycle()
	s.Assigned, s.Declined, s.Completed, s.SharedCompleted = n.assigned, n.declined, n.completed, n.shared

	e.statsMu.Lock()
	if e.respP95.Count() > 0 {
		s.P95ResponseMs = e.respP95.Value() / 1e6
	}
	s.AvgResponseMs = e.respNs.Mean() / 1e6
	s.AvgOptions = e.optCount.Mean()
	s.AvgVerified = e.verified.Mean()
	s.AvgPruned = e.pruned.Mean()
	s.AvgCellsScanned = e.cells.Mean()
	s.AvgDistCalls = e.distCalls.Mean()
	s.AvgWaitSeconds = e.waitDist.Mean() / e.sub.speed
	s.AvgDetourFactor = e.detourFrac.Mean()
	s.Tick.Ticks = e.tickWallMs.Count()
	s.Tick.LastWallMs = e.lastTickWallMs
	s.Tick.AvgWallMs = e.tickWallMs.Mean()
	s.Tick.AvgEvents = e.tickEvents.Mean()
	s.Tick.MaxShardSkewMs = e.maxShardSkewMs
	e.statsMu.Unlock()
	s.Tick.Workers = e.fleet.Workers()

	// Requests is loaded after Assigned: submissions count themselves
	// before their record exists, so the ordering guarantees the
	// snapshot never shows more assignments than requests.
	s.Requests = e.requests.Load()
	s.Clock = e.Clock()
	s.ActiveVehicles = e.fleet.NumActive()
	s.CommitStale, s.Reprobes, s.ReprobeCommits = e.fleet.CommitStats()
	if s.Completed > 0 {
		s.SharingRate = float64(s.SharedCompleted) / float64(s.Completed)
	}
	s.Surge = e.SurgeStats()
	s.Durability = e.DurabilityStats()
	return s
}

// lifecycle copies the ledger's counters in one brief lock.
func (e *Engine) lifecycle() lifecycleCounts {
	e.led.mu.Lock()
	defer e.led.mu.Unlock()
	return e.led.n
}

// SurgeStats snapshots the surge panel.
func (e *Engine) SurgeStats() SurgePanel {
	if e.tracker == nil {
		return SurgePanel{}
	}
	p := e.tracker.Panel()
	return SurgePanel{
		Enabled:       true,
		Epoch:         p.Epoch,
		EpochSeconds:  e.sub.cfg.SurgeEpochSeconds,
		Cells:         p.Cells,
		ActiveCells:   p.ActiveCells,
		MaxMultiplier: p.MaxMultiplier,
		AvgMultiplier: p.AvgMultiplier,
		SurgedQuotes:  e.led.surged.Load(),
	}
}

// CheckInvariants verifies cross-layer consistency after (possibly
// concurrent) operations: every in-service vehicle's schedule state is
// valid under the engine's capacity, and the lifecycle counters are
// mutually consistent. Intended for tests.
func (e *Engine) CheckInvariants() error {
	if err := e.fleet.CheckInvariants(); err != nil {
		return err
	}
	st := e.Stats()
	if st.Assigned > st.Requests {
		return fmt.Errorf("core: assigned %d > requests %d", st.Assigned, st.Requests)
	}
	if st.Completed > st.Assigned {
		return fmt.Errorf("core: completed %d > assigned %d", st.Completed, st.Assigned)
	}
	if st.SharedCompleted > st.Completed {
		return fmt.Errorf("core: shared %d > completed %d", st.SharedCompleted, st.Completed)
	}
	return nil
}

// MatchOnce runs a single matching with an explicit algorithm without
// registering a request — the benchmark harness's entry point.
func (e *Engine) MatchOnce(algo Algorithm, s, d roadnet.VertexID, riders int) ([]Option, MatchStats, error) {
	m, ok := e.matchers[algo]
	if !ok {
		return nil, MatchStats{}, fmt.Errorf("core: unknown algorithm %v", algo)
	}
	if s == d {
		return nil, MatchStats{}, fmt.Errorf("core: start and destination coincide")
	}
	sd := e.metric.Dist(s, d)
	if math.IsInf(sd, 1) {
		return nil, MatchStats{}, fmt.Errorf("core: no route from %d to %d", s, d)
	}
	cell := int32(-1)
	if e.tracker != nil {
		cell = int32(e.sub.grid.CellOf(s))
	}
	fare := e.fares.Resolve(riders, sd, cell)
	spec := &ReqSpec{
		Kin:           e.kineticRequest(-1, s, d, riders, sd, e.sub.cfg.Sigma, e.sub.cfg.MaxWaitSeconds),
		Fare:          fare,
		Ratio:         fare.Ratio,
		MinPrice:      fare.MinPrice(sd),
		MaxPickupDist: e.sub.cfg.MaxPickupSeconds * e.sub.speed,
	}
	var ms MatchStats
	opts := m.Match(context.Background(), spec, &ms)
	return opts, ms, nil
}

// ResetDistCache drops every pair the shared distance memo holds (each
// row's table is released, and the occupancy gauges fall with it), so
// the next matching runs against a cold cache. Benchmark-harness use
// only.
func (e *Engine) ResetDistCache() {
	e.metric.Reset()
}

// DistCalls returns the cumulative number of times the engine went
// past its distance memo for an exact computation (a batch fill with
// misses counts once) — the paper's §3.3 efficiency metric, exposed
// for the benchmark harness.
func (e *Engine) DistCalls() int64 { return e.metric.DistCalls() }

// Settled returns the cumulative number of vertices swept for the
// matches' batch fills (see MatchStats.Settled): the host-independent
// measure of the work behind DistCalls' fills.
func (e *Engine) Settled() int64 { return e.metric.Settled() }

// RandomVertex returns a uniformly random vertex (generator helper).
func (e *Engine) RandomVertex() roadnet.VertexID {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return roadnet.VertexID(e.rng.Intn(e.sub.g.NumVertices()))
}
