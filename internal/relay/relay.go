// Package relay serves cross-city trips as two coordinated legs — the
// subsystem the multi-city router (PR 3) left as a typed rejection.
//
// A relay trip from a city A origin to a city B destination is planned
// as origin → gateway in A, hand-off, gateway → destination in B. The
// candidate hand-off gateways — nearest vertex pairs across the two
// cities' shared region boundary — are precomputed per city pair at
// construction (see gateway.go). Quoting fans both legs of every
// gateway out to the two city engines concurrently and composes the
// per-leg price-and-time skylines into one joint skyline: a relay
// option's fare is the sum of its leg fares, and its ETA chains the
// legs — the rider boards leg 2 no earlier than leg 1's worst-case
// arrival at the gateway plus a configurable transfer buffer, and no
// earlier than the leg-2 vehicle's own planned pickup.
//
// Committing is a two-phase probe/commit/compensate protocol: both leg
// records are probed (still quoted, option index valid), leg 1 is
// committed, then leg 2; a leg-2 failure releases leg 1's vehicle
// reservation through core.Engine.CancelAssigned before the error
// surfaces, so a half-booked relay can never leak a reservation. The
// unused gateways' leg quotes are declined on commit.
//
// A ledger tracks each trip's state machine — quoted → leg1-committed
// → in-transfer → leg2-active → completed — and Advance (called from
// the multi-city coordinator's Advance) moves trips forward by
// observing the two leg records' lifecycle states. A leg orphaned by a
// vehicle failure moves the trip to failed and compensates the
// surviving leg.
//
// Model honesty: the fleet serves a stop when its vehicle reaches it,
// so the leg-2 vehicle may "pick up" at the gateway before the rider
// physically arrives — the transfer buffer is a quoting margin
// (pricing and ETA composition), not an enforced rendezvous. The
// ledger still reports in-transfer faithfully from leg 1's completion.
package relay

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
	"ptrider/internal/skyline"
	"ptrider/internal/telemetry"
	"ptrider/internal/wal"
)

// TripID identifies a relay trip within one Scheduler. IDs are dense
// and start at 1; in the Service's request namespace a trip is its id
// negated (see RequestID).
type TripID int64

// RequestID is the trip's id in the Service's request namespace, where
// relay trips are the negative ids.
func (id TripID) RequestID() core.RequestID { return -core.RequestID(id) }

// TripOf is RequestID's inverse; ok is false for a non-relay id.
func TripOf(id core.RequestID) (trip TripID, ok bool) { return TripID(-id), id < 0 }

// Config parameterises a Scheduler. The zero value means defaults.
type Config struct {
	// MaxGateways bounds the hand-off gateway pairs quoted per city
	// pair (0 = 3). More gateways widen the joint skyline at the cost
	// of 2 extra leg quotes each.
	MaxGateways int
	// BoundaryCandidates is how many boundary-nearest vertices per city
	// feed gateway selection (0 = 24).
	BoundaryCandidates int
	// TransferBufferSeconds is the hand-off margin chained between the
	// legs' ETAs and added to leg 2's waiting-time and pick-up windows
	// (0 = 120; pass a negative value for a literal zero buffer).
	TransferBufferSeconds float64

	// Durability selects write-ahead journaling of the trip ledger
	// (see durability.go); WALDir names the journal directory when on.
	Durability wal.Mode
	WALDir     string
	// FaultInjector arms simulated crash points (tests only).
	FaultInjector *wal.Injector

	// LegQuoteHist, when non-nil, observes each relay leg's quote wall
	// time in seconds (nil = telemetry off, no cost).
	LegQuoteHist *telemetry.LatencyHist
}

func (c Config) withDefaults() Config {
	if c.MaxGateways == 0 {
		c.MaxGateways = 3
	}
	if c.BoundaryCandidates == 0 {
		c.BoundaryCandidates = 24
	}
	if c.TransferBufferSeconds == 0 {
		c.TransferBufferSeconds = 120
	} else if c.TransferBufferSeconds < 0 {
		c.TransferBufferSeconds = 0
	}
	return c
}

// LegEngine is the per-city engine surface the scheduler needs to
// quote, commit, observe and compensate one relay leg. *core.Engine
// satisfies it natively; a remote city shard satisfies it through
// cluster.ShardClient, whose transport failures surface as
// core.ErrUnavailable — the scheduler answers those with deferred,
// idempotent compensation instead of an immediate abort, because an
// unreachable shard may have journaled the mutation before dying.
type LegEngine interface {
	// Graph and Speed describe the city (gateway selection, ETA
	// composition).
	Graph() *roadnet.Graph
	Speed() float64
	// LegLimits returns the city-global waiting-time and planned
	// pick-up budgets leg-2 quoting widens by the transfer buffer.
	LegLimits() (maxWait, maxPickup float64)
	// SubmitIdem quotes one leg. The scheduler passes no idempotency
	// key: a remote engine mints its own so its transport retries
	// cannot double-quote.
	SubmitIdem(s, d roadnet.VertexID, riders int, c core.Constraints, idemKey string) (*core.RequestRecord, error)
	// Choose, Decline, Request and CancelAssigned drive the leg
	// records through the two-phase commit and its compensation.
	Choose(id core.RequestID, optionIndex int) error
	Decline(id core.RequestID) error
	Request(id core.RequestID) (*core.RequestRecord, error)
	CancelAssigned(id core.RequestID) error
}

// CityRef is one city the scheduler relays between — the engine plus
// the service region its gateway selection reasons about. The slice
// order given to New is the city index space of Quote.
type CityRef struct {
	Name   string
	Engine LegEngine
	Region geo.Rect
}

// Option is one entry of a relay trip's joint skyline.
type Option struct {
	// Gateway indexes the trip's gateways: the hand-off this option uses.
	Gateway int
	// Leg1Index/Leg2Index are the option indices inside the two leg
	// records' skylines; Leg1/Leg2 are those options' snapshots.
	Leg1Index, Leg2Index int
	Leg1, Leg2           core.Option
	// Fare is Leg1.Price + Leg2.Price — relay fares compose by sum.
	Fare float64
	// PickupSeconds is leg 1's planned pick-up ETA at the door.
	PickupSeconds float64
	// ETASeconds is the door-to-destination worst-case ETA: leg-1
	// pickup + leg-1 ride bound, then the transfer buffer, then leg 2
	// (whose vehicle may also arrive at the gateway later), then the
	// leg-2 ride bound.
	ETASeconds float64
}

// State is a relay trip's lifecycle stage.
type State int

// Relay trip states. Quoted..Completed is the forward path; Declined,
// Aborted and Failed are terminal exits (rider declined, two-phase
// commit aborted, a committed leg orphaned by a vehicle failure).
const (
	StateQuoted State = iota
	StateLeg1Committed
	StateInTransfer
	StateLeg2Active
	StateCompleted
	StateDeclined
	StateAborted
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateQuoted:
		return "quoted"
	case StateLeg1Committed:
		return "leg1-committed"
	case StateInTransfer:
		return "in-transfer"
	case StateLeg2Active:
		return "leg2-active"
	case StateCompleted:
		return "completed"
	case StateDeclined:
		return "declined"
	case StateAborted:
		return "aborted"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// terminal reports whether the state ends the trip's lifecycle.
func (s State) terminal() bool {
	return s == StateCompleted || s == StateDeclined || s == StateAborted || s == StateFailed
}

// requestStatus maps the trip lifecycle onto the single-city request
// states every view already speaks: any committed-and-moving stage
// reads as assigned, the terminal failures as declined.
func (s State) requestStatus() core.RequestStatus {
	switch s {
	case StateQuoted:
		return core.StatusQuoted
	case StateCompleted:
		return core.StatusCompleted
	case StateDeclined, StateAborted, StateFailed:
		return core.StatusDeclined
	}
	return core.StatusAssigned
}

// trip is the ledger's live record of one relay trip.
type trip struct {
	mu sync.Mutex

	id       TripID
	oc, dc   int // city indices
	o, d     roadnet.VertexID
	riders   int
	state    State
	gateways []Gateway
	// leg1Recs[gi]/leg2Recs[gi] hold gateway gi's two leg record ids
	// (city-local to oc and dc respectively).
	leg1Recs, leg2Recs []core.RequestID
	options            []Option
	chosen             int // committed option index; -1 before
	// intent is the option index of an in-flight two-phase commit
	// (journaled before the legs book, cleared by the done record);
	// -1 outside the window. Recovery compensates trips whose intent
	// survived a crash (see durability.go).
	intent int
}

// Stats is a snapshot of the scheduler's counters — the core-level
// relay panel (core.RelayStats), aliased so the Service interface and
// the scheduler speak the same type. Each leg quote also inflates the
// owning city's request count: relay quoting is real engine traffic.
type Stats = core.RelayStats

// CommitFunc is the leg-commit seam's signature (see
// SetCommitOverride): leg is 1 or 2.
type CommitFunc func(leg int, eng LegEngine, id core.RequestID, optionIndex int) error

// Scheduler coordinates relay trips over a fixed set of city engines.
// All methods are safe for concurrent use.
type Scheduler struct {
	cities   []CityRef
	cfg      Config
	gateways map[[2]int][]Gateway // key: ordered city-index pair (i<j), oriented i→j

	nextID atomic.Int64

	mu     sync.Mutex
	trips  map[TripID]*trip
	active map[TripID]*trip // committed, non-terminal — Advance's worklist
	// pending holds trips whose compensation hit an unavailable
	// engine (a remote shard mid-restart): the two-phase window stays
	// open in the journal — no abort record — and Advance retries the
	// release every tick until the shard answers. A crash while a trip
	// is pending re-runs the same compensation from the recovery scan.
	pending []*trip

	quoted, legQuotes, committed         atomic.Int64
	aborted, declined, completed, failed atomic.Int64

	// commitOverride replaces the engine Choose of a leg commit when
	// set (test seam, like core.Engine.SetStepOverride): relay
	// atomicity tests inject leg-2 failures here because a real
	// mid-commit failure is not reachable deterministically through the
	// public API.
	commitOverride atomic.Pointer[CommitFunc]

	// Durability (see durability.go); journal is nil when off.
	journal *wal.Journal
	inj     *wal.Injector
	walDir  string
}

// New builds a Scheduler over the given cities (index space shared
// with the caller) and precomputes the gateway table for every city
// pair.
func New(cities []CityRef, cfg Config) (*Scheduler, error) {
	if len(cities) < 2 {
		return nil, fmt.Errorf("relay: need at least two cities, got %d", len(cities))
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cities:   cities,
		cfg:      cfg,
		gateways: make(map[[2]int][]Gateway),
		trips:    make(map[TripID]*trip),
		active:   make(map[TripID]*trip),
	}
	for i := range cities {
		if cities[i].Engine == nil {
			return nil, fmt.Errorf("relay: city %q has no engine", cities[i].Name)
		}
		for j := i + 1; j < len(cities); j++ {
			gws := buildGateways(cities[i], cities[j], cfg)
			if len(gws) == 0 {
				return nil, fmt.Errorf("relay: no gateways between %q and %q", cities[i].Name, cities[j].Name)
			}
			s.gateways[[2]int{i, j}] = gws
		}
	}
	if cfg.Durability != wal.ModeOff {
		if cfg.WALDir == "" {
			return nil, fmt.Errorf("relay: durability %v requires WALDir", cfg.Durability)
		}
		if err := s.openDurability(cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetCommitOverride installs (or, with nil, removes) the leg-commit
// seam. Not part of the supported surface.
func (s *Scheduler) SetCommitOverride(fn CommitFunc) {
	if fn == nil {
		s.commitOverride.Store(nil)
		return
	}
	s.commitOverride.Store(&fn)
}

func (s *Scheduler) commitLeg(leg int, eng LegEngine, id core.RequestID, optionIndex int) error {
	if fn := s.commitOverride.Load(); fn != nil {
		return (*fn)(leg, eng, id, optionIndex)
	}
	return eng.Choose(id, optionIndex)
}

// gatewaysFor returns the gateway list oriented origin→destination.
func (s *Scheduler) gatewaysFor(oc, dc int) []Gateway {
	if oc < dc {
		return s.gateways[[2]int{oc, dc}]
	}
	flipped := s.gateways[[2]int{dc, oc}]
	out := make([]Gateway, len(flipped))
	for i, g := range flipped {
		out[i] = Gateway{From: g.To, To: g.From, GapMeters: g.GapMeters}
	}
	return out
}

// Quote answers a cross-city request: per candidate gateway, both legs
// are quoted through the two city engines concurrently, and the
// surviving per-leg option sets are composed into the trip's joint
// skyline. Gateways whose leg quoting fails (degenerate endpoints, no
// route) are dropped — their sibling quotes declined — and the trip is
// registered quoted even when the joint skyline comes back empty (the
// rider then declines, exactly like an optionless single-city quote).
// The answer is the trip's Service record (see record).
func (s *Scheduler) Quote(oc, dc int, o, d roadnet.VertexID, riders int, cons core.Constraints) (*core.ServiceRecord, error) {
	if oc == dc || oc < 0 || dc < 0 || oc >= len(s.cities) || dc >= len(s.cities) {
		return nil, fmt.Errorf("relay: bad city pair (%d, %d)", oc, dc)
	}
	gws := s.gatewaysFor(oc, dc)
	engO, engD := s.cities[oc].Engine, s.cities[dc].Engine

	// Leg 2 is a hand-off pickup: its waiting-time budget and pick-up
	// window widen by the transfer buffer, since the rendezvous is
	// planned one transfer later than a door pickup. This is what the
	// engine's constraint-scoped submits exist for.
	buffer := s.cfg.TransferBufferSeconds
	waitD, pickupD := engD.LegLimits()
	cons2 := cons
	wait2 := cons.WaitSeconds
	if wait2 <= 0 {
		wait2 = waitD
	}
	cons2.WaitSeconds = wait2 + buffer
	pickup2 := cons.MaxPickupSeconds
	if pickup2 <= 0 {
		pickup2 = pickupD
	}
	cons2.MaxPickupSeconds = pickup2 + buffer

	k := len(gws)
	leg1 := make([]*core.RequestRecord, k)
	leg2 := make([]*core.RequestRecord, k)
	errs1 := make([]error, k)
	errs2 := make([]error, k)
	var wg sync.WaitGroup
	for gi := range gws {
		wg.Add(2)
		go func(gi int) {
			defer wg.Done()
			t0 := time.Now()
			leg1[gi], errs1[gi] = engO.SubmitIdem(o, gws[gi].From, riders, cons, "")
			s.cfg.LegQuoteHist.ObserveSince(t0)
		}(gi)
		go func(gi int) {
			defer wg.Done()
			t0 := time.Now()
			leg2[gi], errs2[gi] = engD.SubmitIdem(gws[gi].To, d, riders, cons2, "")
			s.cfg.LegQuoteHist.ObserveSince(t0)
		}(gi)
	}
	wg.Wait()

	tr := &trip{
		id: TripID(s.nextID.Add(1)),
		oc: oc, dc: dc, o: o, d: d, riders: riders,
		state:  StateQuoted,
		chosen: -1,
		intent: -1,
	}
	var firstErr error
	for gi := range gws {
		if errs1[gi] != nil || errs2[gi] != nil {
			// Drop the gateway; decline whichever sibling did quote so
			// no record lingers half-owned.
			if errs1[gi] == nil {
				_ = engO.Decline(leg1[gi].ID)
			}
			if errs2[gi] == nil {
				_ = engD.Decline(leg2[gi].ID)
			}
			if firstErr == nil {
				firstErr = errs1[gi]
				if firstErr == nil {
					firstErr = errs2[gi]
				}
			}
			continue
		}
		tr.gateways = append(tr.gateways, gws[gi])
		tr.leg1Recs = append(tr.leg1Recs, leg1[gi].ID)
		tr.leg2Recs = append(tr.leg2Recs, leg2[gi].ID)
		s.composeGateway(tr, len(tr.gateways)-1, leg1[gi], leg2[gi])
	}
	if len(tr.gateways) == 0 {
		return nil, fmt.Errorf("relay: no viable gateway %s → %s: %w",
			s.cities[oc].Name, s.cities[dc].Name, firstErr)
	}
	tr.options = s.jointSkyline(tr.options)

	// Journal the quote before it becomes visible; the replay rebuilds
	// the trip from this record alone (the leg records themselves live
	// in the city engines' own journals).
	snap := tr.snapLocked()
	if err := s.append(&relayRecord{Op: opQuote, Quote: &snap}); err != nil {
		return nil, fmt.Errorf("relay: trip %d quote: %w", tr.id, err)
	}

	s.markQuoted(tr)
	return s.record(tr), nil
}

// composeGateway appends every (leg-1 option × leg-2 option) pair of
// one gateway to the trip's raw option list. Fares sum; ETAs chain —
// the rider reaches the gateway after leg 1's pickup plus its
// service-bounded ride, waits out the transfer buffer, and boards no
// earlier than the leg-2 vehicle's own planned pickup.
func (s *Scheduler) composeGateway(tr *trip, gi int, rec1, rec2 *core.RequestRecord) {
	engO, engD := s.cities[tr.oc].Engine, s.cities[tr.dc].Engine
	speed1, speed2 := engO.Speed(), engD.Speed()
	ride1 := (1 + rec1.Sigma) * rec1.SD / speed1
	ride2 := (1 + rec2.Sigma) * rec2.SD / speed2
	for i1, o1 := range rec1.Options {
		pickup1 := o1.PickupDist / speed1
		riderAtGateway := pickup1 + ride1 + s.cfg.TransferBufferSeconds
		for i2, o2 := range rec2.Options {
			boarding := math.Max(riderAtGateway, o2.PickupDist/speed2)
			tr.options = append(tr.options, Option{
				Gateway:       gi,
				Leg1Index:     i1,
				Leg2Index:     i2,
				Leg1:          o1,
				Leg2:          o2,
				Fare:          o1.Price + o2.Price,
				PickupSeconds: pickup1,
				ETASeconds:    boarding + ride2,
			})
		}
	}
}

// jointSkyline reduces the raw composed options to the non-dominated
// set over (ETA, fare), sorted by ETA ascending — the §2 skyline
// semantics lifted to two-leg itineraries.
func (s *Scheduler) jointSkyline(raw []Option) []Option {
	var sky skyline.Skyline[Option]
	for _, o := range raw {
		if sky.IsDominated(o.ETASeconds, o.Fare) || sky.ContainsPoint(o.ETASeconds, o.Fare) {
			continue
		}
		sky.Add(o.ETASeconds, o.Fare, o)
	}
	entries := sky.Sorted()
	out := make([]Option, len(entries))
	for i, e := range entries {
		out[i] = e.Payload
	}
	return out
}

// trip looks a live trip up.
func (s *Scheduler) trip(id TripID) (*trip, error) {
	s.mu.Lock()
	tr, ok := s.trips[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("relay: unknown trip %d: %w", id, core.ErrNotFound)
	}
	return tr, nil
}

// Choose commits option optionIndex of a quoted relay trip with the
// two-phase protocol: probe both leg records, commit leg 1, commit
// leg 2, and on a leg-2 failure release leg 1's reservation before
// surfacing the error — both legs book, or neither stays booked. The
// unused gateways' leg quotes are declined either way.
func (s *Scheduler) Choose(id TripID, optionIndex int) error {
	tr, err := s.trip(id)
	if err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.state != StateQuoted {
		if tr.chosen >= 0 {
			// Both legs are already booked — the relay flavour of the
			// engine's double-commit, typed the same way.
			return fmt.Errorf("relay: trip %d is %v, not quoted: %w", id, tr.state, core.ErrAlreadyChosen)
		}
		return fmt.Errorf("relay: trip %d is %v, not quoted", id, tr.state)
	}
	if optionIndex < 0 || optionIndex >= len(tr.options) {
		return fmt.Errorf("relay: option index %d outside [0,%d)", optionIndex, len(tr.options))
	}
	opt := tr.options[optionIndex]
	engO, engD := s.cities[tr.oc].Engine, s.cities[tr.dc].Engine
	leg1ID, leg2ID := tr.leg1Recs[opt.Gateway], tr.leg2Recs[opt.Gateway]

	// Probe: both records must still be live quotes. The engines
	// re-validate under their vehicle locks at commit; this pre-check
	// just fails fast without touching vehicle state.
	for _, probe := range []struct {
		eng LegEngine
		id  core.RequestID
		idx int
	}{{engO, leg1ID, opt.Leg1Index}, {engD, leg2ID, opt.Leg2Index}} {
		rec, err := probe.eng.Request(probe.id)
		if err != nil {
			s.abortJournaled(tr)
			return fmt.Errorf("relay: trip %d probe: %w", id, err)
		}
		if rec.Status != core.StatusQuoted || probe.idx >= len(rec.Options) {
			s.abortJournaled(tr)
			return fmt.Errorf("relay: trip %d probe: leg record %d is %v", id, probe.id, rec.Status)
		}
	}

	// Open the two-phase window durably: recovery treats an intent
	// without a matching done record as a crashed commit and releases
	// whatever leg reservations reached the engines' journals.
	markIntent(tr, optionIndex)
	if err := s.append(&relayRecord{Op: opIntent, ID: tr.id, Opt: optionIndex}); err != nil {
		markIntent(tr, -1)
		s.abortLocked(tr)
		return fmt.Errorf("relay: trip %d intent: %w", id, err)
	}

	// Phase 1: book leg 1. An unavailable engine is ambiguous — the
	// commit may have journaled on a shard that died before answering
	// — so the intent stays open and compensation is deferred until
	// the shard is back (or recovery re-runs the scan).
	if err := s.commitLeg(1, engO, leg1ID, opt.Leg1Index); err != nil {
		if errors.Is(err, core.ErrUnavailable) {
			s.deferCompensationLocked(tr)
		} else {
			s.abortJournaled(tr)
		}
		return fmt.Errorf("relay: trip %d leg 1: %w", id, err)
	}
	// Phase 2: book leg 2 — compensate leg 1 on failure.
	if err := s.commitLeg(2, engD, leg2ID, opt.Leg2Index); err != nil {
		if errors.Is(err, core.ErrUnavailable) {
			// Leg 2 may or may not have booked on the dead shard; leg 1
			// definitely did. Defer: the drain releases both once the
			// shard answers again.
			s.deferCompensationLocked(tr)
			return fmt.Errorf("relay: trip %d leg 2: %w", id, err)
		}
		if cerr := engO.CancelAssigned(leg1ID); cerr != nil {
			if errors.Is(cerr, core.ErrUnavailable) {
				// The origin engine vanished between commit and release;
				// its journaled reservation is exactly what the deferred
				// drain (or recovery's intent scan) compensates.
				s.deferCompensationLocked(tr)
				return fmt.Errorf("relay: trip %d leg 2: %w (leg-1 release deferred: %v)", id, err, cerr)
			}
			// The rider was already picked up by a racing tick: leg 1
			// then completes as an ordinary trip and still leaks no
			// reservation. Anything else is an engine inconsistency
			// worth surfacing with the abort.
			err = fmt.Errorf("%w (leg-1 release: %v)", err, cerr)
		}
		s.abortJournaled(tr)
		return fmt.Errorf("relay: trip %d leg 2: %w", id, err)
	}

	s.markDone(tr)
	// The unused gateways' quotes are dead weight now; decline them.
	s.declineLegsLocked(tr, opt.Gateway)
	// Close the window. If this append fails the legs stay booked in
	// this process but recovery will compensate them — the error must
	// surface so the caller knows the commit is not durable.
	if err := s.append(&relayRecord{Op: opDone, ID: tr.id}); err != nil {
		return fmt.Errorf("relay: trip %d committed, journal failed: %w", id, err)
	}
	return nil
}

// abortJournaled aborts a trip and journals the abort (best effort —
// a dead journal re-aborts the trip at recovery instead). Caller holds
// tr.mu.
func (s *Scheduler) abortJournaled(tr *trip) {
	markIntent(tr, -1)
	s.abortLocked(tr)
	_ = s.append(&relayRecord{Op: opAbort, ID: tr.id})
}

// deferCompensationLocked parks a trip whose two-phase commit ran into
// an unavailable engine: the journaled intent stays open (no abort
// record — recovery must still see the window), the unused gateways'
// quotes are dropped, the trip is surfaced as aborted, and the drain
// retries the release of the intent gateway's legs every Advance.
// Caller holds tr.mu.
func (s *Scheduler) deferCompensationLocked(tr *trip) {
	s.declineLegsLocked(tr, tr.options[tr.intent].Gateway)
	s.markAborted(tr)
	s.mu.Lock()
	s.pending = append(s.pending, tr)
	s.mu.Unlock()
}

// compensateTripLocked releases whatever the intent gateway's legs
// still hold on their engines: an assigned leg is cancelled, a
// still-quoted one declined, an unknown one ignored (its commit never
// reached that engine's journal). Idempotent — re-running it against
// the same state is a no-op. It reports false when an engine is
// unavailable (retry later, intent stays open) and clears the intent
// on success. Caller holds tr.mu; err carries a non-transport
// cancellation failure (recovery surfaces it, the drain tolerates it
// as "picked up by a racing tick"). Caller must not hold s.mu.
func (s *Scheduler) compensateTripLocked(tr *trip) (done bool, err error) {
	opt := tr.options[tr.intent]
	for _, leg := range []struct {
		eng LegEngine
		id  core.RequestID
	}{
		{s.cities[tr.oc].Engine, tr.leg1Recs[opt.Gateway]},
		{s.cities[tr.dc].Engine, tr.leg2Recs[opt.Gateway]},
	} {
		rec, rerr := leg.eng.Request(leg.id)
		if rerr != nil {
			if errors.Is(rerr, core.ErrUnavailable) {
				return false, err
			}
			continue // commit never reached that engine's journal
		}
		switch rec.Status {
		case core.StatusAssigned:
			if cerr := leg.eng.CancelAssigned(leg.id); cerr != nil {
				if errors.Is(cerr, core.ErrUnavailable) {
					return false, err
				}
				if err == nil {
					err = fmt.Errorf("relay: compensate trip %d leg %d: %w", tr.id, leg.id, cerr)
				}
			}
		case core.StatusQuoted:
			_ = leg.eng.Decline(leg.id)
		}
	}
	markIntent(tr, -1)
	return true, err
}

// drainPending retries the deferred compensations. Each resolved trip
// closes its two-phase window with the abort record; unresolved ones
// stay queued for the next tick.
func (s *Scheduler) drainPending() {
	s.mu.Lock()
	pend := s.pending
	s.pending = nil
	s.mu.Unlock()
	if len(pend) == 0 {
		return
	}
	var still []*trip
	for _, tr := range pend {
		tr.mu.Lock()
		done, _ := s.compensateTripLocked(tr)
		tr.mu.Unlock()
		if done {
			_ = s.append(&relayRecord{Op: opAbort, ID: tr.id})
		} else {
			still = append(still, tr)
		}
	}
	if len(still) > 0 {
		s.mu.Lock()
		s.pending = append(s.pending, still...)
		s.mu.Unlock()
	}
}

// PendingCompensations reports how many trips still await a deferred
// leg release (0 in steady state; tests and operators poll it).
func (s *Scheduler) PendingCompensations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// committedLegsLocked returns the committed legs' record ids. Caller
// holds tr.mu; tr.chosen must be ≥ 0.
func (tr *trip) committedLegsLocked() (leg1, leg2 core.RequestID) {
	gw := tr.options[tr.chosen].Gateway
	return tr.leg1Recs[gw], tr.leg2Recs[gw]
}

// Decline records that the rider took none of the joint options; every
// leg quote is declined.
func (s *Scheduler) Decline(id TripID) error {
	tr, err := s.trip(id)
	if err != nil {
		return err
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.state != StateQuoted {
		return fmt.Errorf("relay: trip %d is %v, not quoted", id, tr.state)
	}
	if err := s.append(&relayRecord{Op: opDecline, ID: tr.id}); err != nil {
		return fmt.Errorf("relay: trip %d decline: %w", id, err)
	}
	s.declineLegsLocked(tr, -1)
	s.markDeclined(tr)
	return nil
}

// declineLegsLocked declines every still-quoted leg record except the
// keep gateway's (-1 keeps none). Caller holds tr.mu.
func (s *Scheduler) declineLegsLocked(tr *trip, keep int) {
	engO, engD := s.cities[tr.oc].Engine, s.cities[tr.dc].Engine
	for gi := range tr.gateways {
		if gi == keep {
			continue
		}
		_ = engO.Decline(tr.leg1Recs[gi])
		_ = engD.Decline(tr.leg2Recs[gi])
	}
}

// abortLocked ends a trip whose two-phase commit failed: every
// still-quoted leg record is declined and the trip marked aborted.
// Caller holds tr.mu.
func (s *Scheduler) abortLocked(tr *trip) {
	s.declineLegsLocked(tr, -1)
	s.markAborted(tr)
}

// The mark functions are the trip ledger's transitions, one per journal
// op and state-only: the live paths above run them next to their remote
// side effects (leg commits, declineLegsLocked), and replayRecord runs
// them alone. Together with advanceLocked's forward walk they are the
// only writers of a trip's state, chosen and intent and of the
// counters. Callers hold tr.mu (recovery runs single-threaded).

// markQuoted registers a freshly quoted trip.
func (s *Scheduler) markQuoted(tr *trip) {
	s.mu.Lock()
	s.trips[tr.id] = tr
	s.mu.Unlock()
	s.quoted.Add(1)
	s.legQuotes.Add(int64(2 * len(tr.gateways)))
}

// markIntent opens the two-phase window on option opt, or closes it
// with -1.
func markIntent(tr *trip, opt int) { tr.intent = opt }

// markDone books the intended option: both legs committed.
func (s *Scheduler) markDone(tr *trip) {
	tr.state = StateLeg1Committed
	tr.chosen = tr.intent
	tr.intent = -1
	s.committed.Add(1)
	s.mu.Lock()
	s.active[tr.id] = tr
	s.mu.Unlock()
}

func (s *Scheduler) markDeclined(tr *trip) {
	tr.state = StateDeclined
	s.declined.Add(1)
}

// markAborted surfaces the trip as aborted, counting it once: a parked
// trip is aborted when it parks and again when its window closes (the
// drain's abort record, replayed over a snapshot taken while parked,
// or recovery's compensation). The intent is left as it is: a deferred
// compensation keeps the window open until the legs are released.
func (s *Scheduler) markAborted(tr *trip) {
	if tr.state == StateAborted {
		return
	}
	tr.state = StateAborted
	s.aborted.Add(1)
}

// Trip returns a snapshot of a relay trip as its Service record.
func (s *Scheduler) Trip(id TripID) (*core.ServiceRecord, error) {
	tr, err := s.trip(id)
	if err != nil {
		return nil, err
	}
	return s.record(tr), nil
}

// record renders a trip, once, as the Service's answer: the two-leg
// itinerary in Relay, beside the single-city record shape that rider
// choice models and batch choosers read — the trip id negated, the
// lifecycle mapped by requestStatus, and the joint skyline as core
// options index-aligned with the itinerary's (Vehicle the leg-1
// vehicle, Price the composed fare, PickupDist the composed
// door-to-destination ETA as a distance at the origin city's speed).
// It takes tr.mu itself.
func (s *Scheduler) record(tr *trip) *core.ServiceRecord {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	origin := s.cities[tr.oc]
	speed := origin.Engine.Speed()
	id := tr.id.RequestID()
	rec := &core.ServiceRecord{
		RequestRecord: core.RequestRecord{
			ID: id, S: tr.o, D: tr.d, Riders: tr.riders,
			Status:  tr.state.requestStatus(),
			Options: make([]core.Option, len(tr.options)),
			Chosen:  tr.chosen,
		},
		City:  origin.Name,
		Speed: speed,
		Relay: &core.RelayView{
			RequestID:             int64(id),
			Origin:                origin.Name,
			Dest:                  s.cities[tr.dc].Name,
			State:                 tr.state.String(),
			TransferBufferSeconds: s.cfg.TransferBufferSeconds,
			Gateways:              make([]core.RelayGatewayView, len(tr.gateways)),
			Options:               make([]core.RelayOptionView, len(tr.options)),
			Chosen:                tr.chosen,
		},
	}
	for i, g := range tr.gateways {
		rec.Relay.Gateways[i] = core.RelayGatewayView{From: g.From, To: g.To, GapMeters: g.GapMeters}
	}
	for i, o := range tr.options {
		rec.Options[i] = core.Option{Vehicle: o.Leg1.Vehicle, PickupDist: o.ETASeconds * speed, Price: o.Fare}
		rec.Relay.Options[i] = core.RelayOptionView{
			Index: i, Gateway: o.Gateway, Fare: o.Fare,
			Leg1Price: o.Leg1.Price, Leg2Price: o.Leg2.Price,
			Leg1Vehicle: o.Leg1.Vehicle, Leg2Vehicle: o.Leg2.Vehicle,
			PickupSeconds: o.PickupSeconds, ETASeconds: o.ETASeconds,
		}
	}
	if tr.chosen >= 0 {
		leg1, leg2 := tr.committedLegsLocked()
		rec.Relay.Leg1, rec.Relay.Leg2 = int64(leg1), int64(leg2)
		rec.Vehicle, rec.Price = rec.Options[tr.chosen].Vehicle, rec.Options[tr.chosen].Price
	}
	return rec
}

// Advance moves every committed trip's state machine forward by
// observing its leg records — called once per coordinator tick, after the
// per-city movement phases. Completed and failed trips leave the
// active set; a trip one leg's vehicle failure orphaned compensates
// the surviving leg's reservation so nothing stays half-booked.
func (s *Scheduler) Advance() {
	s.drainPending()
	s.mu.Lock()
	worklist := make([]*trip, 0, len(s.active))
	for _, tr := range s.active {
		worklist = append(worklist, tr)
	}
	s.mu.Unlock()

	for _, tr := range worklist {
		tr.mu.Lock()
		s.advanceLocked(tr)
		done := tr.state.terminal()
		id := tr.id
		tr.mu.Unlock()
		if done {
			s.mu.Lock()
			delete(s.active, id)
			s.mu.Unlock()
		}
	}
}

// advanceLocked recomputes a committed trip's stage from its leg
// records' lifecycle states. Caller holds tr.mu.
func (s *Scheduler) advanceLocked(tr *trip) {
	if tr.state.terminal() || tr.state == StateQuoted {
		return
	}
	engO, engD := s.cities[tr.oc].Engine, s.cities[tr.dc].Engine
	leg1ID, leg2ID := tr.committedLegsLocked()
	rec1, err1 := engO.Request(leg1ID)
	rec2, err2 := engD.Request(leg2ID)
	if err1 != nil || err2 != nil {
		return // engine restarted under us; leave the trip as is
	}
	if rec1.Status == core.StatusDeclined || rec2.Status == core.StatusDeclined {
		// A committed leg was orphaned (vehicle failure). Compensate
		// the surviving leg so the relay leaks nothing, then fail. An
		// unavailable engine keeps the trip active — the next tick
		// retries the release.
		if rec1.Status == core.StatusAssigned {
			if err := engO.CancelAssigned(rec1.ID); errors.Is(err, core.ErrUnavailable) {
				return
			}
		}
		if rec2.Status == core.StatusAssigned {
			if err := engD.CancelAssigned(rec2.ID); errors.Is(err, core.ErrUnavailable) {
				return
			}
		}
		tr.state = StateFailed
		s.failed.Add(1)
		return
	}
	next := tr.state
	switch {
	case rec1.Status == core.StatusCompleted && rec2.Status == core.StatusCompleted:
		next = StateCompleted
	case rec2.Status == core.StatusOnboard || rec2.Status == core.StatusCompleted:
		// A leg-2 vehicle that reached the gateway early can complete
		// its record before leg 1 lands; the trip is not complete —
		// and must stay on the compensation worklist — until the rider
		// actually made it across leg 1 too.
		next = StateLeg2Active
	case rec1.Status == core.StatusCompleted:
		next = StateInTransfer
	}
	if next > tr.state {
		tr.state = next
		if next == StateCompleted {
			s.completed.Add(1)
		}
	}
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	active := int64(len(s.active))
	s.mu.Unlock()
	return Stats{
		Quoted:    s.quoted.Load(),
		LegQuotes: s.legQuotes.Load(),
		Committed: s.committed.Load(),
		Aborted:   s.aborted.Load(),
		Declined:  s.declined.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Active:    active,
	}
}
