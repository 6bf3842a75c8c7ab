// Package relay serves cross-city trips as two coordinated legs — the
// subsystem the multi-city router (PR 3) left as a typed rejection.
//
// A relay trip from a city A origin to a city B destination is planned
// as origin → gateway in A, hand-off, gateway → destination in B. The
// candidate hand-off gateways — nearest vertex pairs across the two
// cities' shared region boundary — are precomputed per city pair at
// construction (see gateway.go). Each city quotes its leg of every
// gateway, and the per-leg price-and-time skylines compose into one
// joint skyline: a relay option's fare is the sum of its leg fares, and
// its ETA chains the legs — the rider boards leg 2 no earlier than leg
// 1's worst-case arrival at the gateway plus a configurable transfer
// buffer, and no earlier than the leg-2 vehicle's own planned pickup.
//
// Committing is a two-phase probe/commit/compensate protocol: both leg
// records are probed (still quoted, option index valid), leg 1 is
// committed, then leg 2; a leg-2 failure releases leg 1's vehicle
// reservation through core.Engine.CancelAssigned before the error
// surfaces, so a half-booked relay can never leak a reservation. The
// unused gateways' leg quotes are declined on commit.
//
// The trip ledger (ledger.go) holds each trip's state machine — quoted
// → leg1-committed → in-transfer → leg2-active → completed — and
// Advance (called from the multi-city coordinator's Advance) moves
// trips forward by observing the two leg records' lifecycle states. A
// leg orphaned by a vehicle failure fails the trip and compensates the
// surviving leg.
//
// Model honesty: the fleet serves a stop when its vehicle reaches it,
// so the leg-2 vehicle may "pick up" at the gateway before the rider
// physically arrives — the transfer buffer is a quoting margin
// (pricing and ETA composition), not an enforced rendezvous. The
// ledger still reports in-transfer faithfully from leg 1's completion.
package relay

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"slices"
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

// maxGateways bounds the hand-off gateway pairs quoted per city pair.
// More gateways widen the joint skyline at the cost of 2 extra leg
// quotes each.
const maxGateways = 3

// boundaryCandidateCount is how many boundary-nearest vertices per
// city feed gateway selection.
const boundaryCandidateCount = 24

// Config parameterises a Scheduler. The zero value means defaults.
type Config struct {
	// TransferBufferSeconds is the hand-off margin chained between the
	// legs' ETAs and added to leg 2's waiting-time and pick-up windows
	// (0 = 120; pass a negative value for a literal zero buffer).
	TransferBufferSeconds float64

	// Durability selects write-ahead journaling of the trip ledger
	// (see durability.go); WALDir names the journal directory when on.
	Durability wal.Mode
	WALDir     string

	// LegQuoteHist, when non-nil, observes each relay leg's quote wall
	// time in seconds (nil = telemetry off, no cost). A multicity
	// coordinator sets it from its own registry.
	LegQuoteHist *telemetry.LatencyHist
}

func (c Config) withDefaults() Config {
	if c.TransferBufferSeconds == 0 {
		c.TransferBufferSeconds = 120
	} else if c.TransferBufferSeconds < 0 {
		c.TransferBufferSeconds = 0
	}
	return c
}

// LegEngine is one city as the scheduler runs a relay leg through it: a
// one-city core.Service, always addressed with city "", plus the three
// verbs a Service lacks. *core.Engine satisfies it natively and
// cluster.ShardClient over a socket, whose transport failures surface
// as core.ErrUnavailable: the scheduler answers those with deferred,
// idempotent compensation, since the shard may have journaled the
// mutation before dying. Leg specs carry no idempotency key: a remote
// engine mints one per call, so its retries cannot double-quote.
type LegEngine interface {
	core.Service
	// Speed is the city's vehicle speed (ETA composition).
	Speed() float64
	// LegLimits returns the city-global waiting-time and planned
	// pick-up budgets leg-2 quoting widens by the transfer buffer.
	LegLimits() (maxWait, maxPickup float64)
	// CancelAssigned releases an assigned leg (compensation).
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
	led      *ledger

	// commitOverride replaces the engine Choose of a leg commit when
	// set (test seam, like core.Engine.SetVehicleStepFault): a real
	// mid-commit failure is not reachable deterministically through the
	// public API.
	commitOverride atomic.Pointer[CommitFunc]

	// Durability (see durability.go); journal is nil when off.
	journal *wal.Journal
}

// New builds a Scheduler over the given cities (index space shared
// with the caller) and precomputes the gateway table for every city
// pair.
func New(cities []CityRef, cfg Config) (*Scheduler, error) {
	if len(cities) < 2 {
		return nil, fmt.Errorf("relay: need at least two cities, got %d", len(cities))
	}
	cfg = cfg.withDefaults()
	s := &Scheduler{cities: cities, cfg: cfg, gateways: make(map[[2]int][]Gateway), led: newLedger()}
	for i := range cities {
		if cities[i].Engine == nil {
			return nil, fmt.Errorf("relay: city %q has no engine", cities[i].Name)
		}
		for j := i + 1; j < len(cities); j++ {
			gws := buildGateways(cities[i], cities[j])
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
func (s *Scheduler) SetCommitOverride(fn CommitFunc) { s.commitOverride.Store(&fn) }

func (s *Scheduler) commitLeg(leg int, eng LegEngine, id core.RequestID, optionIndex int) error {
	if fn := s.commitOverride.Load(); fn != nil && *fn != nil {
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
// are quoted and the surviving per-leg option sets composed into the
// trip's joint skyline. Each city quotes its legs in gateway order, so
// the ids they take do not depend on goroutine scheduling; the two
// cities work concurrently. A gateway whose leg quoting fails
// (degenerate endpoints, no route) is dropped — its sibling quote
// declined — and the trip is registered quoted even when the joint
// skyline comes back empty (the rider then declines, exactly like an
// optionless single-city quote). If the quote record cannot be
// journaled, or ctx (which every leg quote carries) is done by then,
// every leg is declined and the trip fails (core.ErrUnavailable for a
// done ctx). The answer is the trip's Service record (see record).
func (s *Scheduler) Quote(ctx context.Context, oc, dc int, o, d roadnet.VertexID, riders int, cons core.Constraints) (*core.ServiceRecord, error) {
	if oc == dc || oc < 0 || dc < 0 || oc >= len(s.cities) || dc >= len(s.cities) {
		return nil, fmt.Errorf("relay: bad city pair (%d, %d)", oc, dc)
	}
	gws := s.gatewaysFor(oc, dc)
	engO, engD := s.cities[oc].Engine, s.cities[dc].Engine

	// Leg 2 is a hand-off pickup: its waiting-time budget and pick-up
	// window (the rider's, or else the city's) widen by the transfer
	// buffer, since the rendezvous is planned one transfer later than a
	// door pickup.
	buffer := s.cfg.TransferBufferSeconds
	waitD, pickupD := engD.LegLimits()
	cons2 := cons
	cons2.WaitSeconds = cmp.Or(max(cons.WaitSeconds, 0), waitD) + buffer
	cons2.MaxPickupSeconds = cmp.Or(max(cons.MaxPickupSeconds, 0), pickupD) + buffer

	k := len(gws)
	leg1 := make([]*core.ServiceRecord, k)
	leg2 := make([]*core.ServiceRecord, k)
	errs1 := make([]error, k)
	errs2 := make([]error, k)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for gi, g := range gws {
			leg2[gi], errs2[gi] = s.quoteLeg(ctx, engD, g.To, d, riders, cons2)
		}
	}()
	for gi, g := range gws {
		leg1[gi], errs1[gi] = s.quoteLeg(ctx, engO, o, g.From, riders, cons)
	}
	<-done

	tr := newTrip(s.led.newID(), oc, dc, o, d, riders)
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
			firstErr = cmp.Or(firstErr, errs1[gi], errs2[gi])
			continue
		}
		tr.Gateways = append(tr.Gateways, gws[gi])
		tr.Leg1Recs = append(tr.Leg1Recs, leg1[gi].ID)
		tr.Leg2Recs = append(tr.Leg2Recs, leg2[gi].ID)
		s.composeGateway(tr, len(tr.Gateways)-1, leg1[gi], leg2[gi])
	}
	if err := ctx.Err(); err != nil {
		s.declineLegsLocked(tr, -1)
		return nil, fmt.Errorf("relay: trip %d quote abandoned: %w: %w", tr.ID, core.ErrUnavailable, err)
	}
	if len(tr.Gateways) == 0 {
		return nil, fmt.Errorf("relay: no viable gateway %s → %s: %w",
			s.cities[oc].Name, s.cities[dc].Name, firstErr)
	}
	tr.Options = s.jointSkyline(tr.Options)

	// The replay rebuilds the trip from its quote record alone (the leg
	// records live in the city engines' own journals).
	snap := tr.tripSnap
	if err := s.transition(&relayRecord{Op: opQuote, Quote: &snap}, func(e *entry) error {
		return s.led.quote(tr, e)
	}); err != nil {
		s.declineLegsLocked(tr, -1)
		return nil, fmt.Errorf("relay: trip %d quote: %w", tr.ID, err)
	}
	return s.record(tr), nil
}

// quoteLeg quotes one leg on its city's engine.
func (s *Scheduler) quoteLeg(ctx context.Context, eng LegEngine, from, to roadnet.VertexID, riders int, cons core.Constraints) (*core.ServiceRecord, error) {
	t0 := time.Now()
	rec, err := eng.SubmitRequest(core.SubmitSpec{S: from, D: to, Riders: riders, Constraints: cons, Ctx: ctx})
	s.cfg.LegQuoteHist.ObserveSince(t0)
	return rec, err
}

// composeGateway appends every (leg-1 option × leg-2 option) pair of
// one gateway to the trip's raw option list. Fares sum; ETAs chain —
// the rider reaches the gateway after leg 1's pickup plus its
// service-bounded ride, waits out the transfer buffer, and boards no
// earlier than the leg-2 vehicle's own planned pickup.
func (s *Scheduler) composeGateway(tr *trip, gi int, rec1, rec2 *core.ServiceRecord) {
	engO, engD := s.cities[tr.OC].Engine, s.cities[tr.DC].Engine
	speed1, speed2 := engO.Speed(), engD.Speed()
	ride1 := (1 + rec1.Sigma) * rec1.SD / speed1
	ride2 := (1 + rec2.Sigma) * rec2.SD / speed2
	for i1, o1 := range rec1.Options {
		pickup1 := o1.PickupDist / speed1
		riderAtGateway := pickup1 + ride1 + s.cfg.TransferBufferSeconds
		for i2, o2 := range rec2.Options {
			boarding := math.Max(riderAtGateway, o2.PickupDist/speed2)
			tr.Options = append(tr.Options, Option{
				Gateway: gi, Leg1Index: i1, Leg2Index: i2, Leg1: o1, Leg2: o2,
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
	s.led.mu.Lock()
	defer s.led.mu.Unlock()
	return s.led.get(id)
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
	if err := tr.choosable(optionIndex); err != nil {
		return err
	}
	opt := tr.Options[optionIndex]
	engO, engD := s.cities[tr.OC].Engine, s.cities[tr.DC].Engine
	leg1ID, leg2ID := tr.Leg1Recs[opt.Gateway], tr.Leg2Recs[opt.Gateway]

	// Probe: both records must still be live quotes. The engines
	// re-validate under their vehicle locks at commit; this pre-check
	// just fails fast without touching vehicle state.
	for _, probe := range []struct {
		eng LegEngine
		id  core.RequestID
		idx int
	}{{engO, leg1ID, opt.Leg1Index}, {engD, leg2ID, opt.Leg2Index}} {
		rec, err := probe.eng.GetRequest(probe.id)
		if err != nil {
			s.abortLocked(tr)
			return fmt.Errorf("relay: trip %d probe: %w", id, err)
		}
		if rec.Status != core.StatusQuoted || probe.idx >= len(rec.Options) {
			s.abortLocked(tr)
			return fmt.Errorf("relay: trip %d probe: leg record %d is %v", id, probe.id, rec.Status)
		}
	}

	// Open the two-phase window durably: recovery treats an intent
	// without a matching done record as a crashed commit and releases
	// whatever leg reservations reached the engines' journals.
	if err := s.transition(&relayRecord{Op: opIntent, ID: tr.ID, Opt: optionIndex}, func(e *entry) error {
		return s.led.intent(tr, optionIndex, e)
	}); err != nil {
		s.abortLocked(tr)
		return fmt.Errorf("relay: trip %d intent: %w", id, err)
	}

	// Phase 1: book leg 1. An unavailable engine is ambiguous — the
	// commit may have journaled on a shard that died before answering
	// — so the trip parks with its window open until the shard is back
	// (or recovery re-runs the scan).
	if err := s.commitLeg(1, engO, leg1ID, opt.Leg1Index); err != nil {
		err = fmt.Errorf("relay: trip %d leg 1: %w", id, err)
		if errors.Is(err, core.ErrUnavailable) {
			return s.parkLocked(tr, err)
		}
		s.abortLocked(tr)
		return err
	}
	// Phase 2: book leg 2 — compensate leg 1 on failure.
	if err := s.commitLeg(2, engD, leg2ID, opt.Leg2Index); err != nil {
		if errors.Is(err, core.ErrUnavailable) {
			// Leg 2 may or may not have booked on the dead shard; leg 1
			// definitely did. The drain releases both.
			return s.parkLocked(tr, fmt.Errorf("relay: trip %d leg 2: %w", id, err))
		}
		if cerr := engO.CancelAssigned(leg1ID); cerr != nil {
			if errors.Is(cerr, core.ErrUnavailable) {
				// The origin engine vanished between commit and release;
				// the drain (or recovery's intent scan) compensates it.
				return s.parkLocked(tr, fmt.Errorf("relay: trip %d leg 2: %w (leg-1 release deferred: %v)", id, err, cerr))
			}
			// The rider was already picked up by a racing tick: leg 1
			// then completes as an ordinary trip and still leaks no
			// reservation. Anything else is an engine inconsistency
			// worth surfacing with the abort.
			err = fmt.Errorf("%w (leg-1 release: %v)", err, cerr)
		}
		s.abortLocked(tr)
		return fmt.Errorf("relay: trip %d leg 2: %w", id, err)
	}

	// Close the window. If the done record fails the legs stay booked
	// here but recovery compensates them — the caller must learn that
	// the commit is not durable.
	err = s.transition(&relayRecord{Op: opDone, ID: tr.ID}, func(e *entry) error { return s.led.book(tr, e) })
	s.declineLegsLocked(tr, opt.Gateway)
	if err != nil {
		return fmt.Errorf("relay: trip %d committed, journal failed: %w", id, err)
	}
	return nil
}

// abortLocked ends a trip whose two-phase commit failed: every
// still-quoted leg record is declined and the trip aborted with its
// window closed (journaled best effort — a dead journal re-aborts the
// trip at recovery instead). Caller holds tr.mu.
func (s *Scheduler) abortLocked(tr *trip) {
	s.declineLegsLocked(tr, -1)
	_ = s.transition(&relayRecord{Op: opAbort, ID: tr.ID}, func(e *entry) error { return s.led.abort(tr, e) })
}

// parkLocked parks a trip whose two-phase commit ran into an
// unavailable engine: the unused gateways' quotes are declined, the
// trip reads aborted, and its journaled intent stays open (recovery
// must still see the window) while the drain retries the release of
// the intent gateway's legs every Advance. It logs the intent gateway
// and the cause, keyed like every relay log line by the trip's request
// id, and returns the cause. Caller holds tr.mu.
func (s *Scheduler) parkLocked(tr *trip, cause error) error {
	gw := tr.Options[tr.Intent].Gateway
	s.declineLegsLocked(tr, gw)
	if s.transition(nil, func(*entry) error { return s.led.park(tr) }) == nil {
		slog.Warn("relay: trip parked", "request", int64(tr.ID.RequestID()), "gateway", gw, "cause", cause)
	}
	return cause
}

// releaseLocked compensates a parked trip — whatever the intent
// gateway's legs still hold on their engines is released: an assigned
// leg cancelled, a still-quoted one declined, an unknown one ignored
// (its commit never reached that engine's journal) — and then closes
// its window with the abort record, logging what became of each leg
// (cancelled, declined, absent, or the status it was left in).
// Idempotent; an unavailable engine leaves the trip parked. The error
// is a non-transport cancellation failure or the record's append
// failure: recovery surfaces it, the drain tolerates it (a cancel
// refused because a racing tick picked the rider up leaks nothing).
// Caller holds tr.mu.
func (s *Scheduler) releaseLocked(tr *trip) (err error) {
	if !tr.parked() {
		return nil // a concurrent drain released it first
	}
	opt := tr.Options[tr.Intent]
	var outcome [2]string
	for i, leg := range []struct {
		eng LegEngine
		id  core.RequestID
	}{
		{s.cities[tr.OC].Engine, tr.Leg1Recs[opt.Gateway]},
		{s.cities[tr.DC].Engine, tr.Leg2Recs[opt.Gateway]},
	} {
		rec, rerr := leg.eng.GetRequest(leg.id)
		if rerr != nil {
			if errors.Is(rerr, core.ErrUnavailable) {
				return nil
			}
			outcome[i] = "absent" // commit never reached that engine's journal
			continue
		}
		switch outcome[i] = rec.Status.String(); rec.Status {
		case core.StatusAssigned:
			cerr := leg.eng.CancelAssigned(leg.id)
			if errors.Is(cerr, core.ErrUnavailable) {
				return nil
			}
			if cerr == nil {
				outcome[i] = "cancelled"
			} else if err == nil {
				err = fmt.Errorf("relay: compensate trip %d leg %d: %w", tr.ID, leg.id, cerr)
			}
		case core.StatusQuoted:
			_ = leg.eng.Decline(leg.id)
			outcome[i] = "declined"
		}
	}
	jerr := s.transition(&relayRecord{Op: opAbort, ID: tr.ID}, func(e *entry) error {
		return s.led.closeWindow(tr, e)
	})
	if jerr == nil {
		slog.Info("relay: parked trip compensated", "request", int64(tr.ID.RequestID()),
			"gateway", opt.Gateway, "leg1", outcome[0], "leg2", outcome[1])
	}
	if err == nil {
		err = jerr
	}
	return err
}

// PendingCompensations reports how many trips still await a deferred
// leg release (0 in steady state). No operator surface exposes it; the
// crash-window tests poll it.
func (s *Scheduler) PendingCompensations() int {
	s.led.mu.Lock()
	defer s.led.mu.Unlock()
	return len(s.led.pending)
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
	if err := tr.quoted(); err != nil {
		return err
	}
	if err := s.transition(&relayRecord{Op: opDecline, ID: tr.ID}, func(e *entry) error {
		return s.led.decline(tr, e)
	}); err != nil {
		return fmt.Errorf("relay: trip %d decline: %w", id, err)
	}
	s.declineLegsLocked(tr, -1)
	return nil
}

// declineLegsLocked declines every still-quoted leg record except the
// keep gateway's (-1 keeps none). Caller holds tr.mu.
func (s *Scheduler) declineLegsLocked(tr *trip, keep int) {
	engO, engD := s.cities[tr.OC].Engine, s.cities[tr.DC].Engine
	for gi := range tr.Gateways {
		if gi != keep {
			_ = engO.Decline(tr.Leg1Recs[gi])
			_ = engD.Decline(tr.Leg2Recs[gi])
		}
	}
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
	origin := s.cities[tr.OC]
	speed := origin.Engine.Speed()
	id := tr.ID.RequestID()
	rec := &core.ServiceRecord{
		RequestRecord: core.RequestRecord{
			ID: id, S: tr.O, D: tr.D, Riders: tr.Riders,
			Status:  tr.State.requestStatus(),
			Options: make([]core.Option, len(tr.Options)),
			Chosen:  tr.Chosen,
		},
		City:  origin.Name,
		Speed: speed,
		Relay: &core.RelayView{
			RequestID:             int64(id),
			Origin:                origin.Name,
			Dest:                  s.cities[tr.DC].Name,
			State:                 tr.State.String(),
			TransferBufferSeconds: s.cfg.TransferBufferSeconds,
			Gateways:              make([]core.RelayGatewayView, len(tr.Gateways)),
			Options:               make([]core.RelayOptionView, len(tr.Options)),
			Chosen:                tr.Chosen,
		},
	}
	for i, g := range tr.Gateways {
		rec.Relay.Gateways[i] = core.RelayGatewayView{From: g.From, To: g.To, GapMeters: g.GapMeters}
	}
	for i, o := range tr.Options {
		rec.Options[i] = core.Option{Vehicle: o.Leg1.Vehicle, PickupDist: o.ETASeconds * speed, Price: o.Fare}
		rec.Relay.Options[i] = core.RelayOptionView{
			Index: i, Gateway: o.Gateway, Fare: o.Fare,
			Leg1Price: o.Leg1.Price, Leg2Price: o.Leg2.Price,
			Leg1Vehicle: o.Leg1.Vehicle, Leg2Vehicle: o.Leg2.Vehicle,
			PickupSeconds: o.PickupSeconds, ETASeconds: o.ETASeconds,
		}
	}
	if tr.Chosen >= 0 {
		leg1, leg2 := tr.committedLegs()
		rec.Relay.Leg1, rec.Relay.Leg2 = int64(leg1), int64(leg2)
		rec.Vehicle, rec.Price = rec.Options[tr.Chosen].Vehicle, rec.Options[tr.Chosen].Price
	}
	return rec
}

// Advance moves every committed trip's state machine forward by
// observing its leg records — called once per coordinator tick, after
// the per-city movement phases, once the parked trips' releases were
// retried. A trip one leg's vehicle failure orphaned compensates the
// surviving leg's reservation so nothing stays half-booked.
func (s *Scheduler) Advance() {
	s.led.mu.Lock()
	parked, worklist := slices.Clone(s.led.pending), slices.Collect(maps.Values(s.led.active))
	s.led.mu.Unlock()
	for _, tr := range parked {
		tr.mu.Lock()
		_ = s.releaseLocked(tr)
		tr.mu.Unlock()
	}
	for _, tr := range worklist {
		tr.mu.Lock()
		s.advanceLocked(tr)
		tr.mu.Unlock()
	}
}

// advanceLocked recomputes a committed trip's stage from its leg
// records' lifecycle states. Caller holds tr.mu.
func (s *Scheduler) advanceLocked(tr *trip) {
	if tr.Chosen < 0 || tr.State.terminal() {
		return // a concurrent Advance finished it
	}
	engO, engD := s.cities[tr.OC].Engine, s.cities[tr.DC].Engine
	leg1ID, leg2ID := tr.committedLegs()
	rec1, err1 := engO.GetRequest(leg1ID)
	rec2, err2 := engD.GetRequest(leg2ID)
	if err1 != nil || err2 != nil {
		return // engine restarted under us; leave the trip as is
	}
	if rec1.Status == core.StatusDeclined || rec2.Status == core.StatusDeclined {
		// A committed leg was orphaned (vehicle failure). Compensate
		// the surviving leg, then fail; an unavailable engine keeps the
		// trip active for the next tick's retry.
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
		if s.transition(nil, func(*entry) error { return s.led.fail(tr) }) == nil {
			// The legs as found: the declined one was orphaned, an
			// assigned one was released above.
			slog.Warn("relay: trip failed: a committed leg was orphaned", "request", int64(tr.ID.RequestID()),
				"leg1", rec1.Status.String(), "leg2", rec2.Status.String())
		}
		return
	}
	next := tr.State
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
	if next > tr.State {
		_ = s.transition(nil, func(*entry) error { return s.led.progress(tr, next) })
	}
}

// Trips counts the trips the ledger holds (the ptrider_relay_trips gauge).
func (s *Scheduler) Trips() int {
	s.led.mu.Lock()
	defer s.led.mu.Unlock()
	return len(s.led.trips)
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.led.mu.Lock()
	defer s.led.mu.Unlock()
	return s.led.stats()
}
