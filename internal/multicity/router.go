// Package multicity serves many cities behind one front door: a
// Coordinator (coordinator.go) implements core.Service over N fully
// independent city backends and assigns every request to the city whose
// service region contains its origin coordinate. This file builds the
// in-process flavour, the Router: one core.Engine per city — its own
// immutable routing substrate, fleet, grid index and pricing
// configuration — behind the coordinator. internal/cluster builds the
// other flavour, the same coordinator over shard processes.
//
// Isolation is the design point. Cities share no mutable state: a
// hot-cell storm in one city cannot stall another's matchers, per-city
// pricing and constraint settings stay independently tunable, and each
// city's tick runs on its own goroutine (per-city movement is naturally
// parallel work). The coordinator adds only coordinate→city
// assignment, a global request-id namespace, concurrent fan-out of
// batches and ticks, and cross-city aggregation of the statistics
// panel.
//
// Cross-city trips (origin in one city, destination in another) are
// rejected with a typed error (*core.CrossCityError, matchable as
// core.ErrCrossCity) by default. With RouterConfig.EnableRelay they are
// served instead: the relay scheduler (internal/relay) quotes the trip
// as two coordinated legs over precomputed hand-off gateways, composes
// the per-leg skylines into a joint one, and commits both legs with a
// two-phase protocol — see the relay package for the full design. The
// typed rejection stays the default so callers relying on it keep it.
package multicity

import (
	"fmt"
	"path/filepath"

	"ptrider/internal/core"
	"ptrider/internal/geo"
	"ptrider/internal/relay"
	"ptrider/internal/roadnet"
	"ptrider/internal/telemetry"
	"ptrider/internal/wal"
)

// CitySpec declares one city of a Router.
type CitySpec struct {
	// Name identifies the city in every view; must be unique and
	// non-empty.
	Name string
	// Graph is the city's embedded road network.
	Graph *roadnet.Graph
	// Region is the city's service area. The zero Rect means "the
	// graph's bounding box". Regions of different cities must be
	// disjoint — they are what assigns a coordinate to a city.
	Region geo.Rect
	// Config is the city's engine configuration (capacity, constraints,
	// pricing, matching algorithm — independently tunable per market).
	Config core.Config
	// Vehicles places this many taxis uniformly at random.
	Vehicles int
}

// RouterConfig carries the router-level settings (per-city settings
// live in each CitySpec).
type RouterConfig struct {
	// EnableRelay serves cross-city O/D pairs as two-leg relay trips
	// instead of rejecting them with *core.CrossCityError. Needs at least
	// two cities.
	EnableRelay bool
	// Relay tunes the relay scheduler (gateway count, transfer buffer;
	// zero = defaults). Ignored unless EnableRelay.
	Relay relay.Config

	// Durability turns on write-ahead journaling for every city shard
	// (one journal per city engine under WALDir/city-<name>, plus
	// WALDir/relay for the relay trip ledger when relay is enabled).
	// Cities found with journaled state are recovered and their
	// CitySpec.Vehicles seeding is skipped — the fleet is already in
	// the journal.
	Durability wal.Mode
	// WALDir is the root journal directory.
	WALDir string

	// Telemetry, when non-nil, turns on per-city engine telemetry: each
	// city gets its own child registry (cities share nothing), the
	// router-level registry itself carries the relay leg-quote
	// histogram, and MetricFamilies merges everything with a
	// city=<name> label per city. Nil — the default — disables
	// instrumentation everywhere at zero cost.
	Telemetry *telemetry.Registry
}

// Router is the in-process Coordinator: every city backend is a
// *core.Engine in this process. It adds only what needs the concrete
// engines — inspection and invariant checks.
type Router struct {
	*Coordinator
	engines []*core.Engine // engines[i] is city i's backend
}

// NewWithConfig builds a Router over the given cities with router-level
// settings (the zero RouterConfig rejects cross-city trips). Regions
// default to each graph's bounding box and must be pairwise disjoint.
func NewWithConfig(specs []CitySpec, rc RouterConfig) (*Router, error) {
	// Names and regions are checked before any engine is built: an
	// engine opens (and may recover) its journal directory, which a
	// rejected configuration must not touch.
	cities := make([]City, len(specs))
	for i, spec := range specs {
		if spec.Graph == nil {
			return nil, fmt.Errorf("multicity: city %d (%q) has no graph", i, spec.Name)
		}
		cities[i] = City{Name: spec.Name, Region: spec.Region}
		if spec.Region == (geo.Rect{}) {
			cities[i].Region = spec.Graph.Bounds()
		}
	}
	if err := checkCities(cities); err != nil {
		return nil, err
	}
	r := &Router{engines: make([]*core.Engine, len(specs))}
	for i, spec := range specs {
		cfg := spec.Config
		if rc.Durability != wal.ModeOff {
			if rc.WALDir == "" {
				return nil, fmt.Errorf("multicity: durability %v requires WALDir", rc.Durability)
			}
			cfg.Durability = rc.Durability
			cfg.WALDir = filepath.Join(rc.WALDir, "city-"+spec.Name)
		}
		if rc.Telemetry != nil {
			// One child registry per city: engines stay share-nothing and
			// the coordinator labels each city's families at gather time.
			cfg.Telemetry = telemetry.NewRegistry()
		}
		eng, err := core.NewEngine(spec.Graph, cfg)
		if err != nil {
			return nil, fmt.Errorf("multicity: city %q: %w", spec.Name, err)
		}
		if spec.Vehicles > 0 && !eng.Recovered() {
			// A recovered city already holds its fleet in the journal;
			// re-seeding would double the population.
			eng.AddVehiclesUniform(spec.Vehicles)
		}
		r.engines[i], cities[i].Backend = eng, eng
	}
	var relayCfg *relay.Config
	if rc.EnableRelay {
		relayCfg = &rc.Relay
		if rc.Durability != wal.ModeOff {
			relayCfg.Durability = rc.Durability
			relayCfg.WALDir = filepath.Join(rc.WALDir, "relay")
		}
	}
	var err error
	if r.Coordinator, err = NewCoordinator(cities, relayCfg, rc.Telemetry); err != nil {
		return nil, err
	}
	return r, nil
}

// Engine exposes a city's engine for inspection (views, invariants,
// benchmarks). Request ids obtained directly from the engine are local
// to that city and do not route through the Router's id space.
func (r *Router) Engine(name string) (*core.Engine, error) {
	ci, err := r.cityIndex(name)
	if err != nil {
		return nil, err
	}
	return r.engines[ci], nil
}

// CheckInvariants verifies every city's engine invariants (tests).
func (r *Router) CheckInvariants() error {
	for i, eng := range r.engines {
		if err := eng.CheckInvariants(); err != nil {
			return fmt.Errorf("multicity: %s: %w", r.cities[i].Name, err)
		}
	}
	return nil
}
