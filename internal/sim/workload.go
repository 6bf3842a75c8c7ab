// workload.go generates coordinate workloads over a Service's cities:
// trips carry planar coordinates, so the backend assigns each to the
// city owning its origin. The generator skews load across cities and
// injects a configurable fraction of cross-city trips; a relay-enabled
// backend serves those as two-leg relay trips (counted as relayed and
// then accepted/declined like any other), while a plain one rejects
// them with its typed error — so the same workload demonstrates
// per-city isolation, relay scheduling, or the rejection behaviour,
// depending on the backend's configuration.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"ptrider/internal/core"
	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
)

// MultiTrip is one entry of a coordinate workload: endpoints are planar
// coordinates — city assignment is the backend's job, not the trace's.
type MultiTrip struct {
	// Time is the submission time in seconds from the start of the day.
	Time float64
	// O and D are the origin and destination coordinates.
	O, D geo.Point
	// Riders is the group size.
	Riders int
	// Cross marks a trip whose destination was deliberately moved to
	// another city (served by relay when the backend enables it,
	// rejected with the typed error otherwise).
	Cross bool
	// City is the origin city the generator drew the trip from (for
	// assertions; the backend re-derives it from O).
	City string
}

// CoordTrips converts a coordinate workload for Run.
func CoordTrips(trips []MultiTrip) []Trip {
	out := make([]Trip, len(trips))
	for i, t := range trips {
		out[i] = Trip{Time: t.Time, Spec: core.SubmitSpec{
			ByCoords: true, Origin: t.O, Dest: t.D, Riders: t.Riders,
			Constraints: core.DefaultConstraints(),
		}}
	}
	return out
}

// GenerateMultiWorkload synthesises a skewed multi-city day over a
// Service's cities: each city's share of tcfg.NumTrips comes from the
// standard hotspot/diurnal generator on that city's own network (seeded
// per city from tcfg.Seed), converted to coordinates. weights skews the
// per-city load share by city name — a missing city weighs 1, so nil
// means uniform, and a weight of 3 sends a city three times the traffic
// of a weight-1 city. crossFrac (in [0,1)) relocates that fraction of
// destinations into another city. The merged workload is sorted by
// submission time.
func GenerateMultiWorkload(svc core.Service, tcfg gen.TripConfig, weights map[string]float64, crossFrac float64) ([]MultiTrip, error) {
	if tcfg.NumTrips <= 0 {
		return nil, fmt.Errorf("sim: NumTrips %d < 1", tcfg.NumTrips)
	}
	if crossFrac < 0 || crossFrac >= 1 {
		return nil, fmt.Errorf("sim: CrossFrac %v outside [0,1)", crossFrac)
	}
	cities := svc.Cities()
	if crossFrac > 0 && len(cities) < 2 {
		return nil, fmt.Errorf("sim: cross-city trips need at least two cities")
	}
	graphs := make([]*roadnet.Graph, len(cities))
	w := make([]float64, len(cities))
	totalW, lastPositive, known := 0.0, -1, 0
	for i, c := range cities {
		g, err := svc.CityGraph(c.Name)
		if err != nil {
			return nil, fmt.Errorf("sim: city %s: %w", c.Name, err)
		}
		graphs[i], w[i] = g, 1
		if v, ok := weights[c.Name]; ok {
			w[i] = max(v, 0)
			known++
		}
		totalW += w[i]
		if w[i] > 0 {
			lastPositive = i
		}
	}
	if known != len(weights) {
		// A misspelled weight key would silently degrade the run to
		// uniform load; reject it instead.
		return nil, fmt.Errorf("sim: weights %v name a city the service does not have", weights)
	}
	if totalW <= 0 {
		return nil, fmt.Errorf("sim: all city weights are zero")
	}

	rng := rand.New(rand.NewSource(tcfg.Seed))
	var out []MultiTrip
	assigned := 0
	for i, c := range cities {
		share := int(float64(tcfg.NumTrips) * w[i] / totalW)
		if i == lastPositive {
			// The rounding remainder keeps the total exact; it goes to the
			// last city with positive weight, never to one the caller
			// explicitly zeroed out.
			share = tcfg.NumTrips - assigned
		}
		assigned += share
		if share == 0 {
			continue
		}
		ccfg := tcfg
		ccfg.NumTrips = share
		ccfg.Seed += int64(i) * 7919
		trips, err := gen.GenerateTrips(graphs[i], ccfg)
		if err != nil {
			return nil, fmt.Errorf("sim: city %s: %w", c.Name, err)
		}
		for _, t := range trips {
			mt := MultiTrip{
				Time:   t.Time,
				O:      graphs[i].Point(t.S),
				D:      graphs[i].Point(t.D),
				Riders: t.Riders,
				City:   c.Name,
			}
			if crossFrac > 0 && rng.Float64() < crossFrac {
				// Relocate the destination into a random other city.
				other := rng.Intn(len(cities) - 1)
				if other == i {
					other = len(cities) - 1
				}
				og := graphs[other]
				mt.D = og.Point(int32(rng.Intn(og.NumVertices())))
				mt.Cross = true
			}
			out = append(out, mt)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}
