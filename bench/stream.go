package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ptrider/internal/gen"
	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
)

// riderKind says how a rider's requests reach the system.
type riderKind uint8

const (
	kindSingle riderKind = iota // one POST /v1/requests
	kindBatch                   // one {"requests":[…]} call carrying a whole burst
	kindRelay                   // one POST whose origin and destination lie in different cities
)

// trip is one ridesharing request R = ⟨s, d, n⟩. Single-engine
// workloads address by vertex id; twin_cluster by the vertices'
// coordinates, with City and DestCity naming the cities they lie in.
type trip struct {
	S, D           roadnet.VertexID
	Riders         int
	City, DestCity int
}

// rider is one arrival of the open-loop schedule: when it is due and
// what it sends. Body is encoded once, at generation, so the client
// spends no measured time encoding and the stream hash covers exactly
// the bytes the system under test receives.
type rider struct {
	Due   time.Duration // offset from the phase start
	Kind  riderKind
	Trips []trip
	Body  []byte
}

// streamSource is what a generator needs to know of the deployment:
// the road graph of every city and, for the hot-cell workload, the grid.
type streamSource struct {
	graphs []*roadnet.Graph
	grid   *gridindex.Grid // city 0's grid index
	coords bool            // address by coordinates (gateway deployments)
}

const burstSize = 16

// pickupCapSeconds is every rider's own pick-up limit: options that
// would collect them later than five minutes from now are of no use
// to them. It bounds each match to the rider's neighbourhood, as a
// city-scale deployment's waiting-time limit does; engines built here
// carry the same value as their global cut-off, and request bodies
// repeat it because a shard process takes no such flag.
const pickupCapSeconds = 300

func sampleRiders(rng *rand.Rand) int {
	switch x := rng.Float64(); {
	case x < 0.75:
		return 1
	case x < 0.93:
		return 2
	case x < 0.98:
		return 3
	default:
		return 4
	}
}

// uniformTrip draws origin and destination uniformly by vertex id
// inside one city.
func uniformTrip(rng *rand.Rand, g *roadnet.Graph, city int) trip {
	n := g.NumVertices()
	s := rng.Intn(n)
	d := (s + 1 + rng.Intn(n-1)) % n
	return trip{S: roadnet.VertexID(s), D: roadnet.VertexID(d), Riders: sampleRiders(rng), City: city, DestCity: city}
}

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// appendTrip encodes one request body of POST /v1/requests.
func (src *streamSource) appendTrip(b []byte, t trip) []byte {
	if !src.coords {
		return fmt.Appendf(b, `{"s":%d,"d":%d,"riders":%d,"max_pickup_seconds":%d}`, t.S, t.D, t.Riders, pickupCapSeconds)
	}
	o, d := src.graphs[t.City].Point(t.S), src.graphs[t.DestCity].Point(t.D)
	b = append(b, `{"ox":`...)
	b = appendFloat(b, o.X)
	b = append(b, `,"oy":`...)
	b = appendFloat(b, o.Y)
	b = append(b, `,"dx":`...)
	b = appendFloat(b, d.X)
	b = append(b, `,"dy":`...)
	b = appendFloat(b, d.Y)
	return fmt.Appendf(b, `,"riders":%d,"max_pickup_seconds":%d}`, t.Riders, pickupCapSeconds)
}

func (src *streamSource) single(due time.Duration, t trip) rider {
	kind := kindSingle
	if t.City != t.DestCity {
		kind = kindRelay
	}
	return rider{Due: due, Kind: kind, Trips: []trip{t}, Body: src.appendTrip(nil, t)}
}

func (src *streamSource) batch(due time.Duration, trips []trip) rider {
	b := []byte(`{"requests":[`)
	for i, t := range trips {
		if i > 0 {
			b = append(b, ',')
		}
		b = src.appendTrip(b, t)
	}
	return rider{Due: due, Kind: kindBatch, Trips: trips, Body: append(b, "]}"...)}
}

// poissonDues draws arrival offsets of a Poisson process of the given
// rate over dur: independent riders, so gaps are exponential.
func poissonDues(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// uniformStream is Poisson arrivals of uniform single-city trips; with
// several cities a relayShare of them cross to another city.
func (src *streamSource) uniformStream(rng *rand.Rand, rate float64, dur time.Duration, relayShare float64) []rider {
	dues := poissonDues(rng, rate, dur)
	out := make([]rider, len(dues))
	for i, due := range dues {
		city := rng.Intn(len(src.graphs))
		t := uniformTrip(rng, src.graphs[city], city)
		if len(src.graphs) > 1 && rng.Float64() < relayShare {
			t.DestCity = (city + 1 + rng.Intn(len(src.graphs)-1)) % len(src.graphs)
			t.D = roadnet.VertexID(rng.Intn(src.graphs[t.DestCity].NumVertices()))
		}
		out[i] = src.single(due, t)
	}
	return out
}

// hotCell returns the vertices of the grid cell holding the most.
func hotCell(grid *gridindex.Grid) []roadnet.VertexID {
	best := gridindex.CellID(0)
	for c := range grid.NumCells() {
		if len(grid.Cell(gridindex.CellID(c)).Vertices) > len(grid.Cell(best).Vertices) {
			best = gridindex.CellID(c)
		}
	}
	return grid.Cell(best).Vertices
}

// hotTrip draws a trip from one of the hot cell's vertices to a
// destination uniform over the city.
func hotTrip(rng *rand.Rand, g *roadnet.Graph, hot []roadnet.VertexID) trip {
	for {
		s := hot[rng.Intn(len(hot))]
		d := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if s != d {
			return trip{S: s, D: d, Riders: sampleRiders(rng)}
		}
	}
}

// hotcellStream is the paper's §2.5 case: every burstEvery a burst of
// 16 riders is due at once, origins inside the hot cell, destinations
// uniform. Even bursts arrive as 16 individual calls, odd bursts as one
// batch call.
func (src *streamSource) hotcellStream(rng *rand.Rand, burstEvery, dur time.Duration) []rider {
	g, hot := src.graphs[0], hotCell(src.grid)
	var out []rider
	for b := 0; time.Duration(b)*burstEvery < dur; b++ {
		due := time.Duration(b) * burstEvery
		trips := make([]trip, burstSize)
		for i := range trips {
			trips[i] = hotTrip(rng, g, hot)
		}
		if b%2 == 1 {
			out = append(out, src.batch(due, trips))
			continue
		}
		for _, t := range trips {
			out = append(out, src.single(due, t))
		}
	}
	return out
}

// peakStream replays a compressed rush-hour day: trips drawn by
// gen.GenerateTrips under gen.PeakHourlyWeights over daySeconds of
// simulated time, due at their submission time divided by speedup.
func (src *streamSource) peakStream(seed int64, trips int, daySeconds, speedup float64) ([]rider, error) {
	day, err := gen.GenerateTrips(src.graphs[0], gen.TripConfig{
		NumTrips: trips, DaySeconds: daySeconds, HourlyWeights: gen.PeakHourlyWeights(), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]rider, len(day))
	for i, t := range day {
		due := time.Duration(t.Time / speedup * float64(time.Second))
		out[i] = src.single(due, trip{S: t.S, D: t.D, Riders: t.Riders})
	}
	return out, nil
}

// streamHash digests a stream: due times, kinds and the exact bytes
// sent. Same seed, same hash; the benchmark prints it with every result.
func streamHash(riders []rider) string {
	h := sha256.New()
	var hdr [9]byte
	for i := range riders {
		binary.LittleEndian.PutUint64(hdr[:8], uint64(riders[i].Due))
		hdr[8] = byte(riders[i].Kind)
		h.Write(hdr[:])
		h.Write(riders[i].Body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// singlesOf flattens a stream into its single-city trips, in order: the
// input of the closed loop, the rate steps and the ladder replay.
func singlesOf(riders []rider) []trip {
	var out []trip
	for i := range riders {
		for _, t := range riders[i].Trips {
			if t.City == t.DestCity {
				out = append(out, t)
			}
		}
	}
	return out
}
