// Package gen synthesises the demonstration workload (paper §4). The
// original demo uses 432,327 trips extracted from 17,000 Shanghai taxis
// on May 29 2009; that dataset is proprietary, so this package builds
// the closest synthetic equivalent (see DESIGN.md §5 for the
// substitution argument):
//
//   - a city road network: a perturbed lattice with arterial avenues
//     (lower travel cost) and randomly removed minor segments, metric
//     in the plane and guaranteed connected via a random spanning tree;
//   - a one-day trip workload: spatial demand from a Gaussian-mixture
//     of hotspots (CBD plus sub-centres), a double-peak diurnal arrival
//     profile, morning flows toward the hotspots and evening flows away
//     from them, and a realistic rider-count distribution.
//
// Everything is deterministic under a seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
	"ptrider/internal/trace"
)

// CityConfig parameterises the synthetic road network.
type CityConfig struct {
	// Width and Height count intersections per side. Both ≥ 2.
	Width, Height int
	// Spacing is the distance between adjacent intersections in metres
	// (0 = 250).
	Spacing float64
	// ArterialEvery makes every k-th row/column an arterial whose edges
	// carry no congestion surcharge (0 = 5; negative = none).
	ArterialEvery int
	// RemoveFrac removes this fraction of non-spanning-tree minor edges
	// to break the lattice regularity. Must be in [0, 1).
	RemoveFrac float64
	// OriginX and OriginY translate the whole city in the plane, so
	// several generated cities can occupy disjoint regions (the
	// multi-city router assigns requests to cities by coordinate).
	OriginX, OriginY float64
	// Seed drives all randomness.
	Seed int64
}

func (c *CityConfig) withDefaults() CityConfig {
	out := *c
	if out.Spacing == 0 {
		out.Spacing = 250
	}
	if out.ArterialEvery == 0 {
		out.ArterialEvery = 5
	}
	return out
}

// GenerateNetwork builds the synthetic city road network.
func GenerateNetwork(cfg CityConfig) (*roadnet.Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.Width < 2 || cfg.Height < 2 {
		return nil, fmt.Errorf("gen: city must be at least 2x2 intersections")
	}
	if cfg.RemoveFrac < 0 || cfg.RemoveFrac >= 1 {
		return nil, fmt.Errorf("gen: RemoveFrac %v outside [0,1)", cfg.RemoveFrac)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w, h := cfg.Width, cfg.Height
	n := w * h

	pts := make([]geo.Point, n)
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			jitterX := (rng.Float64() - 0.5) * 0.2 * cfg.Spacing
			jitterY := (rng.Float64() - 0.5) * 0.2 * cfg.Spacing
			pts[j*w+i] = geo.Point{
				X: cfg.OriginX + float64(i)*cfg.Spacing + jitterX,
				Y: cfg.OriginY + float64(j)*cfg.Spacing + jitterY,
			}
		}
	}

	type latEdge struct {
		u, v     roadnet.VertexID
		arterial bool
	}
	var edges []latEdge
	isArterial := func(row, col int, horizontal bool) bool {
		if cfg.ArterialEvery < 0 {
			return false
		}
		if horizontal {
			return row%cfg.ArterialEvery == 0
		}
		return col%cfg.ArterialEvery == 0
	}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			id := roadnet.VertexID(j*w + i)
			if i+1 < w {
				edges = append(edges, latEdge{id, id + 1, isArterial(j, i, true)})
			}
			if j+1 < h {
				edges = append(edges, latEdge{id, id + roadnet.VertexID(w), isArterial(j, i, false)})
			}
		}
	}

	// Random spanning tree via randomised union-find pass: shuffle the
	// edges, keep the first ones that connect new components. Tree
	// edges are never removed, so the network stays connected.
	perm := rng.Perm(len(edges))
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	inTree := make([]bool, len(edges))
	for _, ei := range perm {
		ru, rv := find(int32(edges[ei].u)), find(int32(edges[ei].v))
		if ru != rv {
			parent[ru] = rv
			inTree[ei] = true
		}
	}

	b := roadnet.NewBuilder(n, 4*len(edges))
	for _, p := range pts {
		b.AddVertex(p)
	}
	kept := 0
	for ei, e := range edges {
		if !inTree[ei] && !e.arterial && rng.Float64() < cfg.RemoveFrac {
			continue
		}
		euclid := pts[e.u].Dist(pts[e.v])
		factor := 1.3 + 0.5*rng.Float64() // minor street surcharge
		if e.arterial {
			factor = 1.25 // fast avenue (still above max jitter stretch)
		}
		b.AddEdge(e.u, e.v, euclid*factor)
		kept++
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if !roadnet.Connected(g) {
		return nil, fmt.Errorf("gen: internal error: generated network disconnected")
	}
	return g, nil
}

// Hotspot is one Gaussian demand centre.
type Hotspot struct {
	Center geo.Point
	Sigma  float64 // metres
	Weight float64
}

// TripConfig parameterises the one-day workload.
type TripConfig struct {
	// NumTrips scales the workload; the demo's day has 432,327.
	NumTrips int
	// DaySeconds is the workload horizon (0 = 86400).
	DaySeconds float64
	// Hotspots override the default CBD + two sub-centres (relative to
	// the network bounds) when non-nil.
	Hotspots []Hotspot
	// HourlyWeights override the default double-peak diurnal profile
	// when non-nil; must have 24 entries.
	HourlyWeights []float64
	// MinTripMeters drops trips shorter than this Euclidean distance
	// (0 = 2 grid spacings' worth, approximated as 500 m).
	MinTripMeters float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultHourlyWeights is the double-peak diurnal arrival profile
// (morning and evening rush), normalised by Sample.
var DefaultHourlyWeights = []float64{
	0.20, 0.12, 0.08, 0.06, 0.08, 0.18, // 00-05
	0.45, 0.95, 1.30, 1.10, 0.80, 0.75, // 06-11
	0.85, 0.80, 0.70, 0.75, 0.90, 1.20, // 12-17
	1.40, 1.15, 0.90, 0.70, 0.50, 0.35, // 18-23
}

// PeakHourlyWeights is an arrival profile that concentrates almost all
// demand into the two rush windows (07–09 and 17–19), with a near-dead
// rest of the day. Against a fixed fleet the peaks overload hot cells,
// which is the workload the surge tracker is meant to answer — use it
// with surge-enabled engines to exercise demand-shedding.
func PeakHourlyWeights() []float64 {
	return []float64{
		0.02, 0.02, 0.02, 0.02, 0.02, 0.05, // 00-05
		0.40, 2.60, 2.80, 0.60, 0.10, 0.10, // 06-11
		0.10, 0.10, 0.10, 0.20, 0.60, 2.60, // 12-17
		2.80, 0.80, 0.20, 0.10, 0.05, 0.02, // 18-23
	}
}

func defaultHotspots(bounds geo.Rect) []Hotspot {
	c := bounds.Center()
	w, h := bounds.Width(), bounds.Height()
	return []Hotspot{
		{Center: c, Sigma: 0.12 * math.Min(w, h), Weight: 1.0},                                                // CBD
		{Center: geo.Point{X: bounds.Min.X + 0.25*w, Y: bounds.Min.Y + 0.70*h}, Sigma: 0.08 * w, Weight: 0.5}, // north-west centre
		{Center: geo.Point{X: bounds.Min.X + 0.75*w, Y: bounds.Min.Y + 0.30*h}, Sigma: 0.08 * w, Weight: 0.5}, // south-east centre
	}
}

// TripGen samples trips over one network. Construct with NewTripGen;
// it precomputes the spatial sampling tables once.
type TripGen struct {
	g       *roadnet.Graph
	cfg     TripConfig
	rng     *rand.Rand
	hotCum  []float64 // cumulative hotspot-mixture weights per vertex
	uniCum  []float64 // cumulative near-uniform weights per vertex
	hourCum []float64
	minDist float64
}

// NewTripGen prepares a generator for g.
func NewTripGen(g *roadnet.Graph, cfg TripConfig) (*TripGen, error) {
	if cfg.NumTrips < 0 {
		return nil, fmt.Errorf("gen: negative NumTrips")
	}
	if cfg.DaySeconds == 0 {
		cfg.DaySeconds = 86400
	}
	if cfg.MinTripMeters == 0 {
		cfg.MinTripMeters = 500
	}
	hours := cfg.HourlyWeights
	if hours == nil {
		hours = DefaultHourlyWeights
	}
	if len(hours) != 24 {
		return nil, fmt.Errorf("gen: HourlyWeights must have 24 entries, got %d", len(hours))
	}
	hot := cfg.Hotspots
	if hot == nil {
		hot = defaultHotspots(g.Bounds())
	}

	tg := &TripGen{
		g:       g,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		minDist: cfg.MinTripMeters,
	}

	n := g.NumVertices()
	tg.hotCum = make([]float64, n)
	tg.uniCum = make([]float64, n)
	sumHot, sumUni := 0.0, 0.0
	for v := 0; v < n; v++ {
		p := g.Point(roadnet.VertexID(v))
		wHot := 0.05 // base demand everywhere
		for _, hs := range hot {
			d2 := p.DistSq(hs.Center)
			wHot += hs.Weight * math.Exp(-d2/(2*hs.Sigma*hs.Sigma))
		}
		sumHot += wHot
		tg.hotCum[v] = sumHot
		sumUni += 1.0
		tg.uniCum[v] = sumUni
	}

	tg.hourCum = make([]float64, 24)
	total := 0.0
	for i, w := range hours {
		if w < 0 {
			return nil, fmt.Errorf("gen: negative hourly weight at %d", i)
		}
		total += w
		tg.hourCum[i] = total
	}
	if total == 0 {
		return nil, fmt.Errorf("gen: all hourly weights are zero")
	}
	return tg, nil
}

func sampleCum(rng *rand.Rand, cum []float64) int {
	x := rng.Float64() * cum[len(cum)-1]
	return sort.SearchFloat64s(cum, x)
}

// sampleTime draws a trip submission time from the diurnal profile,
// scaled to the configured day length.
func (tg *TripGen) sampleTime() float64 {
	hour := sampleCum(tg.rng, tg.hourCum)
	frac := (float64(hour) + tg.rng.Float64()) / 24
	return frac * tg.cfg.DaySeconds
}

// sampleEndpoints draws origin and destination: before 12:00 demand
// flows toward the hotspots (residential → centre), afterwards away
// from them, mirroring commuter flows.
func (tg *TripGen) sampleEndpoints(t float64) (roadnet.VertexID, roadnet.VertexID) {
	morning := t < tg.cfg.DaySeconds/2
	for attempt := 0; attempt < 64; attempt++ {
		var s, d int
		if morning {
			s = sampleCum(tg.rng, tg.uniCum)
			d = sampleCum(tg.rng, tg.hotCum)
		} else {
			s = sampleCum(tg.rng, tg.hotCum)
			d = sampleCum(tg.rng, tg.uniCum)
		}
		if s == d {
			continue
		}
		su, dv := roadnet.VertexID(s), roadnet.VertexID(d)
		if tg.g.Point(su).Dist(tg.g.Point(dv)) < tg.minDist {
			continue
		}
		return su, dv
	}
	// Degenerate configuration: fall back to any distinct pair.
	s := tg.rng.Intn(tg.g.NumVertices())
	d := (s + 1 + tg.rng.Intn(tg.g.NumVertices()-1)) % tg.g.NumVertices()
	return roadnet.VertexID(s), roadnet.VertexID(d)
}

func (tg *TripGen) sampleRiders() int {
	switch x := tg.rng.Float64(); {
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

// Generate produces the full workload sorted by submission time.
func (tg *TripGen) Generate() []trace.Trip {
	trips := make([]trace.Trip, tg.cfg.NumTrips)
	for i := range trips {
		t := tg.sampleTime()
		s, d := tg.sampleEndpoints(t)
		trips[i] = trace.Trip{
			ID:     int64(i + 1),
			Time:   t,
			S:      s,
			D:      d,
			Riders: tg.sampleRiders(),
		}
	}
	sort.Slice(trips, func(a, b int) bool { return trips[a].Time < trips[b].Time })
	for i := range trips {
		trips[i].ID = int64(i + 1) // re-number in time order
	}
	return trips
}

// GenerateTrips is the one-call convenience wrapper.
func GenerateTrips(g *roadnet.Graph, cfg TripConfig) ([]trace.Trip, error) {
	tg, err := NewTripGen(g, cfg)
	if err != nil {
		return nil, err
	}
	return tg.Generate(), nil
}
