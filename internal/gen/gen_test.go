package gen_test

import (
	"math"
	"testing"

	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
)

func TestGenerateNetworkValidation(t *testing.T) {
	if _, err := gen.GenerateNetwork(gen.CityConfig{Width: 1, Height: 5}); err == nil {
		t.Error("1-wide city accepted")
	}
	if _, err := gen.GenerateNetwork(gen.CityConfig{Width: 5, Height: 5, RemoveFrac: 1.0}); err == nil {
		t.Error("RemoveFrac 1.0 accepted")
	}
}

func TestGenerateNetworkProperties(t *testing.T) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 20, Height: 20, RemoveFrac: 0.25, Seed: 7})
	if err != nil {
		t.Fatalf("GenerateNetwork: %v", err)
	}
	if g.NumVertices() != 400 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if !g.Embedded() || g.EuclidLB(0, 1) != g.Point(0).Dist(g.Point(1)) {
		t.Fatal("network must be embedded and metric")
	}
	if !roadnet.Connected(g) {
		t.Fatal("network must be connected")
	}
	if !g.IsSymmetric() {
		t.Fatal("network must be symmetric (two-way streets)")
	}
	// Removal actually removed something: a full 20x20 lattice has
	// 2*20*19 = 760 undirected edges.
	if got := g.NumEdges() / 2; got >= 760 {
		t.Fatalf("no edges removed: %d", got)
	}
}

func TestGenerateNetworkDeterministic(t *testing.T) {
	a, _ := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, RemoveFrac: 0.2, Seed: 3})
	b, _ := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, RemoveFrac: 0.2, Seed: 3})
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Point(roadnet.VertexID(v)) != b.Point(roadnet.VertexID(v)) {
			t.Fatal("same seed produced different embeddings")
		}
	}
	c, _ := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, RemoveFrac: 0.2, Seed: 4})
	same := true
	for v := 0; v < a.NumVertices() && same; v++ {
		same = a.Point(roadnet.VertexID(v)) == c.Point(roadnet.VertexID(v))
	}
	if same {
		t.Fatal("different seeds produced identical embeddings")
	}
}

func TestArterialsAreCheaper(t *testing.T) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 11, Height: 11, ArterialEvery: 5, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateNetwork: %v", err)
	}
	// Compare cost-per-metre on arterial rows (j = 0, 5, 10) vs others.
	var artSum, artN, minorSum, minorN float64
	for u := 0; u < g.NumVertices(); u++ {
		for _, e := range g.Out(roadnet.VertexID(u)) {
			if e.To < roadnet.VertexID(u) {
				continue
			}
			euclid := g.Point(roadnet.VertexID(u)).Dist(g.Point(e.To))
			ratio := e.Weight / euclid
			ju, jv := u/11, int(e.To)/11
			iu, iv := u%11, int(e.To)%11
			horizontal := ju == jv
			arterial := (horizontal && ju%5 == 0) || (!horizontal && iu == iv && iu%5 == 0)
			if arterial {
				artSum += ratio
				artN++
			} else {
				minorSum += ratio
				minorN++
			}
		}
	}
	if artN == 0 || minorN == 0 {
		t.Fatal("no edges classified")
	}
	if artSum/artN >= minorSum/minorN {
		t.Fatalf("arterials (%v) not cheaper than minor streets (%v)", artSum/artN, minorSum/minorN)
	}
}

func TestGenerateTripsValidAndSorted(t *testing.T) {
	g, _ := gen.GenerateNetwork(gen.CityConfig{Width: 15, Height: 15, Seed: 2})
	trips, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 5000, Seed: 2})
	if err != nil {
		t.Fatalf("GenerateTrips: %v", err)
	}
	if len(trips) != 5000 {
		t.Fatalf("got %d trips", len(trips))
	}
	for i, tr := range trips {
		if err := tr.Validate(g.NumVertices()); err != nil {
			t.Fatalf("trip %d invalid: %v", i, err)
		}
		if tr.Time < 0 || tr.Time > 86400 {
			t.Fatalf("trip %d time %v outside the day", i, tr.Time)
		}
		if i > 0 && tr.Time < trips[i-1].Time {
			t.Fatalf("trips unsorted at %d", i)
		}
		if tr.ID != int64(i+1) {
			t.Fatalf("trip ids not sequential at %d", i)
		}
	}
}

func TestTripsFollowDiurnalProfile(t *testing.T) {
	g, _ := gen.GenerateNetwork(gen.CityConfig{Width: 15, Height: 15, Seed: 3})
	trips, _ := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 30000, Seed: 3})
	var byHour [24]int
	byRiders := map[int]int{}
	for _, tr := range trips {
		byHour[min(max(int(tr.Time/3600), 0), 23)]++
		byRiders[tr.Riders]++
	}
	// Rush hours (08, 18) must clearly out-draw the small hours (03).
	if byHour[8] <= 2*byHour[3] {
		t.Errorf("hour 8 (%d) not busier than 2x hour 3 (%d)", byHour[8], byHour[3])
	}
	if byHour[18] <= 2*byHour[3] {
		t.Errorf("hour 18 (%d) not busier than 2x hour 3 (%d)", byHour[18], byHour[3])
	}
	// Rider distribution: singles dominate, 4-rider groups rare.
	if byRiders[1] < byRiders[2] || byRiders[2] < byRiders[4] {
		t.Errorf("rider distribution implausible: %v", byRiders)
	}
}

func TestTripsConcentrateAtHotspots(t *testing.T) {
	g, _ := gen.GenerateNetwork(gen.CityConfig{Width: 21, Height: 21, Seed: 4})
	trips, _ := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 20000, Seed: 4})
	// Afternoon origins are hotspot-weighted; compare origin density in
	// the central ninth of the map vs a corner ninth.
	bounds := g.Bounds()
	third := bounds.Width() / 3
	central, corner := 0, 0
	for _, tr := range trips {
		if tr.Time < 43200 {
			continue // afternoon only
		}
		p := g.Point(tr.S)
		dx, dy := p.X-bounds.Min.X, p.Y-bounds.Min.Y
		if dx > third && dx < 2*third && dy > third && dy < 2*third {
			central++
		}
		if dx < third && dy < third {
			corner++
		}
	}
	if central <= corner {
		t.Fatalf("central origins (%d) not denser than corner (%d)", central, corner)
	}
}

func TestMinTripDistanceRespected(t *testing.T) {
	g, _ := gen.GenerateNetwork(gen.CityConfig{Width: 15, Height: 15, Seed: 5})
	trips, _ := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 2000, MinTripMeters: 1000, Seed: 5})
	short := 0
	for _, tr := range trips {
		if g.Point(tr.S).Dist(g.Point(tr.D)) < 1000 {
			short++
		}
	}
	// The fallback path may admit a handful; the bulk must respect it.
	if float64(short) > 0.01*float64(len(trips)) {
		t.Fatalf("%d of %d trips below the minimum distance", short, len(trips))
	}
}

func TestTripGenConfigValidation(t *testing.T) {
	g, _ := gen.GenerateNetwork(gen.CityConfig{Width: 5, Height: 5, Seed: 1})
	if _, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: -1}); err == nil {
		t.Error("negative NumTrips accepted")
	}
	if _, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 1, HourlyWeights: []float64{1, 2}}); err == nil {
		t.Error("short hourly profile accepted")
	}
	if _, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 1, HourlyWeights: make([]float64, 24)}); err == nil {
		t.Error("all-zero hourly profile accepted")
	}
	neg := make([]float64, 24)
	neg[3] = -1
	if _, err := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 1, HourlyWeights: neg}); err == nil {
		t.Error("negative hourly weight accepted")
	}
}

func TestTripTimesSpanConfiguredDay(t *testing.T) {
	g, _ := gen.GenerateNetwork(gen.CityConfig{Width: 10, Height: 10, Seed: 6})
	trips, _ := gen.GenerateTrips(g, gen.TripConfig{NumTrips: 3000, DaySeconds: 3600, Seed: 6})
	maxT := 0.0
	for _, tr := range trips {
		maxT = math.Max(maxT, tr.Time)
	}
	if maxT > 3600 {
		t.Fatalf("trip at %v exceeds the 3600s day", maxT)
	}
}
