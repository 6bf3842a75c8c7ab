package roadnet_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestBuilderCSRAdjacency: each road is a half-edge out of either end,
// and a vertex's half-edges keep the order their roads were added in.
func TestBuilderCSRAdjacency(t *testing.T) {
	b := roadnet.NewBuilder(4, 10)
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Point{})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(1, 3, 4)
	b.AddEdge(0, 3, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 10 {
		t.Fatalf("got %d vertices %d half-edges, want 4 and 10", g.NumVertices(), g.NumEdges())
	}
	for v, want := range [][]roadnet.HalfEdge{
		{{To: 1, Weight: 1}, {To: 2, Weight: 2}, {To: 3, Weight: 5}},
		{{To: 0, Weight: 1}, {To: 3, Weight: 4}},
		{{To: 0, Weight: 2}, {To: 3, Weight: 3}},
		{{To: 2, Weight: 3}, {To: 1, Weight: 4}, {To: 0, Weight: 5}},
	} {
		if got := g.Out(roadnet.VertexID(v)); !slices.Equal(got, want) {
			t.Errorf("Out(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestBuilderRejectsInvalidEdges(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *roadnet.Builder)
	}{
		{"out of range head", func(b *roadnet.Builder) { b.AddEdge(0, 9, 1) }},
		{"out of range tail", func(b *roadnet.Builder) { b.AddEdge(-1, 0, 1) }},
		{"self loop", func(b *roadnet.Builder) { b.AddEdge(1, 1, 1) }},
		{"negative weight", func(b *roadnet.Builder) { b.AddEdge(0, 1, -2) }},
		// Rounded up to the grid, −1e-6 would be −0 and pass a sign check.
		{"tiny negative weight", func(b *roadnet.Builder) { b.AddEdge(0, 1, -1e-6) }},
		{"NaN weight", func(b *roadnet.Builder) { b.AddEdge(0, 1, math.NaN()) }},
		{"infinite weight", func(b *roadnet.Builder) { b.AddEdge(0, 1, math.Inf(1)) }},
		// Finite, but w·GridSteps overflows to +Inf.
		{"huge finite weight", func(b *roadnet.Builder) { b.AddEdge(0, 1, math.MaxFloat64/2) }},
		{"weight off the exact grid", func(b *roadnet.Builder) { b.AddEdge(0, 1, 1<<43) }},
		{"NaN point", func(b *roadnet.Builder) { b.AddVertex(geo.Point{X: math.NaN()}) }},
		{"infinite point", func(b *roadnet.Builder) { b.AddVertex(geo.Point{Y: math.Inf(-1)}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := roadnet.NewBuilder(2, 2)
			b.AddVertex(geo.Point{})
			b.AddVertex(geo.Point{})
			tc.build(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("Build accepted invalid edge")
			}
		})
	}
}

func TestEdgeWeightParallelEdgesTakeMinimum(t *testing.T) {
	b := roadnet.NewBuilder(3, 6)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{})
	}
	b.AddEdge(0, 1, 7)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 0, 5)
	g := b.MustBuild()
	for _, uv := range [][2]roadnet.VertexID{{0, 1}, {1, 0}} {
		if w, ok := g.EdgeWeight(uv[0], uv[1]); !ok || w != 3 {
			t.Fatalf("EdgeWeight(%d,%d) = (%v, %v), want (3, true)", uv[0], uv[1], w, ok)
		}
	}
	if _, ok := g.EdgeWeight(0, 2); ok {
		t.Fatal("EdgeWeight(0,2) reported an edge that does not exist")
	}
}

func TestMetricDetection(t *testing.T) {
	b := roadnet.NewBuilder(2, 2)
	b.AddVertex(geo.Point{X: 0})
	b.AddVertex(geo.Point{X: 100})
	b.AddEdge(0, 1, 100)
	if g := b.MustBuild(); !g.Metric() {
		t.Error("graph with weight == Euclidean length should be metric")
	}

	// A road shorter than its Euclidean length turns the bound off, and
	// the searches fall back from A* to Dijkstra.
	b = roadnet.NewBuilder(3, 6)
	b.AddVertex(geo.Point{X: 0})
	b.AddVertex(geo.Point{X: 100})
	b.AddVertex(geo.Point{X: 0, Y: 100})
	b.AddEdge(0, 1, 50)
	b.AddEdge(1, 2, 200)
	b.AddEdge(0, 2, 300)
	g := b.MustBuild()
	if g.Metric() {
		t.Error("graph with weight < Euclidean length must not be metric")
	}
	if lb := g.EuclidLB(0, 2); lb != 0 {
		t.Errorf("EuclidLB on a non-metric graph = %v, want 0", lb)
	}
	if p, d := roadnet.NewSearcher(g).Path(0, 2); d != 250 || !slices.Equal(p, []roadnet.VertexID{0, 1, 2}) {
		t.Errorf("Path(0, 2) = (%v, %v), want ([0 1 2], 250)", p, d)
	}

	b = roadnet.NewBuilder(2, 2)
	b.AddVertex(geo.Point{})
	b.AddVertex(geo.Point{})
	b.AddEdge(0, 1, 50)
	if lb := b.MustBuild().EuclidLB(0, 1); lb != 0 {
		t.Errorf("EuclidLB between vertices at one point = %v, want 0", lb)
	}
}

func TestConnected(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 5, 5, 100)
	if !roadnet.Connected(g) {
		t.Error("lattice should be connected")
	}
	b := roadnet.NewBuilder(3, 2)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{})
	}
	b.AddEdge(0, 1, 1)
	if roadnet.Connected(b.MustBuild()) {
		t.Error("graph with isolated vertex reported connected")
	}
}

func TestDistAgainstOracleRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testnet.RandomConnected(rng, 40, 2)
		oracle := testnet.NewOracle(g)
		s := roadnet.NewSearcher(g)
		for trial := 0; trial < 50; trial++ {
			u := roadnet.VertexID(rng.Intn(g.NumVertices()))
			v := roadnet.VertexID(rng.Intn(g.NumVertices()))
			want := oracle.Dist(u, v)
			if got := s.Dist(u, v); got != want {
				t.Fatalf("seed %d: Dist(%d,%d) = %v, oracle %v", seed, u, v, got, want)
			}
		}
	}
}

func TestAStarMatchesDijkstraOnMetricGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testnet.Lattice(rng, 8, 8, 100)
	if !g.Metric() {
		t.Fatal("lattice should be metric")
	}
	oracle := testnet.NewOracle(g)
	s := roadnet.NewSearcher(g) // uses A* on metric graphs
	for trial := 0; trial < 100; trial++ {
		u := roadnet.VertexID(rng.Intn(g.NumVertices()))
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if got, want := s.Dist(u, v), oracle.Dist(u, v); got != want {
			t.Fatalf("A* Dist(%d,%d) = %v, oracle %v", u, v, got, want)
		}
	}
}

func TestUnreachableIsInf(t *testing.T) {
	b := roadnet.NewBuilder(4, 2)
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Point{})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	s := roadnet.NewSearcher(g)
	if d := s.Dist(0, 3); !math.IsInf(d, 1) {
		t.Errorf("Dist across components = %v, want +Inf", d)
	}
	if p, d := s.Path(0, 3); p != nil || !math.IsInf(d, 1) {
		t.Errorf("Path across components = (%v, %v), want (nil, +Inf)", p, d)
	}
}

// TestDistsToMatchesIndividualQueries reads sweeps of the hierarchy
// at target sets with the source itself and a duplicate among them, and
// holds every value and the hierarchy's Dist to the oracle.
func TestDistsToMatchesIndividualQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testnet.RandomConnected(rng, 60, 2)
	oracle := testnet.NewOracle(g)
	h := roadnet.Contract(g)
	q := h.NewQuery()
	for trial := 0; trial < 20; trial++ {
		u := roadnet.VertexID(rng.Intn(g.NumVertices()))
		targets := make([]roadnet.VertexID, 8)
		for i := range targets {
			targets[i] = roadnet.VertexID(rng.Intn(g.NumVertices()))
		}
		targets[3] = u          // self target
		targets[5] = targets[4] // duplicate target
		out := make([]float64, len(targets))
		q.Sweep(u)
		q.DistsTo(targets, roadnet.Inf, out)
		for i, v := range targets {
			if want := oracle.Dist(u, v); out[i] != want {
				t.Fatalf("sweep from %d: [%d→%d] = %v, oracle %v", u, i, v, out[i], want)
			}
		}
		for _, v := range targets {
			if got, want := q.Dist(u, v), oracle.Dist(u, v); got != want {
				t.Fatalf("Dist(%d, %d) = %v, oracle %v", u, v, got, want)
			}
		}
	}
}

// TestDistsToBounded: a target beyond the bound reads +Inf, one on it
// its distance.
func TestDistsToBounded(t *testing.T) {
	g := testnet.Line(10, 5)
	h := roadnet.Contract(g)
	q := h.NewQuery()
	targets := []roadnet.VertexID{1, 4, 9}
	out := make([]float64, 3)
	q.Sweep(0)
	q.DistsTo(targets, 20, out)
	if out[0] != 5 || out[1] != 20 {
		t.Errorf("in-bound targets: got %v, want [5 20 ...]", out)
	}
	if !math.IsInf(out[2], 1) {
		t.Errorf("out-of-bound target: got %v, want +Inf", out[2])
	}
}

func TestPathIsShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testnet.Lattice(rng, 6, 6, 100)
	oracle := testnet.NewOracle(g)
	s := roadnet.NewSearcher(g)
	for trial := 0; trial < 50; trial++ {
		u := roadnet.VertexID(rng.Intn(g.NumVertices()))
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		path, d := s.Path(u, v)
		if d != oracle.Dist(u, v) {
			t.Fatalf("Path(%d,%d) dist %v, oracle %v", u, v, d, oracle.Dist(u, v))
		}
		var sum float64
		for i := 1; i < len(path); i++ {
			w, ok := g.EdgeWeight(path[i-1], path[i])
			if !ok {
				t.Fatalf("Path(%d,%d) uses non-edge %d→%d", u, v, path[i-1], path[i])
			}
			sum += w
		}
		if sum != d {
			t.Fatalf("Path(%d,%d) edge sum %v != reported %v", u, v, sum, d)
		}
		if u == v && (len(path) != 1 || path[0] != u) {
			t.Fatalf("Path(%d,%d) = %v, want single-vertex path", u, v, path)
		}
	}
}

// TestMultiSourceDists holds each sweep from a set of sources to the
// Floyd–Warshall oracle's distance to the nearest source, across source
// sets (one with a duplicate source) on one Query, as the grid index
// sweeps across cells.
func TestMultiSourceDists(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testnet.RandomConnected(rng, 50, 2)
	oracle := testnet.NewOracle(g)
	h := roadnet.Contract(g)
	q := h.NewQuery()
	all := make([]roadnet.VertexID, g.NumVertices())
	for v := range all {
		all[v] = roadnet.VertexID(v)
	}
	out := make([]float64, g.NumVertices())
	for _, sources := range [][]roadnet.VertexID{{3, 19, 42}, {7}, {11, 11, 30}} {
		q.Sweep(sources...)
		q.DistsTo(all, roadnet.Inf, out)
		for v := range out {
			want := math.Inf(1)
			for _, src := range sources {
				want = min(want, oracle.Dist(src, roadnet.VertexID(v)))
			}
			if out[v] != want {
				t.Fatalf("sources %v: dist[%d] = %v, oracle %v", sources, v, out[v], want)
			}
		}
	}
}

func TestEuclidLBNeverExceedsNetworkDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := testnet.Lattice(rng, 7, 7, 100)
	s := roadnet.NewSearcher(g)
	for trial := 0; trial < 200; trial++ {
		u := roadnet.VertexID(rng.Intn(g.NumVertices()))
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if lb, d := g.EuclidLB(u, v), s.Dist(u, v); lb > d+1e-9 {
			t.Fatalf("EuclidLB(%d,%d) = %v exceeds network distance %v", u, v, lb, d)
		}
	}
}

func TestSearcherReuseAcrossManyQueries(t *testing.T) {
	// The epoch mechanism must isolate consecutive queries.
	g := testnet.Line(5, 1)
	s := roadnet.NewSearcher(g)
	for i := 0; i < 1000; i++ {
		if d := s.Dist(0, 4); d != 4 {
			t.Fatalf("query %d: Dist = %v, want 4", i, d)
		}
		if d := s.Dist(4, 0); d != 4 {
			t.Fatalf("query %d: reverse Dist = %v, want 4", i, d)
		}
	}
}

func TestPaperNetworkDistances(t *testing.T) {
	g := testnet.PaperNetwork()
	s := roadnet.NewSearcher(g)
	v := func(k int) roadnet.VertexID { return roadnet.VertexID(k - 1) }
	checks := []struct {
		a, b int
		want float64
	}{
		{1, 2, 6}, {2, 12, 8}, {2, 16, 12}, {12, 16, 4},
		{16, 17, 3}, {12, 17, 7}, {13, 12, 8},
	}
	for _, c := range checks {
		if got := s.Dist(v(c.a), v(c.b)); got != c.want {
			t.Errorf("dist(v%d,v%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if !roadnet.Connected(g) {
		t.Error("paper network must be connected")
	}
}
