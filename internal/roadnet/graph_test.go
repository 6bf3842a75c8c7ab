package roadnet_test

import (
	"math"
	"math/rand"
	"testing"

	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

func TestBuilderCSRAdjacency(t *testing.T) {
	b := roadnet.NewBuilder(4, 8)
	for i := 0; i < 4; i++ {
		b.AddPlainVertex()
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
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("got %d vertices %d edges, want 4 and 5", g.NumVertices(), g.NumEdges())
	}
	if got := len(g.Out(0)); got != 3 {
		t.Errorf("len(Out(0)) = %d, want 3", got)
	}
	want := map[roadnet.VertexID]float64{1: 1, 2: 2, 3: 5}
	for _, e := range g.Out(0) {
		if want[e.To] != e.Weight {
			t.Errorf("Out(0) contains %v, want weights %v", e, want)
		}
		delete(want, e.To)
	}
	if len(want) != 0 {
		t.Errorf("Out(0) missing edges to %v", want)
	}
	if got := len(g.Out(3)); got != 0 {
		t.Errorf("len(Out(3)) = %d, want 0", got)
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := roadnet.NewBuilder(2, 2)
			b.AddPlainVertex()
			b.AddPlainVertex()
			tc.build(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("Build accepted invalid edge")
			}
		})
	}
}

func TestEdgeWeightParallelEdgesTakeMinimum(t *testing.T) {
	b := roadnet.NewBuilder(2, 3)
	b.AddPlainVertex()
	b.AddPlainVertex()
	b.AddEdge(0, 1, 7)
	b.AddEdge(0, 1, 3)
	b.AddEdge(0, 1, 5)
	g := b.MustBuild()
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 3 {
		t.Fatalf("EdgeWeight = (%v, %v), want (3, true)", w, ok)
	}
	if _, ok := g.EdgeWeight(1, 0); ok {
		t.Fatal("EdgeWeight(1,0) reported an edge that does not exist")
	}
}

func TestMetricDetection(t *testing.T) {
	b := roadnet.NewBuilder(2, 2)
	b.AddVertex(geo.Point{X: 0})
	b.AddVertex(geo.Point{X: 100})
	b.AddUndirectedEdge(0, 1, 100)
	if g := b.MustBuild(); !g.Metric() {
		t.Error("graph with weight == Euclidean length should be metric")
	}

	b = roadnet.NewBuilder(2, 2)
	b.AddVertex(geo.Point{X: 0})
	b.AddVertex(geo.Point{X: 100})
	b.AddUndirectedEdge(0, 1, 50) // shorter than the Euclidean length
	if g := b.MustBuild(); g.Metric() {
		t.Error("graph with weight < Euclidean length must not be metric")
	}

	b = roadnet.NewBuilder(2, 2)
	b.AddPlainVertex()
	b.AddPlainVertex()
	b.AddUndirectedEdge(0, 1, 50)
	g := b.MustBuild()
	if g.Metric() || g.Embedded() {
		t.Error("plain graph must be neither metric nor embedded")
	}
	if lb := g.EuclidLB(0, 1); lb != 0 {
		t.Errorf("EuclidLB on plain graph = %v, want 0", lb)
	}
}

func TestConnected(t *testing.T) {
	g := testnet.Lattice(rand.New(rand.NewSource(1)), 5, 5, 100)
	if !roadnet.Connected(g) {
		t.Error("lattice should be connected")
	}
	b := roadnet.NewBuilder(3, 2)
	for i := 0; i < 3; i++ {
		b.AddPlainVertex()
	}
	b.AddUndirectedEdge(0, 1, 1)
	if roadnet.Connected(b.MustBuild()) {
		t.Error("graph with isolated vertex reported connected")
	}
}

func TestIsSymmetric(t *testing.T) {
	if g := testnet.RandomConnected(rand.New(rand.NewSource(2)), 30, 2); !g.IsSymmetric() {
		t.Error("undirected test graph should be symmetric")
	}
	b := roadnet.NewBuilder(2, 1)
	b.AddPlainVertex()
	b.AddPlainVertex()
	b.AddEdge(0, 1, 1)
	if b.MustBuild().IsSymmetric() {
		t.Error("one-way edge graph reported symmetric")
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
		b.AddPlainVertex()
	}
	b.AddUndirectedEdge(0, 1, 1)
	b.AddUndirectedEdge(2, 3, 1)
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
	h, err := roadnet.Contract(g)
	if err != nil {
		t.Fatal(err)
	}
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
	h, err := roadnet.Contract(g)
	if err != nil {
		t.Fatal(err)
	}
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
	h, err := roadnet.Contract(g)
	if err != nil {
		t.Fatal(err)
	}
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
