package roadnet_test

import (
	"math"
	"testing"

	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// fuzzInput reads a fuzz input one byte at a time; past the end every
// byte is zero, so any input decodes to a graph and a (possibly empty)
// script.
type fuzzInput struct {
	b []byte
	i int
}

func (in *fuzzInput) next() int {
	if in.i >= len(in.b) {
		return 0
	}
	in.i++
	return int(in.b[in.i-1])
}

func (in *fuzzInput) more() bool { return in.i < len(in.b) }

// fuzzGraph decodes the graph of a fuzz input. Kinds 0–2 are small
// hand-decoded graphs — every vertex at the origin, on a lattice with
// weights at or above the Euclidean length (metric), on a lattice with
// arbitrary weights (non-metric) — of 2–17 vertices plus a two-vertex
// island nothing else reaches; edge bytes repeat endpoints
// (parallel edges, among them pairs of unequal weight) and weight byte 0
// is a zero-weight edge. Kind 3 is a generated 12×12 city.
func fuzzGraph(t *testing.T, in *fuzzInput) *roadnet.Graph {
	kind := in.next() % 4
	if kind == 3 {
		g, err := gen.GenerateNetwork(gen.CityConfig{Width: 12, Height: 12, RemoveFrac: 0.15, Seed: int64(in.next())})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	n := 2 + in.next()%16
	b := roadnet.NewBuilder(n+2, 0)
	pts := make([]geo.Point, n+2)
	for v := range pts {
		if kind != 0 {
			// A 4×4 lattice of positions: vertices past the sixteenth
			// share a point with an earlier one, at Euclidean distance
			// zero.
			pts[v] = geo.Point{X: float64(v % 4 * 100), Y: float64(v / 4 % 4 * 100)}
		}
		b.AddVertex(pts[v])
	}
	b.AddEdge(roadnet.VertexID(n), roadnet.VertexID(n+1), 7.25+pts[n].Dist(pts[n+1]))
	for m := in.next() % 48; m > 0; m-- {
		u, v, wb := in.next()%n, in.next()%n, in.next()
		if u == v {
			continue
		}
		w := float64(wb) * 0.37
		if kind == 1 {
			w += pts[u].Dist(pts[v])
		}
		b.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if kind == 1 && !g.Metric() {
		t.Fatal("kind 1 must decode to a metric graph")
	}
	return g
}

// FuzzSearcherExtend holds the contraction hierarchy to the
// Floyd–Warshall oracle (the name, from the resumable search the
// hierarchy replaced, keeps the checked-in corpus under testdata/). After
// one Contract, any script of queries on one Query — Dist for a pair,
// or a sweep from one to three sources (the same vertex twice among
// them too) read at target sets under bounds rising and falling,
// unbounded, and exactly on some vertex's distance — answers every
// distance equal to the oracle's bit for bit, and +Inf exactly where
// the nearest source's distance exceeds the read's bound.
func FuzzSearcherExtend(f *testing.F) {
	// One seed per graph kind; the checked-in corpus under testdata/ adds
	// longer scripts.
	f.Add([]byte{0, 4, 5, 0, 1, 10, 1, 2, 0, 2, 3, 20, 0, 3, 4, 1, 0, 1, 10, 2, 0, 3, 0, 3, 4, 5, 6, 9, 2, 0, 0, 201, 2, 3, 3})
	f.Add([]byte{1, 20, 6, 0, 1, 0, 1, 5, 8, 5, 17, 0, 2, 6, 40, 16, 0, 0, 6, 3, 2, 30, 2, 17, 5, 0, 4, 0, 1, 2, 6})
	f.Add([]byte{2, 9, 4, 0, 1, 2, 1, 2, 4, 0, 2, 100, 2, 3, 1, 3, 0, 1, 2, 64, 2, 0, 3})
	f.Add([]byte{3, 1, 77, 40, 3, 0, 143, 12, 0, 5, 1, 2, 3, 100, 101, 10, 2, 12, 143, 200, 1, 50, 255, 4, 77, 77, 0, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		g := fuzzGraph(t, in)
		n := g.NumVertices()
		h := roadnet.Contract(g)
		o := testnet.NewOracle(g)
		q := h.NewQuery()
		want := make([]float64, n)
		var sources, targets []roadnet.VertexID
		var out []float64
		for call := 0; in.more(); call++ {
			op := in.next()
			if op%2 == 0 {
				u, v := roadnet.VertexID(in.next()%n), roadnet.VertexID(in.next()%n)
				if got, exp := q.Dist(u, v), o.Dist(u, v); got != exp {
					t.Fatalf("call %d: Dist(%d, %d) = %v, oracle %v", call, u, v, got, exp)
				}
				continue
			}
			sources = sources[:0]
			for k := 1 + op/2%3; k > 0; k-- {
				sources = append(sources, roadnet.VertexID(in.next()%n))
			}
			farthest := 0.0
			for v := range want {
				want[v] = roadnet.Inf
				for _, s := range sources {
					want[v] = min(want[v], o.Dist(s, roadnet.VertexID(v)))
				}
				if !math.IsInf(want[v], 1) {
					farthest = max(farthest, want[v])
				}
			}
			q.Sweep(sources...)
			for reads := 1 + op/8%3; reads > 0; reads-- {
				// Bound byte: 0 unbounded; 1–199 a fraction (up to 1.5×)
				// of the farthest reachable distance; 200+ exactly some
				// vertex's distance, so a target sits on the bound itself.
				maxDist := roadnet.Inf
				if bb := in.next(); bb >= 200 {
					maxDist = want[bb%n]
				} else if bb > 0 {
					maxDist = farthest * 1.5 * float64(bb-1) / 198
				}
				targets, out = targets[:0], out[:0]
				for k := in.next() % 8; k > 0; k-- {
					targets = append(targets, roadnet.VertexID(in.next()%n))
					out = append(out, -1)
				}
				q.DistsTo(targets, maxDist, out)
				for i, v := range targets {
					exp := want[v]
					if exp > maxDist {
						exp = roadnet.Inf
					}
					if out[i] != exp {
						t.Fatalf("call %d (sources %v, maxDist %v): dist to %d = %v, want %v (oracle %v)",
							call, sources, maxDist, v, out[i], exp, want[v])
					}
				}
			}
		}
	})
}
