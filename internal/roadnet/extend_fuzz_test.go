package roadnet_test

import (
	"math"
	"testing"

	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
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
// hand-decoded graphs — plain, embedded with weights at or above the
// Euclidean length (metric), embedded with arbitrary weights
// (non-metric) — of 2–17 vertices plus a two-vertex island nothing
// else reaches; edge bytes repeat endpoints (parallel edges), weight
// byte 0 is a zero-weight edge, an odd weight byte a one-way edge.
// Kind 3 is a generated 12×12 city.
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
		if kind == 0 {
			b.AddPlainVertex()
			continue
		}
		// A 4×4 lattice of positions: vertices past the sixteenth share a
		// point with an earlier one, at Euclidean distance zero.
		pts[v] = geo.Point{X: float64(v % 4 * 100), Y: float64(v / 4 % 4 * 100)}
		b.AddVertex(pts[v])
	}
	b.AddUndirectedEdge(roadnet.VertexID(n), roadnet.VertexID(n+1), 7.25+pts[n].Dist(pts[n+1]))
	for m := in.next() % 48; m > 0; m-- {
		u, v, wb := in.next()%n, in.next()%n, in.next()
		if u == v {
			continue
		}
		w := float64(wb) * 0.37
		if kind == 1 {
			w += pts[u].Dist(pts[v])
		}
		if wb%2 == 1 {
			b.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v), w)
		} else {
			b.AddUndirectedEdge(roadnet.VertexID(u), roadnet.VertexID(v), w)
		}
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

// FuzzSearcherExtend holds the resumable search to its reference: after
// one Begin, whatever the sequence of Extend calls — bounds rising and
// falling, unbounded, duplicate targets, the source itself, targets an
// earlier call settled — every distance reported equals FillDists'
// from the same source bit for bit, and is +Inf exactly when that
// distance exceeds the call's own bound; and the search never settles
// a vertex twice.
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
		src := roadnet.VertexID(in.next() % n)

		want := make([]float64, n)
		roadnet.NewSearcher(g).FillDists(src, roadnet.Inf, want)
		farthest := 0.0
		for _, d := range want {
			if !math.IsInf(d, 1) && d > farthest {
				farthest = d
			}
		}

		s := roadnet.NewSearcher(g)
		s.Begin(src)
		var targets []roadnet.VertexID
		var out []float64
		for call := 0; in.more(); call++ {
			// Bound byte: 0 unbounded; 1–199 a fraction (up to 1.5×) of the
			// farthest reachable distance; 200+ exactly some vertex's
			// distance, so a target sits on the bound itself.
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
			s.Extend(targets, maxDist, out)
			for i, v := range targets {
				exp := want[v]
				if exp > maxDist {
					exp = roadnet.Inf
				}
				if out[i] != exp {
					t.Fatalf("call %d (maxDist %v): dist(%d, %d) = %v, want %v (reference %v)",
						call, maxDist, src, v, out[i], exp, want[v])
				}
			}
			if s.Settled() > n {
				t.Fatalf("call %d: settled %d vertices of %d", call, s.Settled(), n)
			}
		}
	})
}
