package roadnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
)

// TestDistancesExactAcrossSearches holds the package's exactness
// contract on generated cities: for random pairs, Dist(u, v) and
// Dist(v, u) (A* on these metric graphs), FillDists, and the
// hierarchy's Dist both ways and its sweep from u, read at two target
// sets, all return the same bits. On weights off the grid, about 60 %
// of the pairs differed between the two directions in their last bits.
func TestDistancesExactAcrossSearches(t *testing.T) {
	for _, c := range []struct {
		side int
		seed int64
	}{{40, 1}, {40, 7}, {24, 1}, {24, 2}} {
		t.Run(fmt.Sprintf("%dx%d/seed%d", c.side, c.side, c.seed), func(t *testing.T) {
			g, err := gen.GenerateNetwork(gen.CityConfig{Width: c.side, Height: c.side, Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			h := roadnet.Contract(g)
			rng := rand.New(rand.NewSource(c.seed))
			s, q := roadnet.NewSearcher(g), h.NewQuery()
			n := g.NumVertices()
			fill := make([]float64, n)
			targets := make([]roadnet.VertexID, 50)
			swept := make([]float64, len(targets))
			pairs, differ := 0, 0
			for src := 0; src < 40; src++ {
				u := roadnet.VertexID(rng.Intn(n))
				for i := range targets {
					targets[i] = roadnet.VertexID(rng.Intn(n))
				}
				s.FillDists(u, roadnet.Inf, fill)
				q.Sweep(u)
				half := len(targets) / 2
				q.DistsTo(targets[:half], roadnet.Inf, swept[:half])
				q.DistsTo(targets[half:], roadnet.Inf, swept[half:])
				for i, v := range targets {
					pairs++
					fwd, rev := s.Dist(u, v), s.Dist(v, u)
					chFwd, chRev := q.Dist(u, v), q.Dist(v, u)
					if fwd != rev || fwd != fill[v] || fwd != chFwd || fwd != chRev || fwd != swept[i] {
						if differ == 0 {
							t.Errorf("%d↔%d: Dist %v, reverse %v, FillDists %v, hierarchy Dist %v, reverse %v, sweep %v",
								u, v, fwd, rev, fill[v], chFwd, chRev, swept[i])
						}
						differ++
					}
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d pairs differ between searches", differ, pairs)
			}
		})
	}
}
