package roadnet_test

import (
	"slices"
	"testing"

	"ptrider/internal/gen"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestContractDeterministic contracts one city twice and requires
// identical arrays: the order breaks every tie by vertex id and reads no
// map, so neither the run nor GOMAXPROCS can change it (CI runs it at
// -cpu 1,4). It also checks the CSR's shape: every rank appears once,
// and every arc climbs.
func TestContractDeterministic(t *testing.T) {
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: 24, Height: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h1 := roadnet.Contract(g)
	h2 := roadnet.Contract(g)
	rank1, off1, heads1, w1 := h1.Arrays()
	rank2, off2, heads2, w2 := h2.Arrays()
	if !slices.Equal(rank1, rank2) || !slices.Equal(off1, off2) || !slices.Equal(heads1, heads2) || !slices.Equal(w1, w2) {
		t.Fatal("two contractions of one graph differ")
	}
	n := g.NumVertices()
	seen := make([]bool, n)
	for _, r := range rank1 {
		if r < 0 || int(r) >= n || seen[r] {
			t.Fatalf("rank %d repeated or out of [0,%d)", r, n)
		}
		seen[r] = true
	}
	for r := 0; r < n; r++ {
		for _, head := range heads1[off1[r]:off1[r+1]] {
			if int(head) <= r {
				t.Fatalf("arc from rank %d to rank %d does not climb", r, head)
			}
		}
	}
	t.Logf("%d vertices, %d upward arcs (%.2f a vertex)", n, h1.NumArcs(), float64(h1.NumArcs())/float64(n))
}

// TestHierarchyOnThePaperNetwork reads the paper's worked-example
// distances from both hierarchy queries.
func TestHierarchyOnThePaperNetwork(t *testing.T) {
	g := testnet.PaperNetwork()
	h := roadnet.Contract(g)
	q := h.NewQuery()
	o := testnet.NewOracle(g)
	out := make([]float64, g.NumVertices())
	all := make([]roadnet.VertexID, g.NumVertices())
	for v := range all {
		all[v] = roadnet.VertexID(v)
	}
	for u := range all {
		src := roadnet.VertexID(u)
		for _, v := range all {
			if got, want := q.Dist(src, v), o.Dist(src, v); got != want {
				t.Fatalf("Dist(%d, %d) = %v, oracle %v", src, v, got, want)
			}
		}
		q.Sweep(src)
		q.DistsTo(all, roadnet.Inf, out)
		for v, d := range out {
			if want := o.Dist(src, roadnet.VertexID(v)); d != want {
				t.Fatalf("sweep from %d: [%d] = %v, oracle %v", src, v, d, want)
			}
		}
	}
}
