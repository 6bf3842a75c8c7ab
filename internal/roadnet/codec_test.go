package roadnet_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

func TestGraphCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := testnet.Lattice(rng, 6, 6, 100)
	var buf bytes.Buffer
	if err := roadnet.WriteGraph(&buf, g); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	g2, err := roadnet.ReadGraph(&buf)
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if !g2.Embedded() || !g2.Metric() {
		t.Fatal("embedding lost in round trip")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Point(roadnet.VertexID(v)) != g2.Point(roadnet.VertexID(v)) {
			t.Fatalf("vertex %d moved", v)
		}
		// Every weight keeps its bits: a built weight is on the grid
		// already, so Build's rounding leaves the parsed one as it is.
		out, out2 := g.Out(roadnet.VertexID(v)), g2.Out(roadnet.VertexID(v))
		for i := range out {
			if math.Float64bits(out[i].Weight) != math.Float64bits(out2[i].Weight) || out[i].To != out2[i].To {
				t.Fatalf("vertex %d edge %d: %v became %v", v, i, out[i], out2[i])
			}
		}
	}
	s1, s2 := roadnet.NewSearcher(g), roadnet.NewSearcher(g2)
	for trial := 0; trial < 50; trial++ {
		u := roadnet.VertexID(rng.Intn(g.NumVertices()))
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if s1.Dist(u, v) != s2.Dist(u, v) {
			t.Fatalf("distance changed for (%d,%d)", u, v)
		}
	}
}

func TestGraphCodecRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "not-a-network\n",
		"bad vertex":    "ptrider-network 1\nv x y\n",
		"short vertex":  "ptrider-network 1\nv 1\n",
		"bad edge":      "ptrider-network 1\nv 0 0\nv 1 0\ne 0 x 1\n",
		"edge range":    "ptrider-network 1\nv 0 0\ne 0 7 1\n",
		"unknown rec":   "ptrider-network 1\nq 1 2\n",
		"tiny negative": "ptrider-network 1\nv 0 0\nv 1 0\ne 0 1 -1e-6\n",
		"huge weight":   "ptrider-network 1\nv 0 0\nv 1 0\ne 0 1 1e308\n",
	}
	for name, input := range cases {
		if _, err := roadnet.ReadGraph(bytes.NewReader([]byte(input))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestGraphCodecSkipsCommentsAndBlanks(t *testing.T) {
	input := "ptrider-network 1\n# a comment\nv 0 0\n\nv 1 0\ne 0 1 5\ne 1 0 5\n"
	g, err := roadnet.ReadGraph(bytes.NewReader([]byte(input)))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 2 {
		t.Fatalf("shape = %d/%d", g.NumVertices(), g.NumEdges())
	}
}
