package roadnet_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ptrider/internal/gen"
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
	if !g2.Metric() {
		t.Fatal("metric lost in round trip")
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
		"empty":          "",
		"bad header":     "not-a-network\n",
		"bad vertex":     "ptrider-network 1\nv x y\n",
		"short vertex":   "ptrider-network 1\nv 1\n",
		"bad edge":       "ptrider-network 1\nv 0 0\nv 1 0\ne 0 x 1\n",
		"edge range":     "ptrider-network 1\nv 0 0\ne 0 7 1\n",
		"unknown rec":    "ptrider-network 1\nq 1 2\n",
		"tiny negative":  "ptrider-network 1\nv 0 0\nv 1 0\ne 0 1 -1e-6\n",
		"huge weight":    "ptrider-network 1\nv 0 0\nv 1 0\ne 0 1 1e308\n",
		"one-way road":   "ptrider-network 1\nv 0 0\nv 1 0\nv 0 1\ne 0 1 1\ne 1 0 1\ne 1 2 2\n",
		"unequal pair":   "ptrider-network 1\nv 0 0\nv 1 0\ne 0 1 1\ne 1 0 1.5\n",
		"NaN point":      "ptrider-network 1\nv NaN 0\nv 1 0\ne 0 1 1\ne 1 0 1\n",
		"infinite point": "ptrider-network 1\nv 0 0\nv 1 -Inf\ne 0 1 1\ne 1 0 1\n",
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

// FuzzReadGraph holds the one place a network enters from outside the
// program: ReadGraph never panics, and a network it accepts writes back
// through WriteGraph and reads back with every point and every Out list
// bit for bit.
func FuzzReadGraph(f *testing.F) {
	f.Add("ptrider-network 1\nv 0 0\nv 1 0\ne 0 1 5\n")
	f.Add("ptrider-network 1\nv 0 0\nv 1 0\ne 0 1 5\ne 1 0 6\n")
	f.Add("ptrider-network 1\nv 0 0\nv 3 4\ne 0 1 5\ne 1 0 5\ne 1 0 7.25\ne 0 1 7.25\n")
	city, err := gen.GenerateNetwork(gen.CityConfig{Width: 6, Height: 6, RemoveFrac: 0.2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := roadnet.WriteGraph(&buf, city); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())

	f.Fuzz(func(t *testing.T, input string) {
		g, err := roadnet.ReadGraph(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := roadnet.WriteGraph(&buf, g); err != nil {
			t.Fatalf("WriteGraph: %v", err)
		}
		g2, err := roadnet.ReadGraph(&buf)
		if err != nil {
			t.Fatalf("an accepted network does not read back: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() {
			t.Fatalf("%d vertices read back as %d", g.NumVertices(), g2.NumVertices())
		}
		for v := roadnet.VertexID(0); int(v) < g.NumVertices(); v++ {
			if p, p2 := g.Point(v), g2.Point(v); math.Float64bits(p.X) != math.Float64bits(p2.X) || math.Float64bits(p.Y) != math.Float64bits(p2.Y) {
				t.Fatalf("vertex %d at %v read back at %v", v, p, p2)
			}
			out, out2 := g.Out(v), g2.Out(v)
			if len(out) != len(out2) {
				t.Fatalf("vertex %d: %d half-edges read back as %d", v, len(out), len(out2))
			}
			for i := range out {
				if out[i].To != out2[i].To || math.Float64bits(out[i].Weight) != math.Float64bits(out2[i].Weight) {
					t.Fatalf("vertex %d half-edge %d: %v read back as %v", v, i, out[i], out2[i])
				}
			}
		}
	})
}
