package relay

// gateway.go precomputes the hand-off gateway table: for every city
// pair, the vertex pairs that face each other across the shared region
// boundary. Cities' service regions are disjoint rectangles separated
// by un-networked gap (the "sea"), so the hand-off is modelled as a
// fixed crossing at the gateway pair; its Euclidean gap is recorded
// for views but does not enter the composed fares (each leg prices its
// own network distance) — the transfer buffer covers the crossing
// time.

import (
	"sort"

	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
)

// Gateway is one hand-off vertex pair: From in the origin city's
// graph, To in the destination city's. Gateways are selected once per
// city pair at construction (see buildGateways) and reused by every
// relay trip between those cities.
type Gateway struct {
	From, To roadnet.VertexID
	// GapMeters is the Euclidean hand-off gap between the two gateway
	// vertices — the crossing the transfer buffer has to cover.
	GapMeters float64
}

// boundaryCandidates returns the n vertices of g closest (Euclidean)
// to the other city's region — the vertices that can face a gateway.
func boundaryCandidates(g *roadnet.Graph, other geo.Rect, n int) []roadnet.VertexID {
	type cand struct {
		v roadnet.VertexID
		d float64
	}
	cands := make([]cand, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		cands[v] = cand{roadnet.VertexID(v), other.DistToPoint(g.Point(roadnet.VertexID(v)))}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]roadnet.VertexID, n)
	for i := range out {
		out[i] = cands[i].v
	}
	return out
}

// buildGateways selects up to maxGateways hand-off pairs between two
// cities: each city contributes its boundaryCandidateCount
// boundary-nearest vertices, every cross pair is ranked by Euclidean
// gap, and pairs are picked greedily with distinct endpoints — reusing
// a vertex would offer the rider the same hand-off twice. Gateways are
// oriented a→b (From in a, To in b); callers flip for the reverse
// direction.
func buildGateways(a, b CityRef) []Gateway {
	ga, errA := a.Engine.CityGraph("")
	gb, errB := b.Engine.CityGraph("")
	if errA != nil || errB != nil || ga.NumVertices() == 0 || gb.NumVertices() == 0 {
		return nil
	}
	candA := boundaryCandidates(ga, b.Region, boundaryCandidateCount)
	candB := boundaryCandidates(gb, a.Region, boundaryCandidateCount)

	pairs := make([]Gateway, 0, len(candA)*len(candB))
	for _, va := range candA {
		pa := ga.Point(va)
		for _, vb := range candB {
			pairs = append(pairs, Gateway{From: va, To: vb, GapMeters: pa.Dist(gb.Point(vb))})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].GapMeters < pairs[j].GapMeters })

	usedA := make(map[roadnet.VertexID]bool, maxGateways)
	usedB := make(map[roadnet.VertexID]bool, maxGateways)
	out := make([]Gateway, 0, maxGateways)
	for _, p := range pairs {
		if len(out) == maxGateways {
			break
		}
		if usedA[p.From] || usedB[p.To] {
			continue
		}
		usedA[p.From] = true
		usedB[p.To] = true
		out = append(out, p)
	}
	return out
}
