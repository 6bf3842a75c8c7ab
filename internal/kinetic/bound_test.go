package kinetic_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/skyline"
	"ptrider/internal/testnet"
)

// foldEntry is what a fold keeps of an accepted candidate: the vehicle
// (-1 for a pre-filled entry), the schedule behind the option and its
// detour.
type foldEntry struct {
	vehicle int
	seq     string
	delta   float64
}

// skyFold is a matcher's fold over a test skyline: a candidate is
// priced at ratio·(delta + dist(s,d)) and kept unless its pick-up
// distance passes maxPickup or the skyline weakly dominates it
// (dominates it, or holds its exact coordinates). As a kinetic.Bound
// it rejects the same, and counts what it rejected.
type skyFold struct {
	sky       skyline.Skyline[foldEntry]
	ratio, sd float64
	maxPickup float64
	rejected  int
}

func (f *skyFold) price(delta float64) float64 { return f.ratio * (delta + f.sd) }

func (f *skyFold) rejects(pickup, price float64) bool {
	return pickup > f.maxPickup || f.sky.IsDominated(pickup, price) || f.sky.ContainsPoint(pickup, price)
}

func (f *skyFold) Rejects(pickupLB, deltaLB float64) bool {
	if f.rejects(pickupLB, f.price(deltaLB)) {
		f.rejected++
		return true
	}
	return false
}

// fold merges one vehicle's candidates, with the stop sequence behind
// each, in the order the quote returned them and reports how many it
// kept.
func (f *skyFold) fold(vehicle int, cands []kinetic.Candidate, seqs [][]kinetic.Point) int {
	kept := 0
	for i, c := range cands {
		p := f.price(c.Delta)
		if f.rejects(c.PickupDist, p) {
			continue
		}
		f.sky.Add(c.PickupDist, p, foldEntry{vehicle, fmt.Sprint(seqs[i]), c.Delta})
		kept++
	}
	return kept
}

// TestBoundedQuoteFoldsLikeUnbounded: a quote bounded by the skyline it
// is folded into leaves that skyline exactly as the unbounded quote
// does. Each case is one to three vehicles of 0–3 committed requests
// (some picked up) on a lattice, one quoted request, seeded or not, and
// a skyline pre-filled near the vehicles' own candidates — on them, a
// little above and a little below — so the bound decides at the margin.
// The vehicles are quoted in turn, each folded into one copy of the
// skyline with the bound and into the other without; entries and
// payloads must be identical after every vehicle.
func TestBoundedQuoteFoldsLikeUnbounded(t *testing.T) {
	cases, rejected, kept := 0, 0, 0
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(5000 + seed))
		g := testnet.Lattice(rng, 5, 5, 100)
		oracle := testnet.NewOracle(g)
		metric := oracleMetric{o: oracle, lbFrac: 0.9}
		vertex := func() roadnet.VertexID { return roadnet.VertexID(rng.Intn(g.NumVertices())) }
		request := func(id int) (kinetic.Request, bool) {
			s, d := vertex(), vertex()
			sd := oracle.Dist(s, d)
			return kinetic.Request{
				ID: kinetic.RequestID(id), S: s, D: d, Riders: 1 + rng.Intn(2), SD: sd,
				ServiceLimit: (1.2 + 1.8*rng.Float64()) * sd, WaitBudget: 400 * rng.Float64(),
			}, s != d
		}

		trees := make([]*kinetic.Tree, 1+rng.Intn(3))
		for i := range trees {
			tr := kinetic.New(metric, 4, 8, vertex(), 0)
			for id, n := 1, rng.Intn(4); id <= n; id++ {
				req, ok := request(10*i + id)
				if !ok {
					continue
				}
				if cands := tr.Quote(req); len(cands) > 0 {
					if err := tr.Commit(req, cands[rng.Intn(len(cands))]); err != nil {
						t.Fatalf("seed %d: commit: %v", seed, err)
					}
				}
			}
			if next, ok := tr.BestStop(0); ok && rng.Intn(2) == 0 {
				tr.SetRoot(next.Loc, tr.Odometer()+oracle.Dist(tr.Root(), next.Loc))
				if err := tr.Pickup(next.Req); err != nil {
					t.Fatalf("seed %d: pickup: %v", seed, err)
				}
			}
			trees[i] = tr
		}
		req, ok := request(99)
		if !ok {
			continue
		}
		seedFor := func(tr *kinetic.Tree) *kinetic.QuoteSeed {
			if rng.Intn(2) == 0 {
				return nil
			}
			s := &kinetic.QuoteSeed{Locs: tr.AppendPointLocs(nil)}
			for _, loc := range s.Locs {
				s.SDist = append(s.SDist, oracle.Dist(loc, req.S))
				s.DDist = append(s.DDist, oracle.Dist(loc, req.D))
			}
			return s
		}

		bounded := &skyFold{ratio: 0.5 + 1.5*rng.Float64(), sd: req.SD, maxPickup: math.Inf(1)}
		if rng.Intn(3) == 0 {
			bounded.maxPickup = 600 * rng.Float64()
		}
		plain := &skyFold{ratio: bounded.ratio, sd: bounded.sd, maxPickup: bounded.maxPickup}
		for _, tr := range trees {
			cands := tr.AppendQuote(nil, req, nil, nil)
			for _, c := range cands {
				if rng.Intn(3) != 0 {
					continue
				}
				// Metres off the candidate, in either term.
				off := []float64{0, 0, 0.5, -0.5, 3, -3, 40}
				pickup := c.PickupDist + off[rng.Intn(len(off))]
				price := bounded.price(c.Delta + off[rng.Intn(len(off))])
				bounded.sky.Add(pickup, price, foldEntry{vehicle: -1})
				plain.sky.Add(pickup, price, foldEntry{vehicle: -1})
			}
		}

		cases++
		for i, tr := range trees {
			qs := seedFor(tr)
			bc, bp := tr.QuoteSeqs(req, qs, bounded)
			pc, pp := tr.QuoteSeqs(req, qs, nil)
			kept += bounded.fold(i, bc, bp)
			plain.fold(i, pc, pp)
			if got, want := bounded.sky.Sorted(), plain.sky.Sorted(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, vehicle %d: bounded fold\n%v\nunbounded fold\n%v", seed, i, got, want)
			}
		}
		rejected += bounded.rejected
	}
	t.Logf("%d cases, %d bound rejections, %d candidates kept", cases, rejected, kept)
	if rejected < 3000 || kept < 1000 {
		t.Fatalf("%d cases made %d bound rejections and kept %d candidates; the generator no longer exercises the bound", cases, rejected, kept)
	}
}
