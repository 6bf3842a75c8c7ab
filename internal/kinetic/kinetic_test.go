package kinetic_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/skyline"
	"ptrider/internal/testnet"
)

// oracleMetric backs the tree with Floyd–Warshall distances; LB returns
// lbFrac·dist, exercising the lower-bound pruning path without changing
// results.
type oracleMetric struct {
	o      *testnet.Oracle
	lbFrac float64
}

func (m oracleMetric) Dist(u, v roadnet.VertexID) float64 { return m.o.Dist(u, v) }
func (m oracleMetric) LB(u, v roadnet.VertexID) float64   { return m.lbFrac * m.o.Dist(u, v) }

// ---------------------------------------------------------------------------
// Brute-force reference model: an independent re-implementation of
// Definition 2's validity conditions by naive permutation enumeration.

type bfReq struct {
	req             kinetic.Request
	pickupDeadline  float64 // absolute odometer
	dropoffDeadline float64 // absolute odometer; meaningful when onboard
	onboard         bool
}

type bfVehicle struct {
	cap  int
	loc  roadnet.VertexID
	odo  float64
	dist func(u, v roadnet.VertexID) float64
	reqs []*bfReq
}

// validSequences enumerates every permutation of the pending points and
// keeps the valid ones.
func (b *bfVehicle) validSequences(extra ...*bfReq) [][]kinetic.Point {
	all := append(append([]*bfReq(nil), b.reqs...), extra...)
	var pts []kinetic.Point
	reqOf := map[int]*bfReq{}
	for _, r := range all {
		if !r.onboard {
			reqOf[len(pts)] = r
			pts = append(pts, kinetic.Point{Loc: r.req.S, Kind: kinetic.Pickup, Req: r.req.ID})
		}
		reqOf[len(pts)] = r
		pts = append(pts, kinetic.Point{Loc: r.req.D, Kind: kinetic.Dropoff, Req: r.req.ID})
	}
	var out [][]kinetic.Point
	perm := make([]int, len(pts))
	for i := range perm {
		perm[i] = i
	}
	var permute func(k int)
	permute = func(k int) {
		if k == len(perm) {
			if seq := b.checkSeq(pts, reqOf, perm); seq != nil {
				out = append(out, seq)
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	permute(0)
	return out
}

func (b *bfVehicle) checkSeq(pts []kinetic.Point, reqOf map[int]*bfReq, perm []int) []kinetic.Point {
	occ := 0
	for _, r := range b.reqs {
		if r.onboard {
			occ += r.req.Riders
		}
	}
	cur := b.loc
	dist := 0.0
	picked := map[kinetic.RequestID]float64{}
	var seq []kinetic.Point
	for _, pi := range perm {
		p := pts[pi]
		r := reqOf[pi]
		dist += b.dist(cur, p.Loc)
		cur = p.Loc
		if p.Kind == kinetic.Pickup {
			occ += r.req.Riders
			if occ > b.cap {
				return nil
			}
			if dist > r.pickupDeadline-b.odo {
				return nil
			}
			picked[r.req.ID] = dist
		} else {
			if r.onboard {
				if dist > r.dropoffDeadline-b.odo {
					return nil
				}
			} else {
				pd, ok := picked[r.req.ID]
				if !ok {
					return nil
				}
				if dist-pd > r.req.ServiceLimit {
					return nil
				}
			}
			occ -= r.req.Riders
		}
		seq = append(seq, p)
	}
	return seq
}

func (b *bfVehicle) bestDist() float64 {
	best := math.Inf(1)
	for _, seq := range b.validSequences() {
		if d := b.seqDist(seq); d < best {
			best = d
		}
	}
	if len(b.reqs) == 0 {
		return 0
	}
	return best
}

func (b *bfVehicle) seqDist(seq []kinetic.Point) float64 {
	cur, d := b.loc, 0.0
	for _, p := range seq {
		d += b.dist(cur, p.Loc)
		cur = p.Loc
	}
	return d
}

// quote mirrors Tree.Quote: skyline over (pickup distance, delta).
func (b *bfVehicle) quote(req kinetic.Request) map[[2]float64]bool {
	base := b.bestDist()
	nr := &bfReq{req: req, pickupDeadline: math.Inf(1)}
	var sky skyline.Skyline[struct{}]
	for _, seq := range b.validSequences(nr) {
		cur, d := b.loc, 0.0
		pickup := math.NaN()
		for _, p := range seq {
			d += b.dist(cur, p.Loc)
			cur = p.Loc
			if p.Req == req.ID && p.Kind == kinetic.Pickup {
				pickup = d
			}
		}
		sky.Add(pickup, d-base, struct{}{})
	}
	out := map[[2]float64]bool{}
	for _, e := range sky.Sorted() {
		out[[2]float64{e.Time, e.Price}] = true
	}
	return out
}

func seqKey(seq []kinetic.Point) string {
	s := ""
	for _, p := range seq {
		s += fmt.Sprintf("%d%s@%d;", p.Req, p.Kind, p.Loc)
	}
	return s
}

func sortedKeys(seqs [][]kinetic.Point) []string {
	out := make([]string, len(seqs))
	for i, s := range seqs {
		out[i] = seqKey(s)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------

func paperSetup(t *testing.T, lbFrac float64) (oracleMetric, func(k int) roadnet.VertexID) {
	t.Helper()
	g := testnet.PaperNetwork()
	return oracleMetric{o: testnet.NewOracle(g), lbFrac: lbFrac},
		func(k int) roadnet.VertexID { return roadnet.VertexID(k - 1) }
}

func TestEmptyTree(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 4, 8, v(1), 0)
	if !tr.Empty() || tr.BestDist() != 0 || tr.NumBranches() != 1 {
		t.Fatalf("empty tree state: empty=%v best=%v branches=%d", tr.Empty(), tr.BestDist(), tr.NumBranches())
	}
	if tr.BestBranch() != nil || tr.Branches() != nil {
		t.Fatal("empty tree should have no stops")
	}
	if tr.Onboard() != 0 {
		t.Fatal("empty tree has riders")
	}
}

func TestQuoteEmptyVehicle(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 4, 8, v(13), 0)
	r2 := kinetic.Request{ID: 2, S: v(12), D: v(17), Riders: 2, SD: 7, ServiceLimit: 8.4, WaitBudget: 5}
	cands := tr.Quote(r2)
	if len(cands) != 1 {
		t.Fatalf("empty-vehicle quote returned %d candidates, want 1", len(cands))
	}
	c := cands[0]
	if c.PickupDist != 8 || c.Delta != 15 || c.TotalDist != 15 {
		t.Fatalf("candidate = %+v, want pickup 8, delta 15", c)
	}
	if len(c.Seq) != 2 || c.Seq[0].Kind != kinetic.Pickup || c.Seq[1].Kind != kinetic.Dropoff {
		t.Fatalf("candidate sequence = %+v", c.Seq)
	}
}

// TestPaperExampleC1 reproduces the §2.4/§2.5 worked example on the c1
// side: after committing R1 = ⟨v2, v16, 2, 5, 0.2⟩, quoting
// R2 = ⟨v12, v17, 2, 5, 0.2⟩ must yield exactly the non-dominated
// candidate with pick-up distance 14 and detour delta 3.
func TestPaperExampleC1(t *testing.T) {
	for _, lbFrac := range []float64{0, 0.9, 1} {
		m, v := paperSetup(t, lbFrac)
		tr := kinetic.New(m, 4, 8, v(1), 0)
		r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 5}
		c1 := tr.Quote(r1)
		if len(c1) != 1 || c1[0].PickupDist != 6 || c1[0].TotalDist != 18 {
			t.Fatalf("lbFrac=%v: R1 quote = %+v, want pickup 6 total 18", lbFrac, c1)
		}
		if err := tr.Commit(r1, c1[0]); err != nil {
			t.Fatalf("commit R1: %v", err)
		}
		if tr.BestDist() != 18 || tr.NumBranches() != 1 {
			t.Fatalf("after R1: best=%v branches=%d", tr.BestDist(), tr.NumBranches())
		}

		r2 := kinetic.Request{ID: 2, S: v(12), D: v(17), Riders: 2, SD: 7, ServiceLimit: 8.4, WaitBudget: 5}
		c2 := tr.Quote(r2)
		if len(c2) != 1 {
			t.Fatalf("lbFrac=%v: R2 quote = %+v, want exactly one non-dominated candidate", lbFrac, c2)
		}
		if c2[0].PickupDist != 14 || c2[0].Delta != 3 {
			t.Fatalf("lbFrac=%v: R2 candidate = %+v, want pickup 14 delta 3", lbFrac, c2[0])
		}
		wantSeq := []roadnet.VertexID{v(2), v(12), v(16), v(17)}
		for i, p := range c2[0].Seq {
			if p.Loc != wantSeq[i] {
				t.Fatalf("R2 planned schedule = %+v, want stops %v", c2[0].Seq, wantSeq)
			}
		}
	}
}

func TestCommitAndLifecycle(t *testing.T) {
	m, v := paperSetup(t, 0.9)
	tr := kinetic.New(m, 4, 8, v(1), 0)
	r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 5}
	cands := tr.Quote(r1)
	if err := tr.Commit(r1, cands[0]); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if tr.Empty() || tr.NumRequests() != 1 || tr.Onboard() != 0 {
		t.Fatal("post-commit state wrong")
	}
	if onboard, pending := tr.IsOnboard(1); onboard || !pending {
		t.Fatal("IsOnboard before pickup wrong")
	}
	if planned, ok := tr.PlannedPickupOdo(1); !ok || planned != 6 {
		t.Fatalf("PlannedPickupOdo = %v, %v", planned, ok)
	}

	// Drive to the pickup: v1 → v2 is distance 6.
	tr.SetRoot(v(2), 6)
	if err := tr.Pickup(1); err != nil {
		t.Fatalf("pickup: %v", err)
	}
	if onboard, _ := tr.IsOnboard(1); !onboard {
		t.Fatal("rider should be onboard")
	}
	if tr.Onboard() != 2 {
		t.Fatalf("Onboard = %d, want 2", tr.Onboard())
	}
	// One pending point remains: the dropoff.
	if bb := tr.BestBranch(); len(bb) != 1 || bb[0].Kind != kinetic.Dropoff {
		t.Fatalf("BestBranch = %+v", bb)
	}

	// Drive to the dropoff: v2 → v16 is distance 12.
	tr.SetRoot(v(16), 18)
	if err := tr.Dropoff(1); err != nil {
		t.Fatalf("dropoff: %v", err)
	}
	if !tr.Empty() || tr.Onboard() != 0 {
		t.Fatal("tree should be empty after dropoff")
	}
}

func TestPickupErrors(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 4, 8, v(1), 0)
	r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 5}
	tr.Commit(r1, tr.Quote(r1)[0])

	if err := tr.Pickup(99); err == nil {
		t.Error("pickup of unknown request should fail")
	}
	if err := tr.Pickup(1); err == nil {
		t.Error("pickup away from the start vertex should fail")
	}
	if err := tr.Dropoff(1); err == nil {
		t.Error("dropoff before pickup should fail")
	}
	// Arrive past the waiting deadline: planned 6 + wait 5 = 11.
	tr.SetRoot(v(2), 30)
	if err := tr.Pickup(1); err == nil {
		t.Error("pickup past the waiting deadline should fail")
	}
}

func TestWaitingDeadlinePrunesBranches(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 4, 8, v(1), 0)
	r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 5}
	tr.Commit(r1, tr.Quote(r1)[0])
	// Move without approaching the pickup: odometer 20 > deadline 11,
	// so no valid schedule can reach v2 in time.
	tr.SetRoot(v(13), 20)
	if tr.NumBranches() != 0 {
		t.Fatalf("branches = %d, want 0 after blowing the deadline", tr.NumBranches())
	}
	if tr.Quote(kinetic.Request{ID: 2, S: v(12), D: v(17), Riders: 1, SD: 7, ServiceLimit: 8.4}) != nil {
		t.Fatal("quote should refuse a vehicle with no valid schedule")
	}
}

func TestCapacityBlocksOverlap(t *testing.T) {
	g := testnet.Line(10, 1) // vertices 0..9, unit edges
	m := oracleMetric{o: testnet.NewOracle(g), lbFrac: 1}
	tr := kinetic.New(m, 2, 8, 0, 0)
	// Two 2-rider requests with generous budgets travelling 1→8 and 2→7:
	// with capacity 2 they can never be onboard together.
	r1 := kinetic.Request{ID: 1, S: 1, D: 8, Riders: 2, SD: 7, ServiceLimit: 70, WaitBudget: 100}
	tr.Commit(r1, tr.Quote(r1)[0])
	cands := tr.Quote(kinetic.Request{ID: 2, S: 2, D: 7, Riders: 2, SD: 5, ServiceLimit: 50, WaitBudget: 100})
	for _, c := range cands {
		picked := false
		for _, p := range c.Seq {
			if p.Req == 1 && p.Kind == kinetic.Pickup {
				picked = true
			}
			if p.Req == 1 && p.Kind == kinetic.Dropoff {
				picked = false
			}
			if p.Req == 2 && p.Kind == kinetic.Pickup && picked {
				t.Fatalf("capacity violated in candidate %+v", c.Seq)
			}
		}
	}
	if len(cands) == 0 {
		t.Fatal("sequential service should still be possible")
	}
}

func TestQuoteRespectsPointCap(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 8, 4, v(1), 0) // max 4 points = 2 requests
	r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 1, SD: 12, ServiceLimit: 100, WaitBudget: 100}
	tr.Commit(r1, tr.Quote(r1)[0])
	r2 := kinetic.Request{ID: 2, S: v(12), D: v(17), Riders: 1, SD: 7, ServiceLimit: 100, WaitBudget: 100}
	if tr.Quote(r2) == nil {
		t.Fatal("second request should fit")
	}
	tr.Commit(r2, tr.Quote(r2)[0])
	r3 := kinetic.Request{ID: 3, S: v(13), D: v(12), Riders: 1, SD: 8, ServiceLimit: 100, WaitBudget: 100}
	if tr.Quote(r3) != nil {
		t.Fatal("third request should be refused by the point cap")
	}
}

func TestCommitDuplicateAndStale(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 4, 8, v(1), 0)
	r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 5}
	c := tr.Quote(r1)[0]
	if err := tr.Commit(r1, c); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := tr.Commit(r1, c); err == nil {
		t.Fatal("duplicate commit should fail")
	}

	// Stale candidate: quote, then move the vehicle far away before
	// committing. The pickup deadline anchored at the *new* odometer
	// cannot be met because the planned pickup distance is stale.
	tr2 := kinetic.New(m, 4, 8, v(1), 0)
	r2 := kinetic.Request{ID: 2, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 0}
	cand := tr2.Quote(r2)[0]
	tr2.SetRoot(v(17), 50) // now dist(v17,v2) = 15 > planned 6 + wait 0
	if err := tr2.Commit(r2, cand); err == nil {
		t.Fatal("stale candidate should be rejected")
	}
	if !tr2.Empty() {
		t.Fatal("failed commit must roll back")
	}
}

func TestCancel(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 4, 8, v(1), 0)
	r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 5}
	tr.Commit(r1, tr.Quote(r1)[0])
	if err := tr.Cancel(1); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if !tr.Empty() {
		t.Fatal("cancel should empty the tree")
	}
	if err := tr.Cancel(1); err == nil {
		t.Fatal("double cancel should fail")
	}
}

func TestSetRootMonotonicOdometer(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 4, 8, v(1), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("odometer regression should panic")
		}
	}()
	tr.SetRoot(v(2), 5)
}

func TestLocations(t *testing.T) {
	m, v := paperSetup(t, 0)
	tr := kinetic.New(m, 4, 8, v(1), 0)
	r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 5}
	tr.Commit(r1, tr.Quote(r1)[0])
	locs := tr.AppendLocations(nil)
	want := map[roadnet.VertexID]bool{v(1): true, v(2): true, v(16): true}
	if len(locs) != len(want) {
		t.Fatalf("Locations = %v", locs)
	}
	for _, l := range locs {
		if !want[l] {
			t.Fatalf("unexpected location %d", l)
		}
	}
}

// TestRandomisedAgainstBruteForce drives a tree through random
// commit/move/pickup/dropoff operations and checks the full branch set
// and quote skyline against the naive permutation model after each
// step.
func TestRandomisedAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := testnet.Lattice(rng, 6, 6, 100)
			oracle := testnet.NewOracle(g)
			m := oracleMetric{o: oracle, lbFrac: 0.9}
			s := roadnet.NewSearcher(g)

			const cap = 3
			start := roadnet.VertexID(rng.Intn(g.NumVertices()))
			tr := kinetic.New(m, cap, 6, start, 0)
			bf := &bfVehicle{cap: cap, loc: start, dist: oracle.Dist}
			nextID := kinetic.RequestID(1)

			check := func(step string) {
				t.Helper()
				got := sortedKeys(tr.Branches())
				want := sortedKeys(bf.validSequences())
				if len(got) != len(want) {
					t.Fatalf("%s: %d branches, brute force %d\n got: %v\nwant: %v", step, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: branch mismatch\n got: %v\nwant: %v", step, got, want)
					}
				}
				if len(want) > 0 {
					if bd := bf.bestDist(); tr.BestDist() != bd {
						t.Fatalf("%s: BestDist %v, brute force %v", step, tr.BestDist(), bd)
					}
				}
			}

			for step := 0; step < 40; step++ {
				switch op := rng.Intn(3); {
				case op == 0 && tr.NumRequests() < 3:
					// New request.
					sv := roadnet.VertexID(rng.Intn(g.NumVertices()))
					dv := roadnet.VertexID(rng.Intn(g.NumVertices()))
					if sv == dv {
						continue
					}
					sd := oracle.Dist(sv, dv)
					req := kinetic.Request{
						ID: nextID, S: sv, D: dv,
						Riders:       1 + rng.Intn(2),
						SD:           sd,
						ServiceLimit: (1 + 0.2 + rng.Float64()) * sd,
						WaitBudget:   100 + rng.Float64()*400,
					}
					cands := tr.Quote(req)
					wantQuote := bf.quote(req)
					if len(cands) != len(wantQuote) {
						t.Fatalf("step %d: quote size %d, brute force %d: %+v vs %v", step, len(cands), len(wantQuote), cands, wantQuote)
					}
					for _, c := range cands {
						if !wantQuote[[2]float64{c.PickupDist, c.Delta}] {
							t.Fatalf("step %d: quote candidate (%v,%v) not in brute force set %v", step, c.PickupDist, c.Delta, wantQuote)
						}
					}
					if len(cands) == 0 {
						continue
					}
					chosen := cands[rng.Intn(len(cands))]
					if err := tr.Commit(req, chosen); err != nil {
						t.Fatalf("step %d: commit: %v", step, err)
					}
					bf.reqs = append(bf.reqs, &bfReq{
						req:            req,
						pickupDeadline: bf.odo + chosen.PickupDist + req.WaitBudget,
					})
					nextID++
					check("commit")

				case op == 1:
					// Drive one hop along the best branch's shortest path,
					// or wander randomly when idle.
					var target roadnet.VertexID
					if bb := tr.BestBranch(); len(bb) > 0 {
						target = bb[0].Loc
					} else {
						target = roadnet.VertexID(rng.Intn(g.NumVertices()))
					}
					if target == tr.Root() {
						continue
					}
					path, _ := s.Path(tr.Root(), target)
					if len(path) < 2 {
						continue
					}
					w, _ := g.EdgeWeight(path[0], path[1])
					tr.SetRoot(path[1], tr.Odometer()+w)
					bf.loc = path[1]
					bf.odo += w
					check("move")

				case op == 2:
					// Arrive at the next stop of the best branch and serve it.
					bb := tr.BestBranch()
					if len(bb) == 0 {
						continue
					}
					next := bb[0]
					d := oracle.Dist(tr.Root(), next.Loc)
					tr.SetRoot(next.Loc, tr.Odometer()+d)
					bf.loc = next.Loc
					bf.odo += d
					if next.Kind == kinetic.Pickup {
						if err := tr.Pickup(next.Req); err != nil {
							t.Fatalf("step %d: pickup: %v", step, err)
						}
						for _, r := range bf.reqs {
							if r.req.ID == next.Req {
								r.onboard = true
								r.dropoffDeadline = bf.odo + r.req.ServiceLimit
							}
						}
					} else {
						if err := tr.Dropoff(next.Req); err != nil {
							t.Fatalf("step %d: dropoff: %v", step, err)
						}
						for i, r := range bf.reqs {
							if r.req.ID == next.Req {
								bf.reqs = append(bf.reqs[:i], bf.reqs[i+1:]...)
								break
							}
						}
					}
					check("serve")
				}
			}
		})
	}
}

// TestLBFracInvariance checks the ablation property: pruning with any
// valid lower bound must not change quote results.
func TestLBFracInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := testnet.Lattice(rng, 5, 5, 100)
	oracle := testnet.NewOracle(g)
	for trial := 0; trial < 20; trial++ {
		s := roadnet.VertexID(rng.Intn(g.NumVertices()))
		d := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if s == d {
			continue
		}
		root := roadnet.VertexID(rng.Intn(g.NumVertices()))
		req := kinetic.Request{ID: 1, S: s, D: d, Riders: 1, SD: oracle.Dist(s, d),
			ServiceLimit: 1.4 * oracle.Dist(s, d), WaitBudget: 300}
		var ref []kinetic.Candidate
		for i, frac := range []float64{0, 0.5, 1} {
			tr := kinetic.New(oracleMetric{o: oracle, lbFrac: frac}, 4, 8, root, 0)
			got := tr.Quote(req)
			if i == 0 {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("lbFrac %v changed candidate count: %d vs %d", frac, len(got), len(ref))
			}
			for j := range got {
				if got[j].PickupDist != ref[j].PickupDist || got[j].Delta != ref[j].Delta {
					t.Fatalf("lbFrac %v changed candidates: %+v vs %+v", frac, got[j], ref[j])
				}
			}
		}
	}
}

// TestQuoteCandidatesMutuallyNonDominated verifies Definition 4's
// dominance over every returned candidate pair.
func TestQuoteCandidatesMutuallyNonDominated(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	g := testnet.Lattice(rng, 5, 5, 100)
	oracle := testnet.NewOracle(g)
	m := oracleMetric{o: oracle, lbFrac: 1}
	tr := kinetic.New(m, 4, 8, 0, 0)
	r1 := kinetic.Request{ID: 1, S: 5, D: 20, Riders: 1, SD: oracle.Dist(5, 20),
		ServiceLimit: 2 * oracle.Dist(5, 20), WaitBudget: 1e6}
	tr.Commit(r1, tr.Quote(r1)[0])
	cands := tr.Quote(kinetic.Request{ID: 2, S: 7, D: 18, Riders: 1, SD: oracle.Dist(7, 18),
		ServiceLimit: 2 * oracle.Dist(7, 18), WaitBudget: 1e6})
	for i := range cands {
		for j := range cands {
			if i != j && skyline.Dominates(cands[i].PickupDist, cands[i].Delta, cands[j].PickupDist, cands[j].Delta) {
				t.Fatalf("candidate %d dominates %d: %+v vs %+v", i, j, cands[i], cands[j])
			}
		}
	}
}
