package kinetic_test

import (
	"math/rand"
	"testing"

	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// TestBudgetBoundaryExact: a schedule that consumes the waiting budget
// to the last metre stays valid; one metre more kills it. Pins the
// epsilon handling of the budget comparisons.
func TestBudgetBoundaryExact(t *testing.T) {
	g := testnet.Line(20, 100) // unit edges of 100 m
	m := oracleMetric{o: testnet.NewOracle(g), lbFrac: 1}
	tr := kinetic.New(m, 4, 8, 0, 0)
	// Pickup at vertex 5 (500 m), dropoff at 10; waiting budget 0: the
	// vehicle must drive straight there.
	req := kinetic.Request{ID: 1, S: 5, D: 10, Riders: 1, SD: 500, ServiceLimit: 500, WaitBudget: 0}
	cands := tr.Quote(req)
	if len(cands) != 1 || cands[0].PickupDist != 500 {
		t.Fatalf("quote = %+v", cands)
	}
	if err := tr.Commit(req, cands[0]); err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Move along the planned path: still exactly on budget.
	tr.SetRoot(3, 300)
	if tr.NumBranches() != 1 {
		t.Fatalf("branches after on-path move = %d", tr.NumBranches())
	}
	// One step off-path burns 100 m that the zero budget does not have.
	tr.SetRoot(2, 400)
	if tr.NumBranches() != 0 {
		t.Fatalf("branches after off-path move = %d, want 0", tr.NumBranches())
	}
}

// TestMaxLegUpperIsSound: after arbitrary on-graph movement without
// rebuild, MaxLegUpper must bound the freshly rebuilt MaxLeg.
func TestMaxLegUpperIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testnet.Lattice(rng, 6, 6, 100)
	oracle := testnet.NewOracle(g)
	m := oracleMetric{o: oracle, lbFrac: 1}
	s := roadnet.NewSearcher(g)

	for trial := 0; trial < 30; trial++ {
		start := roadnet.VertexID(rng.Intn(g.NumVertices()))
		tr := kinetic.New(m, 4, 8, start, 0)
		for added := 0; added < 2; {
			sv := roadnet.VertexID(rng.Intn(g.NumVertices()))
			dv := roadnet.VertexID(rng.Intn(g.NumVertices()))
			if sv == dv {
				continue
			}
			sd := oracle.Dist(sv, dv)
			req := kinetic.Request{ID: kinetic.RequestID(added + 1), S: sv, D: dv,
				Riders: 1, SD: sd, ServiceLimit: 2 * sd, WaitBudget: 1e6}
			cands := tr.Quote(req)
			if len(cands) == 0 {
				continue
			}
			if err := tr.Commit(req, cands[0]); err != nil {
				t.Fatalf("commit: %v", err)
			}
			added++
		}
		// Drift a few random edges (marking the tree dirty each time).
		loc := tr.Root()
		for hop := 0; hop < 4; hop++ {
			out := g.Out(loc)
			e := out[rng.Intn(len(out))]
			// Move along real edges so the odometer equals driven
			// distance, as the fleet guarantees.
			tr.SetRoot(e.To, tr.Odometer()+e.Weight)
			loc = e.To
			upper := tr.MaxLegUpper() // while dirty
			fresh := tr.MaxLeg()      // forces rebuild
			if fresh > upper {
				t.Fatalf("MaxLegUpper %v below true MaxLeg %v after movement", upper, fresh)
			}
		}
		_ = s
	}
}

// TestQuoteDoesNotMutate: quoting must leave the tree unchanged even
// when the candidate set is large.
func TestQuoteDoesNotMutate(t *testing.T) {
	m, v := paperSetup(t, 0.5)
	tr := kinetic.New(m, 4, 8, v(1), 0)
	r1 := kinetic.Request{ID: 1, S: v(2), D: v(16), Riders: 2, SD: 12, ServiceLimit: 14.4, WaitBudget: 5}
	tr.Commit(r1, tr.Quote(r1)[0])
	before := sortedKeys(tr.Branches())
	bestBefore := tr.BestDist()
	for i := 0; i < 5; i++ {
		tr.Quote(kinetic.Request{ID: 99, S: v(12), D: v(17), Riders: 2, SD: 7, ServiceLimit: 8.4, WaitBudget: 5})
	}
	after := sortedKeys(tr.Branches())
	if len(before) != len(after) {
		t.Fatalf("quote mutated branch count: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("quote mutated branches")
		}
	}
	if tr.BestDist() != bestBefore {
		t.Fatal("quote mutated best distance")
	}
}

// TestOnboardDropoffOnlyTree: once all pickups happen, the tree holds
// only dropoffs and the service deadlines drive feasibility.
func TestOnboardDropoffOnlyTree(t *testing.T) {
	g := testnet.Line(20, 100)
	m := oracleMetric{o: testnet.NewOracle(g), lbFrac: 1}
	tr := kinetic.New(m, 4, 8, 5, 0)
	r := kinetic.Request{ID: 1, S: 5, D: 15, Riders: 2, SD: 1000, ServiceLimit: 1200, WaitBudget: 0}
	if err := tr.Commit(r, tr.Quote(r)[0]); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := tr.Pickup(1); err != nil {
		t.Fatalf("pickup: %v", err)
	}
	if tr.Onboard() != 2 || tr.NumBranches() != 1 {
		t.Fatalf("state after pickup: onboard=%d branches=%d", tr.Onboard(), tr.NumBranches())
	}
	// Drive 2 edges off-route and back: 400 m of the 200 m slack burnt.
	tr.SetRoot(4, 100)
	tr.SetRoot(3, 200)
	if tr.NumBranches() != 0 {
		t.Fatal("service deadline should be violated after wasting 400 m")
	}
	// Dropoff attempts past the deadline fail loudly.
	tr.SetRoot(15, 200+1200)
	if err := tr.Dropoff(1); err == nil {
		t.Fatal("dropoff past service deadline accepted")
	}
}
