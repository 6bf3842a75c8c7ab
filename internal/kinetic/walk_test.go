package kinetic_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
	"ptrider/internal/testnet"
)

// warmTree returns a tree on a 6×6 lattice holding three committed
// requests with budgets loose enough that any root keeps it valid, and
// a fourth request to quote against it.
func warmTree(t *testing.T) (*kinetic.Tree, kinetic.Request) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g := testnet.Lattice(rng, 6, 6, 100)
	oracle := testnet.NewOracle(g)
	tr := kinetic.New(oracleMetric{o: oracle, lbFrac: 0.9}, 4, 8, 0, 0)
	mk := func(id int, s, d roadnet.VertexID) kinetic.Request {
		sd := oracle.Dist(s, d)
		return kinetic.Request{ID: kinetic.RequestID(id), S: s, D: d, Riders: 1, SD: sd, ServiceLimit: 1e9, WaitBudget: 1e9}
	}
	for i, sd := range [][2]roadnet.VertexID{{3, 20}, {8, 31}, {14, 35}} {
		req := mk(i+1, sd[0], sd[1])
		if err := tr.Commit(req, tr.Quote(req)[0]); err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	return tr, mk(4, 10, 27)
}

// TestRebuildAllocatesNothing: re-enumerating a warm tree after the
// root moved reuses a parked workspace and allocates nothing.
func TestRebuildAllocatesNothing(t *testing.T) {
	tr, _ := warmTree(t)
	odo := 0.0
	move := func() {
		odo += 100
		tr.SetRoot(roadnet.VertexID(int(odo/100)%36), odo)
		if tr.BestDist() <= 0 {
			t.Fatal("rebuild found no schedule")
		}
	}
	move()
	if n := testing.AllocsPerRun(50, move); n != 0 {
		t.Fatalf("SetRoot + BestDist allocates %v per run, want 0", n)
	}
}

// TestAppendQuoteAllocatesNothing: a probe into caller buffers on a
// warm tree allocates nothing, candidates included.
func TestAppendQuoteAllocatesNothing(t *testing.T) {
	tr, req := warmTree(t)
	var cands []kinetic.Candidate
	quote := func() {
		cands = tr.AppendQuote(cands[:0], req, nil, nil)
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
	}
	quote()
	if n := testing.AllocsPerRun(50, quote); n != 0 {
		t.Fatalf("AppendQuote allocates %v per run, want 0", n)
	}
}

// randomTrees calls fn on seeded trees of 1–4 requests on a lattice:
// tight and loose budgets, stops that repeat earlier stops' locations
// (which makes orderings tie exactly), checked after every commit and
// again after each of the few stops the vehicle then serves, while
// requests remain.
func randomTrees(t *testing.T, n int, fn func(t *testing.T, tr *kinetic.Tree, oracle *testnet.Oracle, rng *rand.Rand)) {
	for seed := int64(0); seed < int64(n); seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		g := testnet.Lattice(rng, 5, 5, 100)
		oracle := testnet.NewOracle(g)
		vertex := func() roadnet.VertexID { return roadnet.VertexID(rng.Intn(g.NumVertices())) }
		tr := kinetic.New(oracleMetric{o: oracle, lbFrac: 0.9}, 4, 8, vertex(), 0)

		var used []roadnet.VertexID
		pick := func() roadnet.VertexID {
			if len(used) > 0 && rng.Intn(2) == 0 {
				return used[rng.Intn(len(used))]
			}
			return vertex()
		}
		want := 1 + rng.Intn(4)
		for id := 1; id <= want; id++ {
			s, d := pick(), pick()
			if s == d {
				continue
			}
			sd := oracle.Dist(s, d)
			req := kinetic.Request{ID: kinetic.RequestID(id), S: s, D: d, Riders: 1 + rng.Intn(2), SD: sd}
			if rng.Intn(2) == 0 {
				req.ServiceLimit, req.WaitBudget = 1.05*sd, rng.Float64()*50
			} else {
				req.ServiceLimit, req.WaitBudget = 3*sd, 1e6
			}
			cands := tr.Quote(req)
			if len(cands) == 0 {
				continue
			}
			if err := tr.Commit(req, cands[rng.Intn(len(cands))]); err != nil {
				t.Fatalf("seed %d: commit %d: %v", seed, id, err)
			}
			used = append(used, s, d)
			fn(t, tr, oracle, rng)
		}
		for served := rng.Intn(3); served > 0 && !tr.Empty(); served-- {
			next := tr.BestBranch()[0]
			tr.SetRoot(next.Loc, tr.Odometer()+oracle.Dist(tr.Root(), next.Loc))
			var err error
			if next.Kind == kinetic.Pickup {
				err = tr.Pickup(next.Req)
			} else {
				err = tr.Dropoff(next.Req)
			}
			if err != nil {
				t.Fatalf("seed %d: serve %+v: %v", seed, next, err)
			}
			if !tr.Empty() {
				fn(t, tr, oracle, rng)
			}
		}
	}
}

// TestStoredResultsMatchBranches pins what the tree keeps from its
// enumeration against the full schedule set: the best schedule is the
// first strictly shortest one in enumeration order (the tie-break every
// loaded vehicle drives by), the branch count and longest leg are those
// of the set.
func TestStoredResultsMatchBranches(t *testing.T) {
	ties := 0
	randomTrees(t, 240, func(t *testing.T, tr *kinetic.Tree, oracle *testnet.Oracle, _ *rand.Rand) {
		branches := tr.Branches()
		if tr.NumBranches() != len(branches) || len(branches) == 0 {
			t.Fatalf("NumBranches %d, Branches %d", tr.NumBranches(), len(branches))
		}
		// Totals and legs are recomputed with the walk's own arithmetic
		// (running sum, leg as a difference of sums), so they compare
		// exactly.
		var best []kinetic.Point
		bestTotal, maxLeg, minimal := 0.0, 0.0, 0
		for _, seq := range branches {
			total, cur := 0.0, tr.Root()
			for _, p := range seq {
				nd := total + oracle.Dist(cur, p.Loc)
				if leg := nd - total; leg > maxLeg {
					maxLeg = leg
				}
				total, cur = nd, p.Loc
			}
			switch {
			case best == nil || total < bestTotal:
				best, bestTotal, minimal = seq, total, 1
			case total == bestTotal:
				minimal++
			}
		}
		if minimal > 1 {
			ties++
		}
		if got := tr.BestBranch(); !reflect.DeepEqual(got, best) {
			t.Fatalf("BestBranch %v, first minimal of Branches %v", got, best)
		}
		if tr.BestDist() != bestTotal {
			t.Fatalf("BestDist %v, want %v", tr.BestDist(), bestTotal)
		}
		if tr.MaxLeg() != maxLeg {
			t.Fatalf("MaxLeg %v, recomputed %v", tr.MaxLeg(), maxLeg)
		}
	})
	if ties < 20 {
		t.Fatalf("only %d tree states had an exact tie for the shortest schedule; the generator no longer forces them", ties)
	}
}

// TestQuoteCommitAgreement: every quoted candidate commits to a tree
// whose schedules include the candidate's; the committed tree's best
// distance never beats the cheapest quote, never exceeds the committed
// one, and is the cheapest quote itself when that is what was committed
// (committing a dearer candidate anchors an earlier pickup deadline,
// which a tight waiting budget lets rule the cheapest schedule out).
func TestQuoteCommitAgreement(t *testing.T) {
	randomTrees(t, 60, func(t *testing.T, tr *kinetic.Tree, oracle *testnet.Oracle, rng *rand.Rand) {
		if tr.NumRequests() == 4 {
			return
		}
		s, d := roadnet.VertexID(rng.Intn(25)), roadnet.VertexID(rng.Intn(25))
		if s == d {
			return
		}
		sd := oracle.Dist(s, d)
		req := kinetic.Request{ID: 99, S: s, D: d, Riders: 1, SD: sd, ServiceLimit: 2 * sd, WaitBudget: rng.Float64() * 200}
		cands, seqs := tr.QuoteSeqs(req, nil, nil)
		if len(cands) == 0 {
			return
		}
		base := tr.BestDist()
		cheapest := base + cands[0].Delta
		for _, c := range cands {
			cheapest = min(cheapest, base+c.Delta)
		}
		for i, c := range cands {
			total := base + c.Delta
			cp := kinetic.Restore(oracleMetric{o: oracle, lbFrac: 0.9}, 4, 8, tr.Root(), tr.Odometer(), tr.SnapshotReqs())
			if err := cp.Commit(req, c); err != nil {
				t.Fatalf("commit of quoted candidate %+v: %v", c, err)
			}
			found := false
			for _, seq := range cp.Branches() {
				found = found || reflect.DeepEqual(seq, seqs[i])
			}
			if !found {
				t.Fatalf("committed tree lacks the quoted schedule %v", seqs[i])
			}
			if bd := cp.BestDist(); bd < cheapest || bd > total || (total == cheapest && bd != cheapest) {
				t.Fatalf("BestDist %v after committing total %v; cheapest quote %v", bd, total, cheapest)
			}
		}
	})
}

// scriptDriver runs a seeded script of reads, quotes and commits on one
// tree and logs each step's results. Floats print in their shortest
// round-trip form, so equal logs are equal bit for bit.
type scriptDriver struct {
	tr     *kinetic.Tree
	oracle *testnet.Oracle
	rng    *rand.Rand
	nextID kinetic.RequestID
	req    kinetic.Request // the last request quoted
	cands  []kinetic.Candidate
}

func (d *scriptDriver) step() string {
	const nv = 25 // randomTrees' 5×5 lattice
	tr := d.tr
	switch d.rng.Intn(6) {
	case 0:
		v := roadnet.VertexID(d.rng.Intn(nv))
		tr.SetRoot(v, tr.Odometer()+d.oracle.Dist(tr.Root(), v))
		return fmt.Sprint("root ", v)
	case 1:
		return fmt.Sprint("best ", tr.BestDist())
	case 2:
		return fmt.Sprint("maxleg ", tr.MaxLeg())
	case 3:
		return fmt.Sprint("branch ", tr.BestBranch())
	case 4:
		s := roadnet.VertexID(d.rng.Intn(nv))
		dst := (s + 1 + roadnet.VertexID(d.rng.Intn(nv-1))) % nv
		sd := d.oracle.Dist(s, dst)
		d.nextID++
		d.req = kinetic.Request{ID: 100 + d.nextID, S: s, D: dst, Riders: 1, SD: sd, ServiceLimit: 2 * sd, WaitBudget: d.rng.Float64() * 300}
		d.cands = tr.AppendQuote(d.cands[:0], d.req, nil, nil)
		return fmt.Sprint("quote ", d.cands)
	default:
		if len(d.cands) == 0 {
			return "nothing to commit"
		}
		c := d.cands[d.rng.Intn(len(d.cands))]
		d.cands = d.cands[:0]
		return fmt.Sprint("commit ", tr.Commit(d.req, c), tr.NumRequests())
	}
}

// TestWorkspaceSharedAcrossTrees: trees borrow their enumeration
// workspaces from one free list, so a walk must see nothing of another
// tree's walk, before or beside it. Every tree state randomTrees
// reaches is restored twice; one copy runs a seeded script alone, the
// other the same script while four goroutines interleave their trees'
// scripts step by step. The logs must match. Each goroutine also checks
// that what a tree's AppendQuote returned is unchanged after the quotes
// on other trees that followed it.
func TestWorkspaceSharedAcrossTrees(t *testing.T) {
	const workers, steps = 4, 24
	var alone, shared []*scriptDriver
	randomTrees(t, 40, func(t *testing.T, tr *kinetic.Tree, oracle *testnet.Oracle, _ *rand.Rand) {
		seed := int64(len(alone))
		for _, ds := range []*[]*scriptDriver{&alone, &shared} {
			cp := kinetic.Restore(oracleMetric{o: oracle, lbFrac: 0.9}, 4, 8, tr.Root(), tr.Odometer(), tr.SnapshotReqs())
			*ds = append(*ds, &scriptDriver{tr: cp, oracle: oracle, rng: rand.New(rand.NewSource(seed))})
		}
	})

	want := make([][]string, len(alone))
	quotes := 0
	for i, d := range alone {
		for s := 0; s < steps; s++ {
			want[i] = append(want[i], d.step())
			quotes += len(d.cands)
		}
	}
	if quotes < 100 {
		t.Fatalf("the scripts quoted only %d candidates; they no longer exercise AppendQuote", quotes)
	}

	got := make([][]string, len(shared))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int
			for i := w; i < len(shared); i += workers {
				mine = append(mine, i)
			}
			// What each tree's last step left in its quote buffers.
			quoted := func(d *scriptDriver) string { return fmt.Sprint(d.cands) }
			kept := make(map[int]string, len(mine))
			for _, i := range mine {
				kept[i] = quoted(shared[i])
			}
			for s := 0; s < steps; s++ {
				for _, i := range mine {
					got[i] = append(got[i], shared[i].step())
					kept[i] = quoted(shared[i])
					for _, j := range mine {
						if now := quoted(shared[j]); now != kept[j] {
							t.Errorf("tree %d's quote changed from %v to %v after a step on tree %d", j, kept[j], now, i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("tree %d: shared-workspace log\n%v\nalone\n%v", i, got[i], want[i])
		}
	}
}
