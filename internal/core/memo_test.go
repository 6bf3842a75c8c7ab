package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ptrider/internal/gen"
	"ptrider/internal/geo"
	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
)

// newCityMemo builds a memo over a generated w×h city.
func newCityMemo(t testing.TB, w, h int) *memoMetric {
	t.Helper()
	return newMemoMetric(cityGrid(t, w, h))
}

// cityGrid builds a generated w×h city's grid index and contraction
// hierarchy, what newMemoMetric reads.
func cityGrid(t testing.TB, w, h int) (*gridindex.Grid, *roadnet.Hierarchy) {
	t.Helper()
	g, err := gen.GenerateNetwork(gen.CityConfig{Width: w, Height: h, RemoveFrac: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return memoSubstrate(t, g, 8)
}

// memoSubstrate contracts g and builds its grid index over the
// hierarchy at cells×cells.
func memoSubstrate(t testing.TB, g *roadnet.Graph, cells int) (*gridindex.Grid, *roadnet.Hierarchy) {
	t.Helper()
	ch := roadnet.Contract(g)
	grid, err := gridindex.BuildOn(ch, gridindex.Config{Cols: cells, Rows: cells})
	if err != nil {
		t.Fatal(err)
	}
	return grid, ch
}

// exactTable is the reference every memo answer is held against:
// exact[u][v] is a fresh one-shot search from u, which is also what the
// memo's two fill paths (the hierarchy's Dist(u, v) and its sweep from
// u) compute.
func exactTable(g *roadnet.Graph) [][]float64 {
	s := roadnet.NewSearcher(g)
	n := g.NumVertices()
	exact := make([][]float64, n)
	for u := range exact {
		exact[u] = make([]float64, n)
		for v := range exact[u] {
			exact[u][v] = s.Dist(roadnet.VertexID(u), roadnet.VertexID(v))
		}
	}
	return exact
}

// checkMemo verifies the structure at rest: per row, the pair count
// and, hashed, the 7/8 load ceiling and that every key sits on its own
// probe chain exactly once, or, dense, a word for every pair of the
// row's span and none below it; over all rows, the entry, byte and
// dense-row gauges and the cap.
func checkMemo(t testing.TB, m *memoMetric) {
	t.Helper()
	var entries, bytes, dense int64
	for u := range m.rows {
		r := &m.rows[u]
		tab := r.tab.Load()
		if tab == nil {
			if r.n != 0 {
				t.Fatalf("row %d: n = %d with no table", u, r.n)
			}
			continue
		}
		occupied := 0
		if tab.slots == nil {
			if span := len(m.rows) - 1 - u; len(tab.words) != span || tab.base != uint32(u)+2 {
				t.Fatalf("row %d: dense table of %d words from key %d, want %d from %d", u, len(tab.words), tab.base, span, u+2)
			}
			for j := range tab.words {
				if tab.words[j].Load() != 0 {
					occupied++
				}
			}
			if occupied != int(r.n) {
				t.Fatalf("row %d: %d dense words occupied, n = %d", u, occupied, r.n)
			}
			dense++
		} else {
			size := len(tab.slots)
			if size < memoMinSlots {
				t.Fatalf("row %d: table of %d slots", u, size)
			}
			for j := range tab.slots {
				w := tab.slots[j].Load()
				if w == 0 {
					continue
				}
				occupied++
				k := uint32(w >> 32)
				if at, slot := tab.find(k); slot == 0 || int(at) != j {
					t.Fatalf("row %d: key %d in slot %d, its probe chain ends at %d (word %#x)", u, k, j, at, slot)
				}
				if int(k-1) <= u {
					t.Fatalf("row %d holds key for vertex %d, not above the row", u, k-1)
				}
			}
			if occupied != int(r.n) || occupied > size-size/8 {
				t.Fatalf("row %d: %d occupied of %d slots, n = %d", u, occupied, size, r.n)
			}
		}
		entries += int64(occupied)
		bytes += tab.bytes()
	}
	if entries != m.entries.Load() || bytes != m.bytes.Load() || dense != m.denseRows.Load() {
		t.Fatalf("gauges: entries %d bytes %d dense rows %d, tables hold %d in %d B, %d dense",
			m.entries.Load(), m.bytes.Load(), m.denseRows.Load(), entries, bytes, dense)
	}
	if limit := m.maxBytes + memoSlotBytes*memoMinSlots*int64(len(m.rows)); bytes > limit {
		t.Fatalf("%d B of tables, cap %d plus one minimum table per row = %d", bytes, m.maxBytes, limit)
	}
}

// TestMemoDifferential runs random Dist / LB / DistBatch scripts, cut
// into matches that anchor one search per source like a real match,
// against a plain map holding the same caching rules: values equal
// bit for bit, DistCalls equal, and the same set of pairs cached.
func TestMemoDifferential(t *testing.T) {
	m := newCityMemo(t, 12, 12)
	g := m.grid.Graph()
	n := g.NumVertices()
	exact := exactTable(g)

	type pair struct{ u, v roadnet.VertexID }
	norm := func(u, v roadnet.VertexID) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	ref := map[pair]float64{}
	var refCalls int64

	rng := rand.New(rand.NewSource(23))
	vertex := func() roadnet.VertexID { return roadnet.VertexID(rng.Intn(n)) }
	var sc memoBatchScratch
	for match := 0; match < 400; match++ {
		from := vertex()
		var a anchor
		for step := rng.Intn(12); step >= 0; step-- {
			switch op := rng.Intn(4); op {
			case 0:
				u, v := vertex(), vertex()
				want, ok := ref[norm(u, v)]
				if !ok && u != v {
					want = exact[u][v]
					ref[norm(u, v)] = want
					refCalls++
				}
				if got := m.Dist(u, v); got != want {
					t.Fatalf("Dist(%d, %d) = %v, reference %v", u, v, got, want)
				}
			case 1:
				u, v := vertex(), vertex()
				want, ok := ref[norm(u, v)]
				if !ok {
					want = m.grid.LB(u, v)
				}
				if got := m.LB(u, v); got != want {
					t.Fatalf("LB(%d, %d) = %v, reference %v (cached %v)", u, v, got, want, ok)
				}
			default:
				targets := make([]roadnet.VertexID, rng.Intn(40))
				for i := range targets {
					targets[i] = vertex()
				}
				maxDist := math.Inf(1)
				if op == 3 {
					maxDist = 250 * float64(1+rng.Intn(16))
				}
				want := make([]float64, len(targets))
				missed := false
				for i, v := range targets {
					if v == from {
						continue
					}
					d, ok := ref[norm(from, v)]
					if !ok {
						missed = true
						if d = exact[from][v]; d > maxDist {
							d = math.Inf(1)
						}
					}
					want[i] = d
				}
				// The whole call is looked up before any of it is stored.
				for i, v := range targets {
					if d := want[i]; v != from && (!math.IsInf(d, 1) || math.IsInf(maxDist, 1)) {
						ref[norm(from, v)] = d
					}
				}
				if missed {
					refCalls++
				}
				got := make([]float64, len(targets))
				m.DistBatch(&a, from, targets, maxDist, got, &sc)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("DistBatch(from %d, max %v)[%d → %d] = %v, reference %v", from, maxDist, i, targets[i], got[i], want[i])
					}
				}
			}
			if m.DistCalls() != refCalls {
				t.Fatalf("match %d: DistCalls %d, reference %d", match, m.DistCalls(), refCalls)
			}
		}
		m.release(&a)
	}
	checkMemo(t, m)
	if int(m.entries.Load()) != len(ref) {
		t.Fatalf("memo holds %d pairs, reference %d", m.entries.Load(), len(ref))
	}
	for p, want := range ref {
		r, key := m.rowKey(p.v, p.u)
		if got, ok := r.lookup(key); !ok || got != want {
			t.Fatalf("pair {%d, %d}: memo has %v (%v), reference %v", p.u, p.v, got, ok, want)
		}
	}
	if m.replacements.Load() != 0 || m.batchLookups.Load() == 0 || m.batchMisses.Load() == 0 {
		t.Fatalf("counters: %d replacements, %d batch lookups, %d batch misses", m.replacements.Load(), m.batchLookups.Load(), m.batchMisses.Load())
	}
}

// TestDistancesExactAcrossSearches holds the memo to the distance
// grid's promise: a pair warmed from one side answers, from the other,
// the bits a fresh A* search from that side computes. One memo is
// warmed by the hierarchy's sweeps (DistBatch from u) and read as
// Dist(v, u); another by its point queries Dist(v, u) and read as
// Dist(u, v). On weights off
// the grid the row kept whichever direction's sum came first.
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
			grid, ch := memoSubstrate(t, g, 8)
			filled, pointed := newMemoMetric(grid, ch), newMemoMetric(grid, ch)
			fresh := roadnet.NewSearcher(g)
			rng := rand.New(rand.NewSource(c.seed))
			n := g.NumVertices()
			targets := make([]roadnet.VertexID, 50)
			out := make([]float64, len(targets))
			var sc memoBatchScratch
			pairs, differ := 0, 0
			for src := 0; src < 40; src++ {
				u := roadnet.VertexID(rng.Intn(n))
				for i := range targets {
					targets[i] = roadnet.VertexID(rng.Intn(n))
					pointed.Dist(targets[i], u)
				}
				var a anchor
				filled.DistBatch(&a, u, targets, roadnet.Inf, out, &sc)
				filled.release(&a)
				for _, v := range targets {
					pairs++
					fromV, fromU := fresh.Dist(v, u), fresh.Dist(u, v)
					if got, other := filled.Dist(v, u), pointed.Dist(u, v); got != fromV || other != fromU {
						if differ == 0 {
							t.Errorf("%d↔%d: filled from %d reads %v, search from %d %v; searched from %d reads %v, search from %d %v",
								u, v, u, got, v, fromV, v, other, u, fromU)
						}
						differ++
					}
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d pairs read other bits than a search from the reading side", differ, pairs)
			}
		})
	}
}

// TestMemoStress runs eight goroutines of reads and fills over a memo
// with a test-sized cap, one of them resetting it now and then, so
// first tables, growth, the swap to dense, replacement and reset all
// overlap the lock-free reads: whatever a reader is handed for {u, v}
// is that pair's exact distance (in the direction it was first
// computed), never a neighbour's. Run with -race.
func TestMemoStress(t *testing.T) {
	m := newCityMemo(t, 12, 12)
	m.maxBytes = 2048 * memoSlotBytes
	g := m.grid.Graph()
	n := g.NumVertices()
	exact := exactTable(g)
	is := func(d float64, u, v roadnet.VertexID) bool { return d == exact[u][v] || d == exact[v][u] }

	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	var wg sync.WaitGroup
	var sawDense atomic.Bool
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var sc memoBatchScratch
			targets := make([]roadnet.VertexID, 24)
			out := make([]float64, len(targets))
			for i := 0; i < ops; i++ {
				if seed == 0 && i%4000 == 3999 {
					if m.denseRows.Load() > 0 {
						sawDense.Store(true)
					}
					m.Reset()
				}
				u, v := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
				switch rng.Intn(8) {
				case 0:
					var a anchor
					for j := range targets {
						targets[j] = roadnet.VertexID(rng.Intn(n))
					}
					m.DistBatch(&a, u, targets, math.Inf(1), out, &sc)
					m.release(&a)
					for j, v := range targets {
						if !is(out[j], u, v) {
							t.Errorf("DistBatch from %d to %d = %v, exact %v", u, v, out[j], exact[u][v])
							return
						}
					}
				case 1, 2:
					if d := m.Dist(u, v); !is(d, u, v) {
						t.Errorf("Dist(%d, %d) = %v, exact %v", u, v, d, exact[u][v])
						return
					}
				default:
					if d := m.LB(u, v); !is(d, u, v) && d != m.grid.LB(u, v) {
						t.Errorf("LB(%d, %d) = %v, exact %v, grid bound %v", u, v, d, exact[u][v], m.grid.LB(u, v))
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	checkMemo(t, m)
	if m.replacements.Load() == 0 {
		t.Fatal("the cap was never reached: no replacement ran")
	}
	if m.denseRows.Load() == 0 && !sawDense.Load() {
		t.Fatal("no row turned dense")
	}
}

// TestMemoAtTheCap fills a memo far past a small cap: table bytes (so
// entries, at 4 B or more each) never exceed the cap plus one minimum
// table per row, full rows replace instead of growing, and a working
// set that keeps coming back between bursts of other pairs keeps
// hitting — replacement costs the pairs it overwrites, not everything
// that shared a stripe.
func TestMemoAtTheCap(t *testing.T) {
	m := newCityMemo(t, 12, 12)
	m.maxBytes = 4096 * memoSlotBytes
	n := m.grid.Graph().NumVertices()
	rng := rand.New(rand.NewSource(5))
	vertex := func() roadnet.VertexID { return roadnet.VertexID(rng.Intn(n)) }

	type pair struct{ u, v roadnet.VertexID }
	working := make([]pair, 300)
	for i := range working {
		working[i] = pair{vertex(), vertex()}
	}
	limit := m.maxBytes + memoSlotBytes*memoMinSlots*int64(n)
	for round := 0; round < 12; round++ {
		before := m.DistCalls()
		for _, p := range working {
			m.Dist(p.u, p.v)
		}
		hits := len(working) - int(m.DistCalls()-before)
		if round > 0 && hits < len(working)/2 {
			t.Fatalf("round %d: %d of %d recurring pairs hit", round, hits, len(working))
		}
		for i := 0; i < 1500; i++ {
			m.Dist(vertex(), vertex())
			if e, b := m.entries.Load(), m.bytes.Load(); e*memoDenseBytes > b || b > limit {
				t.Fatalf("round %d: %d entries in %d B, limit %d", round, e, b, limit)
			}
		}
		checkMemo(t, m)
	}
	if m.replacements.Load() == 0 {
		t.Fatal("the cap was never reached: no replacement ran")
	}
}

// TestMemoForgetsWhatHasNoCount holds the memo to "may forget, never
// misreport" at the edges of its 32-bit counts, on a graph with one
// 5,000 km edge {0, 1} (5.12·10⁹ grid steps, past the last count), one
// zero-weight edge {0, 2} and an isolated vertex 3. The far pair is
// never kept: Dist answers it exactly and counts a DistCall every
// time, a batch fill reaching it goes past the memo every time, and LB
// falls back to the grid bound. The disconnected pair keeps +Inf and
// the zero-weight pair 0. Row 0 is dense on four vertices and hashed
// with sixteen isolated ones after them.
func TestMemoForgetsWhatHasNoCount(t *testing.T) {
	const far = 5_000_000.0
	for _, pad := range []int{0, 16} {
		t.Run(fmt.Sprintf("pad%d", pad), func(t *testing.T) {
			b := roadnet.NewBuilder(4+pad, 4)
			b.AddVertex(geo.Point{X: 0, Y: 0})
			b.AddVertex(geo.Point{X: far, Y: 0})
			b.AddVertex(geo.Point{X: 0, Y: 1})
			for i := 0; i < 1+pad; i++ {
				b.AddVertex(geo.Point{X: far, Y: far})
			}
			b.AddEdge(0, 1, far)
			b.AddEdge(0, 2, 0)
			grid, ch := memoSubstrate(t, b.MustBuild(), 2)
			m := newMemoMetric(grid, ch)
			calls := int64(0)
			dist := func(u, v roadnet.VertexID, want float64, miss bool) {
				t.Helper()
				if miss {
					calls++
				}
				if d := m.Dist(u, v); d != want || m.DistCalls() != calls {
					t.Fatalf("Dist(%d, %d) = %v after %d DistCalls, want %v after %d", u, v, d, m.DistCalls(), want, calls)
				}
			}
			for i := 0; i < 3; i++ {
				dist(0, 1, far, true)
			}
			if lb, want := m.LB(1, 0), grid.LB(1, 0); lb != want {
				t.Fatalf("LB(1, 0) = %v, grid bound %v", lb, want)
			}
			dist(0, 3, math.Inf(1), true)
			dist(3, 0, math.Inf(1), false)
			dist(2, 0, 0, true)
			dist(0, 2, 0, false)
			for _, p := range []struct {
				v    roadnet.VertexID
				want float64
			}{{2, 0}, {3, math.Inf(1)}} {
				if d := m.LB(0, p.v); d != p.want {
					t.Fatalf("LB(0, %d) = %v, cached %v", p.v, d, p.want)
				}
			}
			var sc memoBatchScratch
			out := make([]float64, 3)
			for i := 0; i < 2; i++ {
				var a anchor
				calls++
				m.DistBatch(&a, 0, []roadnet.VertexID{1, 2, 3}, roadnet.Inf, out, &sc)
				m.release(&a)
				if out[0] != far || out[1] != 0 || !math.IsInf(out[2], 1) || m.DistCalls() != calls {
					t.Fatalf("fill %d from 0: %v after %d DistCalls, want [%v 0 +Inf] after %d", i, out, m.DistCalls(), far, calls)
				}
			}
			checkMemo(t, m)
			if e := m.entries.Load(); e != 2 {
				t.Fatalf("memo holds %d pairs, want the zero and the +Inf", e)
			}
			if dense := m.rows[0].tab.Load().slots == nil; dense != (pad == 0) {
				t.Fatalf("row 0 dense %v with %d vertices", dense, 4+pad)
			}
		})
	}
	// The counts' edges: the last finite count round-trips, the next is
	// +Inf's code, and a value off the grid or below 0 has none.
	last := float64(memoInf-1) / roadnet.GridSteps
	if c, ok := memoEncode(last); !ok || memoDecode(c) != last {
		t.Fatalf("last count: %v → %d, %v", last, c, ok)
	}
	for _, d := range []float64{float64(memoInf) / roadnet.GridSteps, far, 0.3, -1.0 / roadnet.GridSteps, math.NaN()} {
		if c, ok := memoEncode(d); ok {
			t.Fatalf("%v encoded as count %d", d, c)
		}
	}
}

// TestMemoBytesPerEntry holds the memo's footprint in-tree: 500k pairs
// of the 40×40 city, spread over the rows as uniformly drawn pairs
// are, cost at most 12 heap bytes each — rows, table headers, empty
// slots and the allocator's size-class rounding included (measured
// 11.2; 18.7 while a value was a float64 in a 12-byte slot; doubling
// tables 20.3; the striped Go maps before them about 26).
func TestMemoBytesPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("fills 500k pairs")
	}
	grid, ch := cityGrid(t, 40, 40)
	n := grid.Graph().NumVertices()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// The caller's buffers and the hierarchy exist before the baseline;
	// the memo, its rows and its pooled query are what is measured.
	sc := memoBatchScratch{
		missLoc: make([]roadnet.VertexID, 0, n),
		missIdx: make([]int32, 0, n),
		missOut: make([]float64, n),
	}
	targets := make([]roadnet.VertexID, 0, n)
	out := make([]float64, n)
	base := heap()

	m := newMemoMetric(grid, ch)
	rng := rand.New(rand.NewSource(11))
	total := n * (n - 1) / 2
	for u := 0; u < n; u++ {
		targets = targets[:0]
		for v := u + 1; v < n; v++ {
			if rng.Intn(total) < 500_000 {
				targets = append(targets, roadnet.VertexID(v))
			}
		}
		var a anchor
		m.DistBatch(&a, roadnet.VertexID(u), targets, math.Inf(1), out[:len(targets)], &sc)
		m.release(&a)
	}
	used := heap() - base
	entries := m.entries.Load()
	perEntry := float64(used) / float64(entries)
	t.Logf("%d pairs in %d B of tables, %d rows dense: %.1f MB, %.2f B per pair",
		entries, m.bytes.Load(), m.denseRows.Load(), float64(used)/(1<<20), perEntry)
	if entries < 490_000 || entries > 510_000 {
		t.Fatalf("filled %d pairs, want about 500k", entries)
	}
	if perEntry > 12 {
		t.Fatalf("%.2f heap bytes per cached pair, want at most 12", perEntry)
	}
	runtime.KeepAlive(&sc)
	runtime.KeepAlive(targets)
	runtime.KeepAlive(out)
}

// TestMemoEveryPairDense caches every pair of the 40×40 city through
// DistBatch: each row ends dense, and the memo costs at most 4.6 heap
// bytes a pair — the 4-byte word plus rows, table headers and the
// allocator's size classes (measured 4.37 in all; 8.59 with 8-byte
// words; hashed rows would need ~1.8 M slots, about 11 B a pair).
func TestMemoEveryPairDense(t *testing.T) {
	if testing.Short() {
		t.Skip("fills 1.28 M pairs")
	}
	grid, ch := cityGrid(t, 40, 40)
	n := grid.Graph().NumVertices()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	sc := memoBatchScratch{
		missLoc: make([]roadnet.VertexID, 0, n),
		missIdx: make([]int32, 0, n),
		missOut: make([]float64, n),
	}
	targets := make([]roadnet.VertexID, 0, n)
	out := make([]float64, n)
	base := heap()

	m := newMemoMetric(grid, ch)
	for u := 0; u < n; u++ {
		targets = targets[:0]
		for v := u + 1; v < n; v++ {
			targets = append(targets, roadnet.VertexID(v))
		}
		var a anchor
		m.DistBatch(&a, roadnet.VertexID(u), targets, math.Inf(1), out[:len(targets)], &sc)
		m.release(&a)
	}
	used := heap() - base
	entries := m.entries.Load()
	perEntry := float64(used) / float64(entries)
	t.Logf("%d pairs in %d B of tables, %d rows dense: %.1f MB, %.2f B per pair",
		entries, m.bytes.Load(), m.denseRows.Load(), float64(used)/(1<<20), perEntry)
	if want := int64(n * (n - 1) / 2); entries != want {
		t.Fatalf("cached %d pairs, want all %d", entries, want)
	}
	checkMemo(t, m)
	// The last row has no pair above it and no table.
	if d := m.denseRows.Load(); d != int64(n-1) {
		t.Fatalf("%d rows dense, want %d", d, n-1)
	}
	if perEntry > 4.6 {
		t.Fatalf("%.2f heap bytes per cached pair, want at most 4.6", perEntry)
	}
	runtime.KeepAlive(&sc)
	runtime.KeepAlive(targets)
	runtime.KeepAlive(out)
}

// fuzzMemoVertices is the vertex count of FuzzMemo's memo: row 0 can
// hold 31 pairs, enough to grow once and turn dense where the cap
// allows; rows 15 and up start dense.
const fuzzMemoVertices = 32

// fuzzMemoDist is the value FuzzMemo stores for a pair: distinct per
// pair, so an answer that belongs to another pair is caught. Some pairs
// are disconnected (+Inf), which the memo keeps like any distance, and
// some have no count, 2³² grid steps or more apart or off the grid,
// which it never keeps: kept says which.
func fuzzMemoDist(u, v roadnet.VertexID) (d float64, kept bool) {
	if u > v {
		u, v = v, u
	}
	d = float64(u)*1000 + float64(v) + 0.5
	switch (u + v) % 11 {
	case 3:
		return math.Inf(1), true
	case 6:
		return d + 1<<22, false // 4,194,304 m is 2³² steps
	case 9:
		return d + 0.3, false
	}
	return d, true
}

// FuzzMemo drives store / lookup / reset scripts through a memo capped
// at 64 hashed slots' bytes against a map that models "may forget,
// must never lie": a hit is that pair's value and a pair that was
// stored since the last reset; a store forgets at most the one pair it
// replaces, and nothing at all while its row may still grow or turn
// dense; only a row's first table may take the tables past the cap; a
// value with no count is not kept, and its store changes nothing; a
// lookup of the diagonal, which LB makes, misses; the structure's
// invariants hold after every step. Three bytes an op:
// kind, u, v.
func FuzzMemo(f *testing.F) {
	grid, _ := cityGrid(f, 4, fuzzMemoVertices/4)
	if n := grid.Graph().NumVertices(); n != fuzzMemoVertices {
		f.Fatalf("grid of %d vertices, want %d", n, fuzzMemoVertices)
	}
	f.Add([]byte{1, 0, 1, 2, 0, 1, 2, 1, 0, 2, 0, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		m := &memoMetric{grid: grid, rows: make([]memoRow, fuzzMemoVertices), maxBytes: 64 * memoSlotBytes}
		type pair struct{ u, v roadnet.VertexID }
		stored := map[pair]bool{}
		found := func() (n int64) {
			for p := range stored {
				r, key := m.rowKey(p.u, p.v)
				if _, ok := r.lookup(key); ok {
					n++
				}
			}
			return n
		}
		for ; len(script) >= 3; script = script[3:] {
			kind := script[0]
			u, v := roadnet.VertexID(script[1]%fuzzMemoVertices), roadnet.VertexID(script[2]%fuzzMemoVertices)
			if u == v {
				// The memo's callers never cache the diagonal, but LB(u, u)
				// looks it up: row u, key u+1.
				if kind%16 != 0 && kind%2 == 0 {
					if d := m.LB(u, u); d != grid.LB(u, u) {
						t.Fatalf("LB(%d, %d) = %v, grid bound %v", u, u, d, grid.LB(u, u))
					}
				}
				continue
			}
			if u > v {
				u, v = v, u
			}
			r, key := m.rowKey(v, u)
			switch {
			case kind%16 == 0:
				m.Reset()
				clear(stored)
			case kind%2 == 1:
				// A full hashed row's next table is the cheaper of half as
				// many slots again and a word for each pair of its span.
				mayRefuse := false
				if tab := r.tab.Load(); tab != nil && tab.slots != nil {
					size := len(tab.slots)
					next := min(memoSlotBytes*int64(size+size/2), memoDenseBytes*int64(fuzzMemoVertices-1-u))
					mayRefuse = int(r.n) >= size-size/8 && m.bytes.Load()+next-tab.bytes() > m.maxBytes
				}
				before, bytes, tabled := found(), m.bytes.Load(), r.tab.Load() != nil
				d, kept := fuzzMemoDist(u, v)
				m.store(u, v, d)
				if !kept {
					if _, ok := r.lookup(key); ok || found() != before || m.bytes.Load() != bytes {
						t.Fatalf("store {%d, %d} of %v, which has no count: kept %v, %d → %d pairs, %d → %d B",
							u, v, d, ok, before, found(), bytes, m.bytes.Load())
					}
					break
				}
				stored[pair{u, v}] = true
				if after := found(); after < before {
					t.Fatalf("store {%d, %d} forgot %d pairs", u, v, before-after)
				}
				// Only a row's first table may take the memo past its cap.
				if b := m.bytes.Load(); tabled && b != bytes && b > m.maxBytes {
					t.Fatalf("store {%d, %d} grew the tables %d → %d B, past the %d B cap", u, v, bytes, b, m.maxBytes)
				}
				if _, ok := r.lookup(key); !ok && !mayRefuse {
					t.Fatalf("store {%d, %d} below the cap did not keep the pair", u, v)
				}
			default:
				d, ok := r.lookup(key)
				if want, _ := fuzzMemoDist(u, v); ok && (d != want || !stored[pair{u, v}]) {
					t.Fatalf("lookup {%d, %d} = %v, stored %v, its value %v", u, v, d, stored[pair{u, v}], want)
				}
			}
			checkMemo(t, m)
			if n := found(); n != m.entries.Load() {
				t.Fatalf("%d entries, %d stored pairs answer", m.entries.Load(), n)
			}
		}
	})
}

// BenchmarkMemoLookup times the read path on the 40×40 city, in each
// row layout, serial and from every core at once. Every eighth row is
// filled from its own vertex: with every eighth vertex above it, which
// leaves it hashed, or with two of every three, which turns it dense.
// hit probes cached pairs, miss the rows' other pairs, which are never
// cached (a hashed miss ends at the chain's first empty slot, a dense
// one reads an empty word). Readers share nothing they write, so the
// parallel ns/op falls with the core count — given a time -benchtime:
// with a fixed iteration count RunParallel hands out iterations a few
// at a time and its shared counter is what gets measured.
func BenchmarkMemoLookup(b *testing.B) {
	grid, ch := cityGrid(b, 40, 40)
	n := grid.Graph().NumVertices()
	for _, layout := range []struct {
		name  string
		dense bool
		keep  func(gap int) bool // whether {u, u+gap} is cached
	}{
		{"hashed", false, func(gap int) bool { return gap%8 == 0 }},
		{"dense", true, func(gap int) bool { return gap%3 != 0 }},
	} {
		m := newMemoMetric(grid, ch)
		var sc memoBatchScratch
		out := make([]float64, n)
		var rows []roadnet.VertexID
		for u := 0; u < n-64; u += 8 {
			rows = append(rows, roadnet.VertexID(u))
			var targets []roadnet.VertexID
			for v := u + 1; v < n; v++ {
				if layout.keep(v - u) {
					targets = append(targets, roadnet.VertexID(v))
				}
			}
			var a anchor
			m.DistBatch(&a, roadnet.VertexID(u), targets, math.Inf(1), out[:len(targets)], &sc)
			m.release(&a)
			if tab := m.rows[u].tab.Load(); (tab.slots == nil) != layout.dense {
				b.Fatalf("row %d dense %v, want %v", u, tab.slots == nil, layout.dense)
			}
		}
		// 4096 probes per case, each a random row and a vertex above it.
		rng := rand.New(rand.NewSource(3))
		probes := func(hit bool) []memoProbe {
			ps := make([]memoProbe, 4096)
			for i := range ps {
				u := rows[rng.Intn(len(rows))]
				v := u + 1 + roadnet.VertexID(rng.Intn(n-1-int(u)))
				for layout.keep(int(v-u)) != hit {
					v = u + 1 + roadnet.VertexID(rng.Intn(n-1-int(u)))
				}
				r, key := m.rowKey(u, v)
				if _, ok := r.lookup(key); ok != hit {
					b.Fatalf("lookup {%d, %d}: hit %v", u, v, ok)
				}
				ps[i] = memoProbe{r, key}
			}
			return ps
		}
		for _, bc := range []struct {
			name   string
			probes []memoProbe
		}{{"hit", probes(true)}, {"miss", probes(false)}} {
			ps := bc.probes
			b.Run(layout.name+"/"+bc.name+"/serial", func(b *testing.B) {
				var sum float64
				for i := 0; i < b.N; i++ {
					p := ps[i&(len(ps)-1)]
					d, _ := p.r.lookup(p.key)
					sum += d
				}
				memoBenchSink = sum
			})
			b.Run(layout.name+"/"+bc.name+"/parallel", func(b *testing.B) {
				b.RunParallel(func(pb *testing.PB) {
					for i := 0; pb.Next(); i++ {
						p := ps[i&(len(ps)-1)]
						p.r.lookup(p.key)
					}
				})
			})
		}
	}
}

// memoProbe is one pair BenchmarkMemoLookup reads.
type memoProbe struct {
	r   *memoRow
	key uint32
}

var memoBenchSink float64
