// Package core implements PTRider's matching engine (paper §3):
// answering each ridesharing request with all qualified, non-dominated
// ⟨vehicle, pick-up time, price⟩ options, via three interchangeable
// matching algorithms on top of the grid index, the vehicle lists and
// the kinetic trees: the naive kinetic-tree scan (NaiveMatcher) and
// the single-side and dual-side searches, which are one ring walk
// (RingMatcher) — dual-side is single-side plus a destination ring
// advanced in lockstep, a detour lower bound for vehicles that ring
// has not reached, and a final flush of the vehicles it deferred.
package core

import (
	"math"
	"sync"
	"sync/atomic"

	"ptrider/internal/gridindex"
	"ptrider/internal/roadnet"
)

// memoMinSlots is the size of a row's first table, which a row gets
// whenever it first needs one; memoMaxSlots is the slot count of all
// tables together (24 MB at 12 bytes a slot) past which none grows.
const (
	memoMinSlots = 8
	memoMaxSlots = 2 << 20
)

// memoMetric is the kinetic.Metric shared by every kinetic tree and
// matcher in one engine: exact distances from epoch-stamped Searchers
// with memoisation (the same vertex pairs recur heavily during
// insertion enumeration), lower bounds from the grid index.
//
// The memo is one row per vertex: the pair {u, v}, u < v (road
// distances here are symmetric), lives in row u, an open-addressed,
// linearly probed table of 12-byte slots that grows by half at 7/8
// load. Safe for concurrent use, and a read takes no lock: see
// memoRow. Cache-missing exact computations draw a private Searcher
// from a pool. Two goroutines racing on the same cold pair may both compute
// it — both arrive at the same exact value, and the second store finds
// the first; DistCalls then counts both, which matches its meaning of
// "exact computations performed".
//
// The memo may forget a pair (replacement, Reset); it never answers
// with another pair's value.
type memoMetric struct {
	grid *gridindex.Grid

	searchers sync.Pool // *roadnet.Searcher
	rows      []memoRow
	// maxSlots is memoMaxSlots outside tests. Once the tables hold that
	// many slots no row grows: a newcomer to a full row replaces the
	// entry at its home slot.
	maxSlots int64

	// distCalls counts cache-missing exact computations, the "number of
	// shortest path distance computations" metric of paper §3.3.
	distCalls atomic.Int64
	// settled totals the vertices settled by released anchors: the work
	// behind the batch fills among distCalls.
	settled atomic.Int64

	// Occupancy and traffic, for /metrics. Writers keep entries, slots
	// and replacements; DistBatch adds its target and miss counts once
	// per call.
	entries, slots, replacements atomic.Int64
	batchLookups, batchMisses    atomic.Int64
}

// memoRow holds the cached pairs {u, v}, v > u, of one vertex u.
//
// Readers load tab and probe it with atomic loads, nothing else.
// Writers serialise on mu. A fresh pair is published value first, key
// second, into an empty slot, and a grown table by swapping tab, so a
// racing reader sees the pair or misses it. Only replacement changes
// an occupied slot: it makes seq odd, stores value and key, and makes
// seq even again, and a reader that found its key reads again unless
// seq was even and the same on both sides of its loads. Slots are
// never emptied, so every probe chain stays intact.
type memoRow struct {
	tab atomic.Pointer[memoTable]
	seq atomic.Uint32
	n   uint32 // occupied slots of tab; guarded by mu
	mu  sync.Mutex
}

// memoTable is its slots as two parallel arrays: probes walk the
// compact key array and touch vals only on a hit. A key is v+1, 0
// marking an empty slot; a value is the float64's bits.
type memoTable struct {
	keys []atomic.Uint32
	vals []atomic.Uint64
}

func newMemoTable(slots int) *memoTable {
	return &memoTable{
		keys: make([]atomic.Uint32, slots),
		vals: make([]atomic.Uint64, slots),
	}
}

// home is the slot a key's probe chain starts at: a Fibonacci hash, so
// runs of neighbouring vertex ids spread out, scaled to the table's
// size, which need not be a power of two.
func (t *memoTable) home(key uint32) uint32 {
	return uint32(uint64(key*0x9e3779b1) * uint64(len(t.keys)) >> 32)
}

// find walks key's probe chain to the slot that holds it, or else to
// the chain's first empty slot. Every table keeps an empty slot.
func (t *memoTable) find(key uint32) (i uint32, found bool) {
	n := uint32(len(t.keys))
	for i = t.home(key); ; {
		switch t.keys[i].Load() {
		case key:
			return i, true
		case 0:
			return i, false
		}
		if i++; i == n {
			i = 0
		}
	}
}

// put publishes a pair into the empty slot i.
func (t *memoTable) put(i, key uint32, val uint64) {
	t.vals[i].Store(val)
	t.keys[i].Store(key)
}

// rowKey names the row and key of the pair {u, v}.
func (m *memoMetric) rowKey(u, v roadnet.VertexID) (*memoRow, uint32) {
	if u > v {
		u, v = v, u
	}
	return &m.rows[u], uint32(v) + 1
}

// lookup is the memo's read path.
func (r *memoRow) lookup(key uint32) (float64, bool) {
	for {
		seq := r.seq.Load()
		t := r.tab.Load()
		if t == nil {
			return 0, false
		}
		i, found := t.find(key)
		if !found {
			return 0, false
		}
		val := t.vals[i].Load()
		if seq&1 == 0 && r.seq.Load() == seq {
			return math.Float64frombits(val), true
		}
	}
}

// store caches d for the pair (r, key).
func (m *memoMetric) store(r *memoRow, key uint32, d float64) {
	val := math.Float64bits(d)
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tab.Load()
	if t == nil {
		t = newMemoTable(memoMinSlots)
		m.slots.Add(memoMinSlots)
		r.tab.Store(t)
	}
	i, found := t.find(key)
	if found {
		return // a racing goroutine computed the same pair first
	}
	if size := len(t.keys); int(r.n) >= size-size/8 {
		if m.slots.Add(int64(size/2)) > m.maxSlots {
			m.slots.Add(-int64(size / 2))
			// An empty home slot is left empty: filling it would take
			// the row past 7/8, and this pair is the one forgotten.
			if home := t.home(key); i != home {
				r.seq.Add(1)
				t.put(home, key, val)
				r.seq.Add(1)
				m.replacements.Add(1)
			}
			return
		}
		grown := newMemoTable(size + size/2)
		for j := range t.keys {
			if k := t.keys[j].Load(); k != 0 {
				to, _ := grown.find(k)
				grown.put(to, k, t.vals[j].Load())
			}
		}
		r.tab.Store(grown)
		t = grown
		i, _ = t.find(key)
	}
	t.put(i, key, val)
	r.n++
	m.entries.Add(1)
}

func newMemoMetric(grid *gridindex.Grid) *memoMetric {
	g := grid.Graph()
	m := &memoMetric{
		grid:     grid,
		rows:     make([]memoRow, g.NumVertices()),
		maxSlots: memoMaxSlots,
	}
	m.searchers.New = func() any { return roadnet.NewSearcher(g) }
	return m
}

// Dist returns the exact shortest-path distance, memoised.
func (m *memoMetric) Dist(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	r, key := m.rowKey(u, v)
	if d, ok := r.lookup(key); ok {
		return d
	}
	m.distCalls.Add(1)
	s := m.searchers.Get().(*roadnet.Searcher)
	d := s.Dist(u, v)
	m.searchers.Put(s)
	m.store(r, key, d)
	return d
}

// LB returns a cheap lower bound on Dist(u, v).
func (m *memoMetric) LB(u, v roadnet.VertexID) float64 {
	r, key := m.rowKey(u, v)
	if d, ok := r.lookup(key); ok {
		return d
	}
	return m.grid.LB(u, v)
}

// memoBatchScratch is the caller-owned workspace of DistBatch, reused
// across calls so batch fills allocate nothing in steady state: the
// missing targets, their resolved distances, and their positions in
// the call's out.
type memoBatchScratch struct {
	missLoc []roadnet.VertexID
	missOut []float64
	missIdx []int32
}

// batchLookup is DistBatch's read phase: one pass over the targets
// that resolves every cached (from, target) pair and collects the
// misses in sc.
func (m *memoMetric) batchLookup(from roadnet.VertexID, targets []roadnet.VertexID, out []float64, sc *memoBatchScratch) {
	if len(out) != len(targets) {
		panic("core: batch fill out length mismatch")
	}
	sc.missLoc, sc.missIdx = sc.missLoc[:0], sc.missIdx[:0]
	for i, t := range targets {
		if t == from {
			out[i] = 0
			continue
		}
		r, key := m.rowKey(from, t)
		d, ok := r.lookup(key)
		if !ok {
			sc.missLoc = append(sc.missLoc, t)
			sc.missIdx = append(sc.missIdx, int32(i))
			continue
		}
		out[i] = d
	}
}

// batchStore is DistBatch's write phase: the resolved misses
// (sc.missOut) are scattered into out and stored, one store each.
// Values beyond maxDist are truncation artefacts, not proven distances,
// and are not cached; with maxDist = +Inf a +Inf value is a proven
// disconnection and is cached like any other.
func (m *memoMetric) batchStore(from roadnet.VertexID, maxDist float64, out []float64, sc *memoBatchScratch) {
	storeInf := math.IsInf(maxDist, 1)
	for j, d := range sc.missOut {
		out[sc.missIdx[j]] = d
		if math.IsInf(d, 1) && !storeInf {
			continue
		}
		r, key := m.rowKey(from, sc.missLoc[j])
		m.store(r, key, d)
	}
}

// anchor is the resumable search one match keeps from one of its two
// fixed sources, the request's s or d. It is empty until the first
// memo-missing fill from that source draws a Searcher from the pool;
// every later fill of the match resumes that search, so over all ring
// cells of one request no vertex is settled twice per source.
type anchor struct{ s *roadnet.Searcher }

// release returns the anchor's Searcher, if it drew one, to the pool
// and reports how many vertices its search settled.
func (m *memoMetric) release(a *anchor) int {
	if a.s == nil {
		return 0
	}
	settled := a.s.Settled()
	m.settled.Add(int64(settled))
	m.searchers.Put(a.s)
	a.s = nil
	return settled
}

// DistBatch fills out[i] = Dist(from, targets[i]) for every target
// within maxDist: cached pairs are read in one lock-free pass, the
// misses are resolved by extending the match's anchored search from
// `from` (a must be the same anchor for the same source throughout one
// match), and the freshly computed distances warm the memo. Misses
// beyond maxDist come back +Inf whether or not the anchor has already
// settled them, so what gets cached never depends on the match's
// earlier fills.
//
// One memo-missing fill counts as one DistCall however many targets it
// resolves and however little of the search was left to run: the
// counter is the number of times a match had to go past the memo (the
// paper's §3.3 unit); MatchStats.Settled is the work behind them.
func (m *memoMetric) DistBatch(a *anchor, from roadnet.VertexID, targets []roadnet.VertexID, maxDist float64, out []float64, sc *memoBatchScratch) {
	if len(targets) == 0 {
		return
	}
	m.batchLookup(from, targets, out, sc)
	m.batchLookups.Add(int64(len(targets)))
	if len(sc.missLoc) == 0 {
		return
	}
	m.batchMisses.Add(int64(len(sc.missLoc)))
	m.distCalls.Add(1)
	if a.s == nil {
		a.s = m.searchers.Get().(*roadnet.Searcher)
		a.s.Begin(from)
	}
	if cap(sc.missOut) < len(sc.missLoc) {
		sc.missOut = make([]float64, len(sc.missLoc))
	}
	sc.missOut = sc.missOut[:len(sc.missLoc)]
	a.s.Extend(sc.missLoc, maxDist, sc.missOut)
	m.batchStore(from, maxDist, out, sc)
}

// DistCalls returns the cumulative number of exact shortest-path
// computations (cache misses) since construction.
func (m *memoMetric) DistCalls() int64 { return m.distCalls.Load() }

// Settled returns the cumulative number of vertices settled by the
// matches' anchored batch-fill searches since construction.
func (m *memoMetric) Settled() int64 { return m.settled.Load() }

// Reset drops every cached pair so subsequent DistCalls deltas measure
// a cold cache — used by the benchmark harness to compare algorithms
// fairly. A racing reader probes the table it already loaded or misses.
func (m *memoMetric) Reset() {
	for i := range m.rows {
		r := &m.rows[i]
		r.mu.Lock()
		if t := r.tab.Load(); t != nil {
			m.entries.Add(-int64(r.n))
			m.slots.Add(-int64(len(t.keys)))
			r.tab.Store(nil)
			r.n = 0
		}
		r.mu.Unlock()
	}
}
