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

// memoMinSlots is the size of a row's first hashed table, which a row
// gets whenever it first needs one; memoMaxBytes is what all tables
// together may cost (2 Mi hashed slots) before no row grows or turns
// dense.
const (
	memoMinSlots = 8
	memoMaxBytes = 16 << 20
)

// A hashed slot is one word, a uint32 key beside a uint32 count; a
// dense one holds only the count.
const (
	memoSlotBytes  = 8
	memoDenseBytes = 4
)

// memoInf is the count that stands for +Inf, a proven disconnection.
// Finite counts lie below it. MaxUint32 inverts to 0, a dense row's
// empty word, so it is no count at all.
const memoInf = math.MaxUint32 - 1

// memoEncode is a distance as the memo keeps it: a count of
// 1/roadnet.GridSteps m steps, or memoInf. A distance with no exact
// count below memoInf, which is 2³²−2 steps or more (4,194 km) or off
// the grid, has no code: the memo does not keep it.
func memoEncode(d float64) (uint32, bool) {
	if math.IsInf(d, 1) {
		return memoInf, true
	}
	c := d * roadnet.GridSteps // exact: a power-of-two scale
	if !(c >= 0 && c < memoInf) || c != math.Trunc(c) {
		return 0, false
	}
	return uint32(c), true
}

// memoDecode is the distance a count stands for.
func memoDecode(c uint32) float64 {
	if c == memoInf {
		return math.Inf(1)
	}
	return float64(c) / roadnet.GridSteps
}

// memoMetric is the kinetic.Metric shared by every kinetic tree and
// matcher in one engine: exact distances from the road network's
// contraction hierarchy with memoisation (the same vertex pairs recur
// heavily during insertion enumeration), lower bounds from the grid
// index.
//
// The memo is one row per vertex: the pair {u, v}, u < v (road
// distances here are symmetric), lives in row u, in one of two layouts.
// A row starts hashed, an open-addressed, linearly probed table of
// 8-byte slots that grows by half at 7/8 load, and turns dense, one
// 4-byte word per pair of its span, when the grown table would cost at
// least as much: see layout. Either layout keeps a distance as its
// memoEncode count. Safe for concurrent use, and a read takes no lock:
// see memoRow. Cache-missing exact computations draw a private
// hierarchy Query from a pool. Two goroutines racing on the same cold
// pair may both compute it — both arrive at the same value, bit for
// bit, because every path length is an exact multiple of
// 1/roadnet.GridSteps m, so neither the query nor its direction (u→v or
// v→u) changes the sum;
// the second store finds the first. DistCalls then counts both, which
// matches its meaning of "exact computations performed". The same
// exactness lets the row keep one value for {u, v} whichever side a
// search started from.
//
// The memo may forget a pair (replacement, Reset, a distance with no
// count); it never answers with another pair's value.
type memoMetric struct {
	grid *gridindex.Grid

	queries sync.Pool // *roadnet.Query over the graph's hierarchy
	rows    []memoRow
	// maxBytes is memoMaxBytes outside tests. Once the tables cost that
	// much no row grows or turns dense: a newcomer to a full hashed row
	// replaces the entry at its home slot.
	maxBytes int64

	// distCalls counts cache-missing exact computations, the "number of
	// shortest path distance computations" metric of paper §3.3.
	distCalls atomic.Int64
	// settled totals the vertices swept by released anchors: the work
	// behind the batch fills among distCalls.
	settled atomic.Int64

	// Occupancy and traffic, for /metrics. Writers keep entries, bytes,
	// denseRows and replacements; DistBatch adds its target and miss
	// counts once per call.
	entries, bytes, denseRows, replacements atomic.Int64
	batchLookups, batchMisses               atomic.Int64
}

// memoRow holds the cached pairs {u, v}, v > u, of one vertex u.
//
// Readers load tab and read it with atomic loads, nothing else.
// Writers serialise on mu. Every change a reader can see is one atomic
// store: a pair into a hashed slot (key and count in one word, so a
// fresh pair or a replacement is seen whole or not at all), a dense
// word from empty to its pair's count, a grown or dense table by
// swapping tab. So a racing reader sees the pair or misses it. Slots
// are never emptied, so every probe chain stays intact.
type memoRow struct {
	tab atomic.Pointer[memoTable]
	n   uint32 // pairs tab holds; guarded by mu
	mu  sync.Mutex
}

// memoTable is one row's table. Hashed, slots has one word per slot:
// the key, v+1, in the high half and the pair's count in the low, so 0
// is an empty slot. Dense, slots is nil and words has one word per pair
// of the row: key k sits at words[k-base] as the count inverted, so 0
// is empty (no count is MaxUint32).
type memoTable struct {
	slots []atomic.Uint64
	words []atomic.Uint32
	base  uint32
}

// layout prices a table for a row whose pairs {u, v} span v = u+1 …
// u+span: hashed with the given slots, or dense when a word per pair
// costs no more. The switch needs no setting: a row turns dense when
// its next hashed table would cost at least its flat array.
func layout(span, slots int) (bytes int64, dense bool) {
	if memoDenseBytes*span <= memoSlotBytes*slots {
		return memoDenseBytes * int64(span), true
	}
	return memoSlotBytes * int64(slots), false
}

func newMemoTable(u roadnet.VertexID, span, slots int) *memoTable {
	if _, dense := layout(span, slots); dense {
		return &memoTable{words: make([]atomic.Uint32, span), base: uint32(u) + 2}
	}
	return &memoTable{slots: make([]atomic.Uint64, slots)}
}

// bytes is what the table's slots cost.
func (t *memoTable) bytes() int64 {
	if t.slots == nil {
		return memoDenseBytes * int64(len(t.words))
	}
	return memoSlotBytes * int64(len(t.slots))
}

// home is the slot a key's probe chain starts at: a Fibonacci hash, so
// runs of neighbouring vertex ids spread out, scaled to the table's
// size, which need not be a power of two.
func (t *memoTable) home(key uint32) uint32 {
	return uint32(uint64(key*0x9e3779b1) * uint64(len(t.slots)) >> 32)
}

// find walks key's probe chain in a hashed table to the slot that
// holds it, or else to the chain's first empty slot, and returns the
// slot's word: 0 when empty. Every hashed table keeps an empty slot.
func (t *memoTable) find(key uint32) (i uint32, slot uint64) {
	n := uint32(len(t.slots))
	for i = t.home(key); ; {
		if slot = t.slots[i].Load(); slot == 0 || uint32(slot>>32) == key {
			return i, slot
		}
		if i++; i == n {
			i = 0
		}
	}
}

// put publishes a pair into slot i of a hashed table.
func (t *memoTable) put(i, key, count uint32) {
	t.slots[i].Store(uint64(key)<<32 | uint64(count))
}

// insert publishes a pair the table has room for, unless the table
// holds its key already.
func (t *memoTable) insert(key, count uint32) bool {
	if t.slots == nil {
		w := &t.words[key-t.base]
		if w.Load() != 0 {
			return false
		}
		w.Store(^count)
		return true
	}
	i, slot := t.find(key)
	if slot == 0 {
		t.put(i, key, count)
	}
	return slot == 0
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
	t := r.tab.Load()
	if t == nil {
		return 0, false
	}
	if t.slots == nil {
		// A key outside the row (LB(u, u) brings the diagonal's, u+1)
		// wraps past the end: a miss.
		if i := key - t.base; i < uint32(len(t.words)) {
			w := t.words[i].Load()
			return memoDecode(^w), w != 0
		}
		return 0, false
	}
	_, slot := t.find(key)
	return memoDecode(uint32(slot)), slot != 0
}

// store caches d for the pair {u, v}, unless d has no count.
func (m *memoMetric) store(u, v roadnet.VertexID, d float64) {
	count, ok := memoEncode(d)
	if !ok {
		return
	}
	if u > v {
		u, v = v, u
	}
	r, key, span := &m.rows[u], uint32(v)+1, len(m.rows)-1-int(u)
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tab.Load()
	if t == nil {
		t = newMemoTable(u, span, memoMinSlots)
		m.bytes.Add(t.bytes())
		m.publish(r, t)
	} else if size := len(t.slots); size > 0 && int(r.n) >= size-size/8 {
		i, slot := t.find(key)
		if slot != 0 {
			return // a racing goroutine computed the same pair first
		}
		next, _ := layout(span, size+size/2)
		if grow := next - t.bytes(); m.bytes.Add(grow) > m.maxBytes {
			m.bytes.Add(-grow)
			// An empty home slot is left empty: filling it would take
			// the row past 7/8, and this pair is the one forgotten.
			if home := t.home(key); i != home {
				t.put(home, key, count)
				m.replacements.Add(1)
			}
			return
		}
		grown := newMemoTable(u, span, size+size/2)
		for j := range t.slots {
			if w := t.slots[j].Load(); w != 0 {
				grown.insert(uint32(w>>32), uint32(w))
			}
		}
		m.publish(r, grown)
		t = grown
	}
	if t.insert(key, count) {
		r.n++
		m.entries.Add(1)
	}
}

// publish swaps in row r's next table. A dense table never grows, so
// one published is a row newly dense.
func (m *memoMetric) publish(r *memoRow, t *memoTable) {
	if t.slots == nil {
		m.denseRows.Add(1)
	}
	r.tab.Store(t)
}

// newMemoMetric returns an empty memo over grid and h, the contraction
// hierarchy of the grid's graph.
func newMemoMetric(grid *gridindex.Grid, h *roadnet.Hierarchy) *memoMetric {
	m := &memoMetric{
		grid:     grid,
		rows:     make([]memoRow, grid.Graph().NumVertices()),
		maxBytes: memoMaxBytes,
	}
	m.queries.New = func() any { return h.NewQuery() }
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
	q := m.queries.Get().(*roadnet.Query)
	d := q.Dist(u, v)
	m.queries.Put(q)
	m.store(u, v, d)
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
		m.store(from, sc.missLoc[j], d)
	}
}

// anchor is the sweep one match keeps from one of its two fixed
// sources, the request's s or d. It is empty until the first
// memo-missing fill from that source draws a Query from the pool and
// sweeps the whole graph from the source; every later fill of the match
// reads that sweep, so a match sweeps at most once per source.
type anchor struct{ q *roadnet.Query }

// release returns the anchor's Query, if it drew one, to the pool and
// reports how many vertices its sweep covered: every one.
func (m *memoMetric) release(a *anchor) int {
	if a.q == nil {
		return 0
	}
	swept := len(m.rows)
	m.settled.Add(int64(swept))
	m.queries.Put(a.q)
	a.q = nil
	return swept
}

// DistBatch fills out[i] = Dist(from, targets[i]) for every target
// within maxDist: cached pairs are read in one lock-free pass, the
// misses are read from the match's sweep from `from` (a must be the
// same anchor for the same source throughout one match), drawn on the
// first miss, and the freshly read distances warm the memo. Misses
// beyond maxDist come back +Inf although the sweep holds them, so what
// gets cached never depends on the match's earlier fills.
//
// One memo-missing fill counts as one DistCall however many targets it
// resolves and whether or not it drew the sweep: the counter is the
// number of times a match had to go past the memo (the paper's §3.3
// unit); MatchStats.Settled is the work behind them.
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
	if a.q == nil {
		a.q = m.queries.Get().(*roadnet.Query)
		a.q.Sweep(from)
	}
	if cap(sc.missOut) < len(sc.missLoc) {
		sc.missOut = make([]float64, len(sc.missLoc))
	}
	sc.missOut = sc.missOut[:len(sc.missLoc)]
	a.q.DistsTo(sc.missLoc, maxDist, sc.missOut)
	m.batchStore(from, maxDist, out, sc)
}

// DistCalls returns the cumulative number of exact shortest-path
// computations (cache misses) since construction.
func (m *memoMetric) DistCalls() int64 { return m.distCalls.Load() }

// Settled returns the cumulative number of vertices swept for the
// matches' batch fills since construction.
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
			m.bytes.Add(-t.bytes())
			if t.slots == nil {
				m.denseRows.Add(-1)
			}
			r.tab.Store(nil)
			r.n = 0
		}
		r.mu.Unlock()
	}
}
