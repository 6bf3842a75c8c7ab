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

// memoShards is the stripe count of the shared distance memo. Road
// networks issue distance queries from many goroutines at once; 64
// stripes keep lock contention negligible at match-worker counts far
// above any realistic core count.
const memoShards = 64

// memoMetric is the kinetic.Metric shared by every kinetic tree and
// matcher in one engine: exact distances from epoch-stamped Searchers
// with memoisation (the same vertex pairs recur heavily during
// insertion enumeration), lower bounds from the grid index.
//
// Safe for concurrent use: the memo is striped across RWMutex-guarded
// shards keyed by the (order-normalised, since road distances here are
// symmetric) vertex pair, and cache-missing exact computations draw a
// private Searcher from a pool. Two goroutines racing on the same cold
// pair may both compute it — both arrive at the same exact value, so
// the second store is idempotent; DistCalls then counts both, which
// matches its meaning of "exact computations performed".
type memoMetric struct {
	grid *gridindex.Grid

	searchers sync.Pool // *roadnet.Searcher
	shards    [memoShards]memoShard
	// maxPerShard bounds each shard's memo; wholesale per-shard reset
	// once full, as in the serial engine.
	maxPerShard int

	// distCalls counts cache-missing exact computations, the "number of
	// shortest path distance computations" metric of paper §3.3.
	distCalls atomic.Int64
	// settled totals the vertices settled by released anchors: the work
	// behind the batch fills among distCalls.
	settled atomic.Int64
}

type memoShard struct {
	mu   sync.RWMutex
	memo map[memoKey]float64
}

type memoKey struct{ u, v roadnet.VertexID }

// normKey order-normalises a vertex pair: distances are symmetric, so
// (u,v) and (v,u) share one memo entry (and one shard).
func normKey(u, v roadnet.VertexID) memoKey {
	if u > v {
		u, v = v, u
	}
	return memoKey{u, v}
}

func (k memoKey) shard() int {
	h := uint64(uint32(k.u))*0x9e3779b1 ^ uint64(uint32(k.v))*0x85ebca77
	return int(h % memoShards)
}

func newMemoMetric(grid *gridindex.Grid) *memoMetric {
	m := &memoMetric{
		grid:        grid,
		maxPerShard: (1 << 20) / memoShards,
	}
	g := grid.Graph()
	m.searchers.New = func() any { return roadnet.NewSearcher(g) }
	for i := range m.shards {
		m.shards[i].memo = make(map[memoKey]float64, 1<<6)
	}
	return m
}

// Dist returns the exact shortest-path distance, memoised.
func (m *memoMetric) Dist(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	k := normKey(u, v)
	sh := &m.shards[k.shard()]
	sh.mu.RLock()
	d, ok := sh.memo[k]
	sh.mu.RUnlock()
	if ok {
		return d
	}
	m.distCalls.Add(1)
	s := m.searchers.Get().(*roadnet.Searcher)
	d = s.Dist(u, v)
	m.searchers.Put(s)
	sh.mu.Lock()
	if len(sh.memo) >= m.maxPerShard {
		sh.memo = make(map[memoKey]float64, 1<<6)
	}
	sh.memo[k] = d
	sh.mu.Unlock()
	return d
}

// LB returns a cheap lower bound on Dist(u, v).
func (m *memoMetric) LB(u, v roadnet.VertexID) float64 {
	k := normKey(u, v)
	sh := &m.shards[k.shard()]
	sh.mu.RLock()
	d, ok := sh.memo[k]
	sh.mu.RUnlock()
	if ok {
		return d
	}
	return m.grid.LB(u, v)
}

// memoBatchScratch is the caller-owned workspace of DistBatch, reused
// across calls so batch fills allocate nothing in steady state.
type memoBatchScratch struct {
	keys    []memoKey
	shardOf []uint8
	miss    []bool
	missLoc []roadnet.VertexID
	missOut []float64
	missIdx []int32
	counts  [memoShards]int32
}

func (sc *memoBatchScratch) reset(k int) {
	if cap(sc.keys) < k {
		sc.keys = make([]memoKey, k)
		sc.shardOf = make([]uint8, k)
		sc.miss = make([]bool, k)
	}
	sc.keys = sc.keys[:k]
	sc.shardOf = sc.shardOf[:k]
	sc.miss = sc.miss[:k]
	sc.missLoc = sc.missLoc[:0]
	sc.missOut = sc.missOut[:0]
	sc.missIdx = sc.missIdx[:0]
	sc.counts = [memoShards]int32{}
}

// batchLookup is DistBatch's read phase: it resolves every cached
// (from, target) pair with one read lock per touched stripe — not one
// lock round-trip per pair — and collects the misses in sc. It reports
// whether any miss remains.
func (m *memoMetric) batchLookup(from roadnet.VertexID, targets []roadnet.VertexID, out []float64, sc *memoBatchScratch) bool {
	k := len(targets)
	if len(out) != k {
		panic("core: batch fill out length mismatch")
	}
	sc.reset(k)
	for i, t := range targets {
		sc.miss[i] = false
		if t == from {
			out[i] = 0
			sc.shardOf[i] = memoShards // no stripe visit needed
			continue
		}
		key := normKey(from, t)
		sh := key.shard()
		sc.keys[i] = key
		sc.shardOf[i] = uint8(sh)
		sc.counts[sh]++
	}
	for sh := 0; sh < memoShards; sh++ {
		if sc.counts[sh] == 0 {
			continue
		}
		stripe := &m.shards[sh]
		stripe.mu.RLock()
		for i := range targets {
			if int(sc.shardOf[i]) != sh {
				continue
			}
			if d, ok := stripe.memo[sc.keys[i]]; ok {
				out[i] = d
			} else {
				sc.miss[i] = true
			}
		}
		stripe.mu.RUnlock()
	}
	for i := range targets {
		if sc.miss[i] {
			sc.missLoc = append(sc.missLoc, targets[i])
			sc.missIdx = append(sc.missIdx, int32(i))
		}
	}
	return len(sc.missLoc) > 0
}

// batchStore is DistBatch's write phase: the resolved misses
// (sc.missOut) are scattered into out and stored with one write lock
// per touched stripe. Values beyond maxDist are truncation artefacts,
// not proven distances, and are not cached; with maxDist = +Inf a +Inf
// value is a proven disconnection and is cached like any other.
func (m *memoMetric) batchStore(maxDist float64, out []float64, sc *memoBatchScratch) {
	storeInf := math.IsInf(maxDist, 1)
	for j, i := range sc.missIdx {
		out[i] = sc.missOut[j]
	}
	for sh := 0; sh < memoShards; sh++ {
		if sc.counts[sh] == 0 {
			continue
		}
		stripe := &m.shards[sh]
		locked := false
		for j, i := range sc.missIdx {
			if int(sc.shardOf[i]) != sh {
				continue
			}
			d := sc.missOut[j]
			if math.IsInf(d, 1) && !storeInf {
				continue
			}
			if !locked {
				stripe.mu.Lock()
				locked = true
			}
			if len(stripe.memo) >= m.maxPerShard {
				stripe.memo = make(map[memoKey]float64, 1<<6)
			}
			stripe.memo[sc.keys[i]] = d
		}
		if locked {
			stripe.mu.Unlock()
		}
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
// within maxDist: cached pairs are read with one shard visit per
// touched stripe, the misses are resolved by extending the match's
// anchored search from `from` (a must be the same anchor for the same
// source throughout one match), and the freshly computed distances warm
// the memo with one write lock per touched stripe. Misses beyond
// maxDist come back +Inf whether or not the anchor has already settled
// them, so what gets cached never depends on the match's earlier fills.
//
// One memo-missing fill counts as one DistCall however many targets it
// resolves and however little of the search was left to run: the
// counter is the number of times a match had to go past the memo (the
// paper's §3.3 unit); MatchStats.Settled is the work behind them.
func (m *memoMetric) DistBatch(a *anchor, from roadnet.VertexID, targets []roadnet.VertexID, maxDist float64, out []float64, sc *memoBatchScratch) {
	if len(targets) == 0 {
		return
	}
	if !m.batchLookup(from, targets, out, sc) {
		return
	}
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
	m.batchStore(maxDist, out, sc)
}

// DistCalls returns the cumulative number of exact shortest-path
// computations (cache misses) since construction.
func (m *memoMetric) DistCalls() int64 { return m.distCalls.Load() }

// Settled returns the cumulative number of vertices settled by the
// matches' anchored batch-fill searches since construction.
func (m *memoMetric) Settled() int64 { return m.settled.Load() }

// Reset drops the memo so subsequent DistCalls deltas measure a cold
// cache — used by the benchmark harness to compare algorithms fairly.
func (m *memoMetric) Reset() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.memo = make(map[memoKey]float64, 1<<6)
		sh.mu.Unlock()
	}
}
