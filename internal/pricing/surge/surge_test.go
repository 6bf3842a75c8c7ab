package surge

import (
	"math"
	"testing"
)

// advanceWith pushes one epoch with the given demand per cell and a
// uniform supply.
func advanceWith(t *Tracker, demand map[int32]int, supply []int) {
	for cell, n := range demand {
		for i := 0; i < n; i++ {
			t.RecordDemand(cell)
		}
	}
	t.Advance(supply)
}

func TestTiersMapRatioToMultiplier(t *testing.T) {
	// Alpha 1 disables smoothing so the multiplier tracks the raw
	// demand/supply ratio of the latest epoch.
	tr := New(4, Config{Alpha: 1})
	// Cell 0: ratio 1 (≤ 1.5) → 1.0×. Cell 1: ratio 1.6 → 1.2×.
	// Cell 2: ratio 3 → 1.5×. Cell 3: idle → 1.0×.
	advanceWith(tr, map[int32]int{0: 5, 1: 8, 2: 15}, []int{5, 5, 5, 5})
	for cell, want := range map[int32]float64{0: 1, 1: 1.2, 2: 1.5, 3: 1} {
		if m, ep := tr.Multiplier(cell); m != want || ep != 1 {
			t.Fatalf("cell %d: multiplier %v (epoch %d), want %v (epoch 1)", cell, m, ep, want)
		}
	}
}

func TestEMASmoothing(t *testing.T) {
	tr := New(1, Config{Alpha: 0.5})
	// One hot epoch: raw ratio 4, EMA 0.5·4 = 2 → just at the 2.0
	// boundary, which is exclusive, so still 1.2×.
	advanceWith(tr, map[int32]int{0: 4}, []int{1})
	if m, _ := tr.Multiplier(0); m != 1.2 {
		t.Fatalf("after one hot epoch: multiplier %v, want 1.2", m)
	}
	// A second hot epoch pushes the EMA to 0.5·4 + 0.5·2 = 3 → 1.5×.
	advanceWith(tr, map[int32]int{0: 4}, []int{1})
	if m, _ := tr.Multiplier(0); m != 1.5 {
		t.Fatalf("after two hot epochs: multiplier %v, want 1.5", m)
	}
	// Idle epochs decay the EMA back below the tiers.
	for i := 0; i < 6; i++ {
		tr.Advance([]int{1})
	}
	if m, _ := tr.Multiplier(0); m != 1 {
		t.Fatalf("after decay: multiplier %v, want 1", m)
	}
}

func TestSupplyFloorsAtOne(t *testing.T) {
	tr := New(2, Config{Alpha: 1})
	// Cell 0 has zero vehicles: any demand should surge rather than
	// divide by zero. Cell 1 has plenty of supply: same demand, no
	// surge.
	advanceWith(tr, map[int32]int{0: 3, 1: 3}, []int{0, 10})
	if m, _ := tr.Multiplier(0); m != 1.5 {
		t.Fatalf("empty cell multiplier %v, want 1.5", m)
	}
	if m, _ := tr.Multiplier(1); m != 1 {
		t.Fatalf("supplied cell multiplier %v, want 1", m)
	}
}

func TestOutOfRangeCells(t *testing.T) {
	tr := New(2, Config{})
	tr.RecordDemand(-1) // must not panic or count
	tr.RecordDemand(99)
	if m, ep := tr.Multiplier(-1); m != 1 || ep != 0 {
		t.Fatalf("out-of-range multiplier = %v, %d", m, ep)
	}
	tr.Advance([]int{1, 1})
	if m, _ := tr.Multiplier(0); m != 1 {
		t.Fatalf("ignored demand still surged: %v", m)
	}
}

func TestStateRoundTrip(t *testing.T) {
	tr := New(3, Config{Alpha: 0.5})
	advanceWith(tr, map[int32]int{0: 10, 2: 4}, []int{1, 1, 1})
	tr.RecordDemand(1) // pending mid-epoch demand
	st := tr.State()

	clone := New(3, Config{Alpha: 0.5})
	clone.Restore(st)
	if clone.State().Epoch != tr.State().Epoch {
		t.Fatalf("epoch %d != %d", clone.State().Epoch, tr.State().Epoch)
	}
	_, ema1, mult1 := tr.Cells()
	_, ema2, mult2 := clone.Cells()
	for c := range ema1 {
		if ema1[c] != ema2[c] || mult1[c] != mult2[c] {
			t.Fatalf("cell %d: restored (%v,%v) != (%v,%v)", c, ema2[c], mult2[c], ema1[c], mult1[c])
		}
	}
	// Pending demand must survive too: advancing both produces the
	// same next epoch.
	tr.Advance([]int{1, 1, 1})
	clone.Advance([]int{1, 1, 1})
	_, ema1, _ = tr.Cells()
	_, ema2, _ = clone.Cells()
	for c := range ema1 {
		if math.Abs(ema1[c]-ema2[c]) != 0 {
			t.Fatalf("cell %d: post-advance ema %v != %v", c, ema2[c], ema1[c])
		}
	}
}

// TestRestoreEpochDerivesMultipliers: Restore installs an epoch's EMA
// vector and re-derives the multipliers from it; a state without
// demand resets the counters, as a live Advance leaves them.
func TestRestoreEpochDerivesMultipliers(t *testing.T) {
	tr := New(2, Config{})
	tr.RecordDemand(0)
	tr.Restore(State{Epoch: 7, EMA: []float64{2.5, 0.5}})
	if ep := tr.State().Epoch; ep != 7 {
		t.Fatalf("epoch %d, want 7", ep)
	}
	if m, _ := tr.Multiplier(0); m != 1.5 {
		t.Fatalf("cell 0 multiplier %v, want 1.5", m)
	}
	if m, _ := tr.Multiplier(1); m != 1 {
		t.Fatalf("cell 1 multiplier %v, want 1", m)
	}
	// Demand counters reset, matching the live post-Advance state.
	tr.Advance([]int{1, 1})
	_, ema, _ := tr.Cells()
	if want := 0.5 * 2.5; ema[0] != want {
		t.Fatalf("cell 0 ema %v, want %v (pre-restore demand leaked)", ema[0], want)
	}
}

func TestPanel(t *testing.T) {
	tr := New(4, Config{Alpha: 1})
	advanceWith(tr, map[int32]int{0: 8, 1: 15}, []int{5, 5, 5, 5})
	p := tr.Panel()
	if p.Epoch != 1 || p.Cells != 4 || p.ActiveCells != 2 {
		t.Fatalf("panel = %+v", p)
	}
	if p.MaxMultiplier != 1.5 {
		t.Fatalf("max multiplier %v", p.MaxMultiplier)
	}
	if want := (1.2 + 1.5 + 1 + 1) / 4; math.Abs(p.AvgMultiplier-want) > 1e-15 {
		t.Fatalf("avg multiplier %v, want %v", p.AvgMultiplier, want)
	}
}
