// Package surge tracks per-cell demand/supply pressure and turns it
// into tiered fare multipliers — the dynamic half of the pricing
// pipeline.
//
// The tracker is fed from both sides of the market the engine already
// observes: demand is the count of requests quoted out of each origin
// cell since the last epoch, supply is the grid index's per-cell
// vehicle counts at epoch time. Each epoch the demand/supply ratio is
// folded into an exponential moving average and mapped through a tier
// table (the Hintro FareConfig design: R ≤ 1.5 → 1.0×, R > 1.5 →
// 1.2×, R > 2.0 → 1.5×) to a per-cell multiplier.
//
// Multipliers only change at epoch boundaries, which the engine
// advances deterministically at tick time under its ledger lock — so a
// quote reads one consistent (multiplier, epoch) pair, and the WAL can
// journal each epoch's state for bit-identical recovery.
package surge

import "sync"

// Tier maps a smoothed demand/supply ratio threshold to a fare
// multiplier: a cell whose EMA ratio exceeds MinRatio surges at least
// Multiplier. Tiers are evaluated highest threshold first.
type Tier struct {
	// MinRatio is the exclusive demand/supply threshold.
	MinRatio float64
	// Multiplier is the fare multiplier above the threshold.
	Multiplier float64
}

// DefaultTiers returns the default tier table: ≤1.5 → 1.0×,
// >1.5 → 1.2×, >2.0 → 1.5×.
func DefaultTiers() []Tier {
	return []Tier{{MinRatio: 1.5, Multiplier: 1.2}, {MinRatio: 2.0, Multiplier: 1.5}}
}

// Config parameterises a Tracker.
type Config struct {
	// Tiers is the ratio→multiplier table (nil = DefaultTiers).
	Tiers []Tier
	// Alpha is the EMA weight of the newest epoch's ratio, in (0,1]
	// (0 = 0.5). 1 disables smoothing entirely.
	Alpha float64
}

// Tracker accumulates per-cell demand between epochs and exposes the
// per-cell multipliers of the current epoch. Safe for concurrent use:
// demand recording and multiplier reads are fine-grained, Advance
// serialises against both.
type Tracker struct {
	mu     sync.RWMutex
	tiers  []Tier // sorted by MinRatio ascending
	alpha  float64
	epoch  uint64
	demand []float64 // requests quoted per cell since the last Advance
	ema    []float64 // smoothed demand/supply ratio per cell
	mult   []float64 // current multiplier per cell (derived from ema)
}

// New returns a tracker over numCells grid cells.
func New(numCells int, cfg Config) *Tracker {
	tiers := cfg.Tiers
	if tiers == nil {
		tiers = DefaultTiers()
	}
	// Copy and sort ascending so multiplierFor scans highest-first.
	sorted := append([]Tier(nil), tiers...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].MinRatio < sorted[j-1].MinRatio; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 0.5
	}
	t := &Tracker{
		tiers:  sorted,
		alpha:  alpha,
		demand: make([]float64, numCells),
		ema:    make([]float64, numCells),
		mult:   make([]float64, numCells),
	}
	for i := range t.mult {
		t.mult[i] = 1
	}
	return t
}

// RecordDemand counts one quoted request out of cell. Out-of-range
// cells (including -1) are ignored.
func (t *Tracker) RecordDemand(cell int32) {
	if cell < 0 || int(cell) >= len(t.demand) {
		return
	}
	t.mu.Lock()
	t.demand[cell]++
	t.mu.Unlock()
}

// Multiplier returns cell's current fare multiplier and the epoch it
// was computed at. Out-of-range cells read 1.
func (t *Tracker) Multiplier(cell int32) (float64, uint64) {
	if cell < 0 || int(cell) >= len(t.mult) {
		return 1, 0
	}
	t.mu.RLock()
	m, ep := t.mult[cell], t.epoch
	t.mu.RUnlock()
	return m, ep
}

// multiplierFor maps a smoothed ratio through the tier table.
func (t *Tracker) multiplierFor(ema float64) float64 {
	for i := len(t.tiers) - 1; i >= 0; i-- {
		if ema > t.tiers[i].MinRatio {
			return t.tiers[i].Multiplier
		}
	}
	return 1
}

// Advance closes the current epoch: each cell's accumulated demand is
// divided by its supply (floored at one vehicle, so an empty cell
// surges on any demand rather than dividing by zero), folded into the
// EMA, and mapped to the next epoch's multiplier. supply[c] is the
// vehicle count of cell c; len(supply) must equal NumCells. Demand
// counters reset to zero.
func (t *Tracker) Advance(supply []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := range t.demand {
		s := 1.0
		if c < len(supply) && supply[c] > 1 {
			s = float64(supply[c])
		}
		r := t.demand[c] / s
		t.ema[c] = t.alpha*r + (1-t.alpha)*t.ema[c]
		t.mult[c] = t.multiplierFor(t.ema[c])
		t.demand[c] = 0
	}
	t.epoch++
}

// State is a serialisable tracker snapshot. Multipliers are derived
// from the EMA on restore, so they are not stored.
type State struct {
	Epoch  uint64
	EMA    []float64 `json:",omitempty"`
	Demand []float64 `json:",omitempty"`
}

// State deep-copies the tracker's persistent state.
func (t *Tracker) State() State {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return State{
		Epoch:  t.epoch,
		EMA:    append([]float64(nil), t.ema...),
		Demand: append([]float64(nil), t.demand...),
	}
}

// Restore replaces the tracker's state with st (a snapshot restore).
// Cells beyond len(st.EMA) reset to idle.
func (t *Tracker) Restore(st State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch = st.Epoch
	for c := range t.ema {
		t.ema[c] = 0
		t.demand[c] = 0
		if c < len(st.EMA) {
			t.ema[c] = st.EMA[c]
		}
		if c < len(st.Demand) {
			t.demand[c] = st.Demand[c]
		}
		t.mult[c] = t.multiplierFor(t.ema[c])
	}
}

// RestoreEpoch replays one journaled epoch advance: the EMA vector and
// epoch number are installed, multipliers re-derived, and the demand
// counters reset — exactly the post-Advance state the live tracker
// had when the record was journaled.
func (t *Tracker) RestoreEpoch(epoch uint64, ema []float64) {
	t.Restore(State{Epoch: epoch, EMA: ema})
}

// Cells returns the epoch plus copies of the per-cell EMA ratios and
// multipliers, for surge introspection endpoints.
func (t *Tracker) Cells() (epoch uint64, ema, mult []float64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch, append([]float64(nil), t.ema...), append([]float64(nil), t.mult...)
}

// Panel is the aggregated statistics view of a tracker.
type Panel struct {
	// Epoch is the current epoch number.
	Epoch uint64
	// Cells is the tracked cell count.
	Cells int
	// ActiveCells counts cells currently surged (multiplier > 1).
	ActiveCells int
	// MaxMultiplier is the largest current multiplier (1 when idle).
	MaxMultiplier float64
	// AvgMultiplier is the mean multiplier over all cells.
	AvgMultiplier float64
}

// Panel snapshots the aggregated view.
func (t *Tracker) Panel() Panel {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p := Panel{Epoch: t.epoch, Cells: len(t.mult), MaxMultiplier: 1}
	if len(t.mult) == 0 {
		return p
	}
	sum := 0.0
	for _, m := range t.mult {
		sum += m
		if m > 1 {
			p.ActiveCells++
		}
		if m > p.MaxMultiplier {
			p.MaxMultiplier = m
		}
	}
	p.AvgMultiplier = sum / float64(len(t.mult))
	return p
}
