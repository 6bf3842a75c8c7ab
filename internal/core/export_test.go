package core

// SetSnapEvery replaces the automatic snapshot cadence (records between
// snapshots; negative disables them) for the crash tests. Call it
// before the engine is shared.
func (e *Engine) SetSnapEvery(n int) { e.snapEvery = n }

// SurgeCells exposes the surge tracker's epoch and per-cell EMA ratios
// and multipliers (zero values with surge off).
func (e *Engine) SurgeCells() (epoch uint64, ema, mult []float64) {
	if e.tracker == nil {
		return 0, nil, nil
	}
	return e.tracker.Cells()
}

// QuotedDetour exposes the detour an option's price carries.
func QuotedDetour(price, ratio, sd float64) float64 { return quotedDetour(price, ratio, sd) }
