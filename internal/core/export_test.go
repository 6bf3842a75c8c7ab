package core

// SetSnapEvery replaces the automatic snapshot cadence (records between
// snapshots; negative disables them) for the crash tests. Call it
// before the engine is shared.
func (e *Engine) SetSnapEvery(n int) { e.snapEvery = n }

// QuotedDetour exposes the detour an option's price carries.
func QuotedDetour(price, ratio, sd float64) float64 { return quotedDetour(price, ratio, sd) }
