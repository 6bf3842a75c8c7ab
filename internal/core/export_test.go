package core

// SetSnapEvery replaces the automatic snapshot cadence (records between
// snapshots; negative disables them) for the crash tests. Call it
// before the engine is shared.
func (e *Engine) SetSnapEvery(n int) { e.snapEvery = n }
