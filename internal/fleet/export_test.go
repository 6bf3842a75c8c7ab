package fleet

import (
	"slices"

	"ptrider/internal/kinetic"
	"ptrider/internal/roadnet"
)

// Reprobe exposes Commit's re-probe to the external tests.
func (f *Fleet) Reprobe(v *Vehicle, req kinetic.Request, cand kinetic.Candidate, slack float64) (kinetic.Candidate, bool) {
	return f.reprobe(v, req, cand, slack)
}

// PlannedRoute returns a copy of the route the vehicle drives next,
// planned as driving plans it: to its next stop, or the kept route
// (nil) when it has none.
func (f *Fleet) PlannedRoute(v *Vehicle) []roadnet.VertexID {
	v.mu.Lock()
	defer v.mu.Unlock()
	if next, ok := v.Tree.BestStop(0); ok {
		return slices.Clone(f.routeLocked(v, next.Loc))
	}
	return slices.Clone(v.route)
}
