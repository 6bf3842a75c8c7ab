package fleet

import "ptrider/internal/kinetic"

// Reprobe exposes Commit's re-probe to the external tests.
func (f *Fleet) Reprobe(v *Vehicle, req kinetic.Request, cand kinetic.Candidate, slack float64) (kinetic.Candidate, bool) {
	return f.reprobe(v, req, cand, slack)
}
