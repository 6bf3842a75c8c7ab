package kinetic

// BestDist returns the total distance of the shortest valid schedule,
// zero for an empty tree.
func (t *Tree) BestDist() float64 {
	t.ensureFresh()
	return t.bestDist
}

// MaxLeg returns the longest leg across the valid schedules, rebuilt.
func (t *Tree) MaxLeg() float64 {
	t.ensureFresh()
	return t.maxLeg
}

// BestBranch returns the shortest valid schedule, nil for an empty tree.
func (t *Tree) BestBranch() []Point {
	if _, ok := t.BestStop(0); !ok {
		return nil
	}
	return UnpackSeq(t.bestPerm, t.pts)
}
