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
	return unpackSeq(t.bestPerm, t.pts)
}

// QuoteSeqs quotes req as AppendQuote(nil, req, seed, bound) does and
// returns the candidates with the stop sequence behind each.
func (t *Tree) QuoteSeqs(req Request, seed *QuoteSeed, bound Bound) ([]Candidate, [][]Point) {
	ws := acquireWorkspace()
	defer ws.release()
	var cands []Candidate
	var seqs [][]Point
	for _, e := range t.quoteSkyline(ws, req, seed, bound) {
		cands = append(cands, Candidate{PickupDist: e.Time, Delta: e.Price})
		seqs = append(seqs, unpackSeq(e.Payload, ws.pts))
	}
	return cands, seqs
}
