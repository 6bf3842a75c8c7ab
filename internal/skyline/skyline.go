// Package skyline maintains the non-dominated result sets of PTRider
// (paper §2.5): a result ri = ⟨c, time, price⟩ dominates rj iff
//
//	(ri.time ≤ rj.time ∧ ri.price < rj.price) ∨
//	(ri.time < rj.time ∧ ri.price ≤ rj.price)
//
// — the skyline operator of Börzsönyi et al. over the (pick-up time,
// price) plane. Ties (equal time and price) do not dominate each other,
// so distinct vehicles offering identical options can coexist.
//
// The skyline also answers the threshold queries the search algorithms
// use for pruning: "would a hypothetical option at (t, p) be dominated?"
// asked with lower-bound coordinates, which is safe because dominance is
// monotone — if the optimistic (t, p) is dominated, every achievable
// option of that vehicle is too.
package skyline

// Dominates reports whether option (t1, p1) dominates option (t2, p2)
// under the paper's Definition 4.
func Dominates(t1, p1, t2, p2 float64) bool {
	return (t1 <= t2 && p1 < p2) || (t1 < t2 && p1 <= p2)
}

// Entry is a skyline member: a (time, price) point carrying an opaque
// payload (the concrete offer behind the point).
type Entry[T any] struct {
	Time    float64
	Price   float64
	Payload T
}

// Skyline is a mutable non-dominated set. The zero value is an empty
// skyline ready for use. Not safe for concurrent use.
type Skyline[T any] struct {
	entries []Entry[T]
}

// Reset empties the skyline, retaining storage.
func (s *Skyline[T]) Reset() { s.entries = s.entries[:0] }

// IsDominated reports whether a candidate at (t, p) would be dominated
// by an existing entry.
func (s *Skyline[T]) IsDominated(t, p float64) bool {
	for i := range s.entries {
		if Dominates(s.entries[i].Time, s.entries[i].Price, t, p) {
			return true
		}
	}
	return false
}

// Insert adds the entry unless it is dominated, removing any entries the
// new one dominates. It reports whether the entry was added.
func (s *Skyline[T]) Insert(e Entry[T]) bool {
	if s.IsDominated(e.Time, e.Price) {
		return false
	}
	kept := s.entries[:0]
	for i := range s.entries {
		if !Dominates(e.Time, e.Price, s.entries[i].Time, s.entries[i].Price) {
			kept = append(kept, s.entries[i])
		}
	}
	s.entries = append(kept, e)
	return true
}

// Add is Insert for callers that have the fields rather than an Entry.
func (s *Skyline[T]) Add(t, p float64, payload T) bool {
	return s.Insert(Entry[T]{Time: t, Price: p, Payload: payload})
}

// ContainsPoint reports whether an entry with exactly the coordinates
// (t, p) is present. Ties do not dominate each other, so callers that
// want at most one offer per coordinate pair check this before Insert.
func (s *Skyline[T]) ContainsPoint(t, p float64) bool {
	for i := range s.entries {
		if s.entries[i].Time == t && s.entries[i].Price == p {
			return true
		}
	}
	return false
}

// Sorted sorts the skyline's internal storage by time ascending (price
// ascending at ties) and returns it without copying, for callers that
// consume the result before the next mutation. The returned slice
// aliases the skyline; it is invalidated by any subsequent
// Insert/Add/Reset.
func (s *Skyline[T]) Sorted() []Entry[T] {
	sortEntries(s.entries)
	return s.entries
}

// sortEntries orders by time ascending, price ascending at ties.
// Skylines are small (one entry per non-dominated offer), so an
// allocation-free insertion sort beats sort.Slice, whose reflection
// footprint showed up as a leading allocator in match profiles.
func sortEntries[T any](out []Entry[T]) {
	for i := 1; i < len(out); i++ {
		e := out[i]
		j := i - 1
		for j >= 0 && (out[j].Time > e.Time || (out[j].Time == e.Time && out[j].Price > e.Price)) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = e
	}
}
