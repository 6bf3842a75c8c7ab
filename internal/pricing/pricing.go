// Package pricing implements PTRider's price model (paper §2.4): the
// price of serving request R = ⟨s, d, n, w, σ⟩ with vehicle c is
//
//	price = f_n × (dist_trj − dist_tri + dist(s, d))
//
// where tri is c's current trip schedule, trj the schedule after
// inserting R, and f_n a per-rider-count price ratio. The default ratio
// is the paper's f_n = 0.3 + (n−1)·0.1; the demo's website interface
// lets the administrator supply a different "price calculator function",
// which maps here to providing a custom RatioFunc.
package pricing

import "fmt"

// RatioFunc maps the number of riders n (n ≥ 1) to the price ratio f_n.
type RatioFunc func(n int) float64

// DefaultRatio is the paper's ratio: f_n = 0.3 + (n−1)·0.1.
func DefaultRatio(n int) float64 { return 0.3 + float64(n-1)*0.1 }

// Model prices ridesharing requests. The zero value is not usable;
// construct with NewModel.
type Model struct {
	ratio RatioFunc
}

// NewModel returns a Model using the given ratio function, or the
// paper's default when ratio is nil.
func NewModel(ratio RatioFunc) Model {
	if ratio == nil {
		ratio = DefaultRatio
	}
	return Model{ratio: ratio}
}

// Ratio returns f_n for n riders.
func (m Model) Ratio(n int) float64 { return m.ratio(n) }

// Price returns the price for n riders given the detour delta
// (dist_trj − dist_tri) and the direct trip distance dist(s, d).
func (m Model) Price(n int, detourDelta, tripDist float64) float64 {
	return m.ratio(n) * (detourDelta + tripDist)
}

// Validate checks that the ratio is positive for rider counts 1..maxN;
// a non-positive ratio would break the search pruning, which assumes
// price grows with detour.
func (m Model) Validate(maxN int) error {
	for n := 1; n <= maxN; n++ {
		if m.ratio(n) <= 0 {
			return fmt.Errorf("pricing: ratio f_%d = %v is not positive", n, m.ratio(n))
		}
	}
	return nil
}
