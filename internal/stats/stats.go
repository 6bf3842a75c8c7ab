// Package stats provides the online statistics behind PTRider's website
// interface (paper §4.2): running means and variances, P²-estimated
// quantiles without sample retention, and fixed-bin histograms, all
// O(1) per observation so the statistics panel never perturbs the
// matching measurements.
package stats

import (
	"math"
	"sort"
)

// Online accumulates count, mean, variance, min and max with Welford's
// algorithm. The zero value is ready for use.
type Online struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Observe adds x.
func (o *Online) Observe(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Count returns the number of observations.
func (o *Online) Count() int64 { return o.n }

// Mean returns the running mean (zero when empty).
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance (zero with < 2 samples).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Min returns the smallest observation (+Inf when empty).
func (o *Online) Min() float64 {
	if o.n == 0 {
		return math.Inf(1)
	}
	return o.min
}

// Max returns the largest observation (-Inf when empty).
func (o *Online) Max() float64 {
	if o.n == 0 {
		return math.Inf(-1)
	}
	return o.max
}

// P2Quantile estimates a single quantile online with the P² algorithm
// (Jain & Chlamtac 1985): five markers, O(1) memory and time per
// observation. Construct with NewP2Quantile.
type P2Quantile struct {
	p       float64
	n       int64
	heights [5]float64
	pos     [5]float64
	want    [5]float64
	dwant   [5]float64
	init    []float64
}

// NewP2Quantile returns an estimator for the p-quantile, 0 < p < 1.
func NewP2Quantile(p float64) *P2Quantile {
	q := &P2Quantile{p: p, init: make([]float64, 0, 5)}
	q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.dwant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q
}

// Observe adds x.
func (q *P2Quantile) Observe(x float64) {
	q.n++
	if len(q.init) < 5 {
		q.init = append(q.init, x)
		if len(q.init) == 5 {
			sort.Float64s(q.init)
			copy(q.heights[:], q.init)
			q.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}

	// Locate the cell containing x and update extreme markers.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := range q.want {
		q.want[i] += q.dwant[i]
	}

	// Adjust interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := q.parabolic(i, s)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, s)
			}
			q.pos[i] += s
		}
	}
}

func (q *P2Quantile) parabolic(i int, s float64) float64 {
	return q.heights[i] + s/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+s)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-s)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

func (q *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return q.heights[i] + s*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it returns the exact sample quantile.
func (q *P2Quantile) Value() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	if len(q.init) < 5 {
		tmp := append([]float64(nil), q.init...)
		sort.Float64s(tmp)
		idx := int(q.p * float64(len(tmp)-1))
		return tmp[idx]
	}
	return q.heights[2]
}

// Count returns the number of observations.
func (q *P2Quantile) Count() int64 { return q.n }
