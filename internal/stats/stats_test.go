package stats_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ptrider/internal/stats"
)

func TestOnlineBasics(t *testing.T) {
	var o stats.Online
	if o.Count() != 0 || o.Mean() != 0 {
		t.Fatal("zero value not empty")
	}
	if !math.IsInf(o.Min(), 1) || !math.IsInf(o.Max(), -1) {
		t.Fatal("empty min/max should be ±Inf")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Observe(x)
	}
	if o.Count() != 8 {
		t.Fatalf("Count = %d", o.Count())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", o.Mean())
	}
	// Sample (unbiased) variance of that classic set is 32/7.
	if math.Abs(o.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v", o.Var())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var o stats.Online
	xs := make([]float64, 1000)
	sum := 0.0
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 3
		sum += xs[i]
		o.Observe(xs[i])
	}
	mean := sum / float64(len(xs))
	if math.Abs(o.Mean()-mean) > 1e-9 {
		t.Fatalf("Mean drifted: %v vs %v", o.Mean(), mean)
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if math.Abs(o.Var()-ss/float64(len(xs)-1)) > 1e-6 {
		t.Fatalf("Var drifted: %v vs %v", o.Var(), ss/float64(len(xs)-1))
	}
}

func TestP2QuantileSmallSamples(t *testing.T) {
	q := stats.NewP2Quantile(0.5)
	if !math.IsNaN(q.Value()) {
		t.Fatal("empty estimator should be NaN")
	}
	q.Observe(3)
	q.Observe(1)
	q.Observe(2)
	// With < 5 samples the exact sample quantile is returned.
	if v := q.Value(); v != 2 {
		t.Fatalf("median of {1,2,3} = %v", v)
	}
}

func TestP2QuantileConvergesOnUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, p := range []float64{0.5, 0.9, 0.95} {
		q := stats.NewP2Quantile(p)
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			q.Observe(xs[i])
		}
		sort.Float64s(xs)
		exact := xs[int(p*float64(len(xs)))]
		if math.Abs(q.Value()-exact) > 3 { // 3% of the range
			t.Errorf("p=%v: estimate %v, exact %v", p, q.Value(), exact)
		}
		if q.Count() != 20000 {
			t.Errorf("Count = %d", q.Count())
		}
	}
}

func TestP2QuantileConvergesOnNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := stats.NewP2Quantile(0.95)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		q.Observe(xs[i])
	}
	sort.Float64s(xs)
	exact := xs[int(0.95*float64(len(xs)))]
	if math.Abs(q.Value()-exact) > 0.1 {
		t.Fatalf("P95 estimate %v, exact %v", q.Value(), exact)
	}
}
