package pricing_test

import (
	"math"
	"testing"
	"testing/quick"

	"ptrider/internal/pricing"
)

func TestDefaultRatio(t *testing.T) {
	want := []float64{0.3, 0.4, 0.5, 0.6}
	for n := 1; n <= 4; n++ {
		if got := pricing.DefaultRatio(n); math.Abs(got-want[n-1]) > 1e-12 {
			t.Errorf("f_%d = %v, want %v", n, got, want[n-1])
		}
	}
}

// TestPaperWorkedExamplePrices checks the two prices printed in §2.4
// and §2.5: inserting R2 (2 riders) into c1 with detour delta 3 and
// dist(v12,v17)=7 costs f2·(3+7) = 4; the empty vehicle c2 at distance
// 8 costs f2·(8+2·7) = 8.8.
func TestPaperWorkedExamplePrices(t *testing.T) {
	m := pricing.NewModel(nil)
	if got := m.Price(2, 3, 7); math.Abs(got-4) > 1e-12 {
		t.Errorf("c1 price = %v, want 4", got)
	}
	// Empty vehicle: delta = dist(l,s) + dist(s,d), plus dist(s,d) again
	// from the model, i.e. f2·(8+7+7).
	if got := m.Price(2, 8+7, 7); math.Abs(got-8.8) > 1e-12 {
		t.Errorf("c2 price = %v, want 8.8", got)
	}
}

func TestCustomRatio(t *testing.T) {
	m := pricing.NewModel(func(n int) float64 { return 1.0 })
	if got := m.Price(3, 2, 5); got != 7 {
		t.Errorf("custom ratio price = %v, want 7", got)
	}
	if got := m.Ratio(9); got != 1.0 {
		t.Errorf("Ratio = %v", got)
	}
}

func TestMinPriceIsFloor(t *testing.T) {
	m := pricing.NewModel(nil)
	p := pricing.NewPipeline(pricing.Base(m))
	f := func(delta, trip float64) bool {
		delta = math.Abs(math.Mod(delta, 1e6))
		trip = math.Abs(math.Mod(trip, 1e6))
		return m.Price(2, delta, trip) >= p.Resolve(2, trip, -1).MinPrice(trip)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	if err := pricing.NewModel(nil).Validate(8); err != nil {
		t.Errorf("default ratio should validate: %v", err)
	}
	bad := pricing.NewModel(func(n int) float64 { return float64(2 - n) })
	if err := bad.Validate(4); err == nil {
		t.Error("non-positive ratio should fail validation")
	}
}

func TestPriceMonotoneInDetour(t *testing.T) {
	m := pricing.NewModel(nil)
	prev := -1.0
	for delta := 0.0; delta <= 100; delta += 10 {
		p := m.Price(1, delta, 50)
		if p <= prev {
			t.Fatalf("price not increasing with detour at delta=%v", delta)
		}
		prev = p
	}
}
