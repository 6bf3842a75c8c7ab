package pricing

import (
	"math"
	"testing"
)

// stubSource surges one cell at a fixed multiplier and epoch.
type stubSource struct {
	cell  int32
	mult  float64
	epoch uint64
}

func (s stubSource) Multiplier(cell int32) (float64, uint64) {
	if cell == s.cell {
		return s.mult, s.epoch
	}
	return 1, s.epoch
}

// TestBaseOnlyPipelineBitIdentical pins the golden-equivalence
// contract: a pipeline with only the base stage must produce the exact
// float64 values of the static model — same Ratio, same Price, same
// MinPrice, bit for bit.
func TestBaseOnlyPipelineBitIdentical(t *testing.T) {
	m := NewModel(nil)
	p := NewPipeline(Base(m))
	for riders := 1; riders <= 4; riders++ {
		for _, sd := range []float64{1, 333.33, 5000, 123456.789} {
			fc := p.Resolve(riders, sd, -1)
			if fc.Ratio != m.Ratio(riders) {
				t.Fatalf("riders=%d: ratio %v != model %v", riders, fc.Ratio, m.Ratio(riders))
			}
			if got, want := fc.MinPrice(sd), m.MinPrice(riders, sd); got != want {
				t.Fatalf("riders=%d sd=%v: MinPrice %v != %v", riders, sd, got, want)
			}
			for _, delta := range []float64{0, 17.5, 912.0} {
				if got, want := fc.Price(delta, sd), m.Price(riders, delta, sd); got != want {
					t.Fatalf("riders=%d sd=%v delta=%v: Price %v != %v", riders, sd, delta, got, want)
				}
			}
			if fc.Multiplier != 1 {
				t.Fatalf("base-only context has multiplier %v", fc.Multiplier)
			}
		}
	}
}

// TestSurgeStageScalesRatio checks the surge stage multiplies the
// effective ratio for the surged cell only, and stamps the epoch.
func TestSurgeStageScalesRatio(t *testing.T) {
	m := NewModel(nil)
	src := stubSource{cell: 7, mult: 1.5, epoch: 3}
	p := NewPipeline(Base(m), Surge(src))

	hot := p.Resolve(2, 1000, 7)
	if hot.Multiplier != 1.5 || hot.Epoch != 3 {
		t.Fatalf("hot cell context = %+v", hot)
	}
	if want := m.Ratio(2) * 1.5; hot.Ratio != want {
		t.Fatalf("hot ratio %v, want %v", hot.Ratio, want)
	}

	cold := p.Resolve(2, 1000, 8)
	if cold.Multiplier != 1 || cold.Ratio != m.Ratio(2) {
		t.Fatalf("cold cell context = %+v", cold)
	}
	if cold.Epoch != 3 {
		t.Fatalf("cold cell should still stamp the epoch, got %d", cold.Epoch)
	}

	// Cell-less quotes skip the surge stage entirely.
	none := p.Resolve(2, 1000, -1)
	if none.Multiplier != 1 || none.Epoch != 0 || none.Ratio != m.Ratio(2) {
		t.Fatalf("cell-less context = %+v", none)
	}
}

// TestPriceMonotoneInDetour pins the property skyline pruning relies
// on: under any fixed context, price is strictly increasing in the
// detour delta, surged or not.
func TestPriceMonotoneInDetour(t *testing.T) {
	for _, mult := range []float64{1, 1.2, 1.5} {
		fc := FareContext{BaseRatio: 0.4, Multiplier: mult, Ratio: 0.4 * mult}
		prev := math.Inf(-1)
		for delta := 0.0; delta <= 5000; delta += 250 {
			pr := fc.Price(delta, 2000)
			if pr <= prev {
				t.Fatalf("mult=%v: price not increasing at delta=%v", mult, delta)
			}
			prev = pr
		}
		if fc.MinPrice(2000) != fc.Price(0, 2000) {
			t.Fatalf("mult=%v: MinPrice != zero-detour price", mult)
		}
	}
}
