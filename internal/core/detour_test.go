package core

import (
	"math/rand"
	"testing"

	"ptrider/internal/kinetic"
	"ptrider/internal/pricing"
	"ptrider/internal/roadnet"
)

// TestQuotedDetourUndoesPricing: an option's price gives back the exact
// detour it was priced from, for detours and trip lengths anywhere on
// the distance grid up to 4,000 km, at every rider count's ratio under
// each surge multiplier tier. Choose relies on it: the detour it hands
// a CommitSlack re-probe must be the quoted one, bit for bit.
func TestQuotedDetourUndoesPricing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grid := func() float64 { return float64(rng.Int63n(4e6*roadnet.GridSteps)) / roadnet.GridSteps }
	for i := 0; i < 200000; i++ {
		delta, sd := grid(), grid()
		if i%7 == 0 {
			delta = 0
		}
		ratio := pricing.DefaultRatio(1+rng.Intn(4)) * []float64{1, 1.2, 1.5, 2}[rng.Intn(4)]
		spec := &ReqSpec{Kin: kinetic.Request{SD: sd}, Ratio: ratio}
		if got := quotedDetour(optionPrice(spec, delta), ratio, sd); got != delta {
			t.Fatalf("detour %v, trip %v, ratio %v: priced at %v, recovered %v", delta, sd, ratio, optionPrice(spec, delta), got)
		}
	}
}
