package fleet

import (
	"math/bits"
	"testing"
)

// TestRoamStreamIsSplitMix64: with seed 0, draw n is SplitMix64's
// (n)th output, so the reference generator's first outputs pin the
// mixing constants and the n·γ stepping.
func TestRoamStreamIsSplitMix64(t *testing.T) {
	s := roamStream{}
	s.next() // draw 0 mixes the bare seed; SplitMix64 adds γ before its first output
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := s.next(); got != want {
			t.Fatalf("output %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestRoamStreamIntnUnbiased: a chi-square test of intn's uniformity at
// k = 2..5 over 60k draws of a fixed seed, against the 0.1 % critical
// value of k−1 degrees of freedom.
func TestRoamStreamIntnUnbiased(t *testing.T) {
	const draws = 60000
	crit := map[int]float64{2: 10.83, 3: 13.82, 4: 16.27, 5: 18.47}
	for k := 2; k <= 5; k++ {
		s := roamStream{seed: vehicleSeed(42, VehicleID(k))}
		counts := make([]int, k)
		for i := 0; i < draws; i++ {
			counts[s.intn(k)]++
		}
		exp := float64(draws) / float64(k)
		chi := 0.0
		for _, c := range counts {
			d := float64(c) - exp
			chi += d * d / exp
		}
		if chi > crit[k] {
			t.Errorf("k=%d: chi-square %.2f > %.2f (counts %v)", k, chi, crit[k], counts)
		}
	}
}

// TestRoamStreamCountsRejections: every raw draw advances n, rejected
// ones included. At k = 2^62+1 Lemire's method rejects about a quarter
// of raw draws, so over 1000 calls n must pass the call count, each
// call's answer must come from its last raw draw, and every raw draw it
// skipped must be one the method rejects.
func TestRoamStreamCountsRejections(t *testing.T) {
	var k uint64 = 1<<62 + 1
	threshold := -k % k
	s := roamStream{seed: vehicleSeed(7, 3)}
	for call := 0; call < 1000; call++ {
		before := s.n
		got := s.intn(int(k))
		ref := roamStream{seed: s.seed, n: before}
		for ref.n < s.n-1 {
			if _, lo := bits.Mul64(ref.next(), k); lo >= threshold {
				t.Fatalf("call %d: raw draw %d was acceptable but skipped", call, ref.n-1)
			}
		}
		if hi, _ := bits.Mul64(ref.next(), k); int(hi) != got {
			t.Fatalf("call %d: intn = %d, last raw draw maps to %d", call, got, hi)
		}
	}
	if s.n <= 1000 {
		t.Fatalf("n = %d after 1000 calls: no rejection was counted", s.n)
	}
}
