package core

import "math/rand"

// countedSource is the placement stream's rand.Source64 (Engine.rng,
// which AddVehiclesUniform and RandomVertex draw from). Go's rand.Rand
// derives bounded draws (Intn) by rejection sampling, so the number of
// *calls* is not the number of *state steps* the source takes —
// replaying calls would desynchronise the stream. The source therefore
// counts at the rand.Source64 level, where every Int63 or Uint64 is
// exactly one generator state step; snapshots and addv records carry
// that count and recovery re-seeds and burns that many raw steps. The
// wrapper is a pure pass-through, so it draws the identical sequence an
// unwrapped source would.
type countedSource struct {
	src rand.Source64
	n   uint64
}

// newCountedSource returns a counted source over the standard
// generator seeded with seed.
func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source: one generator state step.
func (s *countedSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Uint64 implements rand.Source64: one generator state step.
func (s *countedSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

// Seed implements rand.Source, resetting the step count.
func (s *countedSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// Draws returns the number of state steps taken since seeding.
func (s *countedSource) Draws() uint64 { return s.n }

// Burn advances the source by n raw state steps — the restore-side
// inverse of Draws.
func (s *countedSource) Burn(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.n += n
}
