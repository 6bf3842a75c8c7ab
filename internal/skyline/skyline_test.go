package skyline_test

import (
	"math/rand"
	"testing"

	"ptrider/internal/skyline"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		t1, p1, t2, p2 float64
		want           bool
	}{
		{1, 1, 2, 2, true},  // strictly better in both
		{1, 2, 1, 3, true},  // equal time, lower price
		{1, 2, 2, 2, true},  // lower time, equal price
		{1, 2, 1, 2, false}, // identical: no strict component
		{2, 1, 1, 2, false}, // incomparable
		{1, 3, 2, 2, false}, // better time, worse price
		{3, 3, 2, 2, false}, // strictly worse
	}
	for _, c := range cases {
		if got := skyline.Dominates(c.t1, c.p1, c.t2, c.p2); got != c.want {
			t.Errorf("Dominates(%v,%v | %v,%v) = %v, want %v", c.t1, c.p1, c.t2, c.p2, got, c.want)
		}
	}
}

func TestInsertRejectsDominated(t *testing.T) {
	var s skyline.Skyline[string]
	if !s.Add(10, 5, "a") {
		t.Fatal("first insert rejected")
	}
	if s.Add(12, 6, "b") {
		t.Fatal("dominated insert accepted")
	}
	if len(s.Sorted()) != 1 {
		t.Fatalf("Len = %d", len(s.Sorted()))
	}
}

func TestInsertEvictsDominated(t *testing.T) {
	var s skyline.Skyline[string]
	s.Add(10, 5, "a")
	s.Add(5, 10, "b")
	s.Add(4, 4, "c") // dominates both
	if len(s.Sorted()) != 1 {
		t.Fatalf("Len = %d, want 1", len(s.Sorted()))
	}
	if e := s.Sorted()[0]; e.Payload != "c" {
		t.Fatalf("surviving payload %q", e.Payload)
	}
}

func TestTiesCoexist(t *testing.T) {
	var s skyline.Skyline[int]
	s.Add(3, 3, 1)
	if !s.Add(3, 3, 2) {
		t.Fatal("tie rejected; identical points do not dominate each other")
	}
	if len(s.Sorted()) != 2 {
		t.Fatalf("Len = %d, want 2", len(s.Sorted()))
	}
	if !s.ContainsPoint(3, 3) {
		t.Fatal("ContainsPoint missed an existing coordinate pair")
	}
	if s.ContainsPoint(3, 4) {
		t.Fatal("ContainsPoint found a non-member")
	}
}

func TestEntriesSortedByTime(t *testing.T) {
	var s skyline.Skyline[int]
	s.Add(5, 1, 0)
	s.Add(1, 5, 1)
	s.Add(3, 3, 2)
	es := s.Sorted()
	if len(es) != 3 {
		t.Fatalf("Len = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Time < es[i-1].Time {
			t.Fatalf("Entries unsorted: %+v", es)
		}
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		type pt struct{ t, p float64 }
		pts := make([]pt, n)
		for i := range pts {
			// Small integer coordinates force plenty of ties.
			pts[i] = pt{float64(rng.Intn(8)), float64(rng.Intn(8))}
		}
		var s skyline.Skyline[int]
		for i, q := range pts {
			s.Add(q.t, q.p, i)
		}
		// Reference: a point survives iff no other point dominates it;
		// exact duplicates collapse to one (matching Insert's behaviour
		// of rejecting what IsDominated allows but keeping first of
		// exact ties — both orders yield the same coordinate multiset
		// because ties never dominate).
		want := map[pt]bool{}
		for _, q := range pts {
			dominated := false
			for _, r := range pts {
				if skyline.Dominates(r.t, r.p, q.t, q.p) {
					dominated = true
					break
				}
			}
			if !dominated {
				want[q] = true
			}
		}
		got := map[pt]bool{}
		for _, e := range s.Sorted() {
			got[pt{e.Time, e.Price}] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d distinct skyline points, want %d\ngot %v\nwant %v", trial, len(got), len(want), got, want)
		}
		for q := range want {
			if !got[q] {
				t.Fatalf("trial %d: missing skyline point %v", trial, q)
			}
		}
	}
}

func TestIsDominatedThresholdQuery(t *testing.T) {
	var s skyline.Skyline[int]
	s.Add(10, 5, 0)
	if !s.IsDominated(11, 6) {
		t.Error("worse point should be dominated")
	}
	if s.IsDominated(10, 5) {
		t.Error("identical point is not dominated")
	}
	if s.IsDominated(9, 100) {
		t.Error("earlier but pricier point is not dominated")
	}
}

func TestReset(t *testing.T) {
	var s skyline.Skyline[int]
	s.Add(1, 1, 0)
	s.Reset()
	if len(s.Sorted()) != 0 {
		t.Fatal("Reset did not empty the skyline")
	}
	if !s.Add(2, 2, 1) {
		t.Fatal("skyline unusable after Reset")
	}
}
