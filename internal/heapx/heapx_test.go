package heapx_test

import (
	"sort"
	"testing"
	"testing/quick"

	"ptrider/internal/heapx"
)

func TestDistHeapOrdering(t *testing.T) {
	h := heapx.NewDistHeap(4)
	in := []float64{5, 1, 4, 2, 3, 0, 9, 7, 8, 6}
	for i, d := range in {
		h.Push(int32(i), d)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	prev := -1.0
	for h.Len() > 0 {
		it := h.Pop()
		if it.Dist < prev {
			t.Fatalf("Pop out of order: %v after %v", it.Dist, prev)
		}
		prev = it.Dist
	}
}

func TestDistHeapPeekAndReset(t *testing.T) {
	h := heapx.NewDistHeap(0)
	h.Push(1, 3)
	h.Push(2, 1)
	if p := h.Peek(); p.Node != 2 || p.Dist != 1 {
		t.Errorf("Peek = %+v", p)
	}
	if h.Len() != 2 {
		t.Errorf("Peek must not remove; Len = %d", h.Len())
	}
	h.Reset()
	if h.Len() != 0 {
		t.Errorf("Reset left %d items", h.Len())
	}
	h.Push(7, 42)
	if p := h.Pop(); p.Node != 7 || p.Dist != 42 {
		t.Errorf("heap unusable after Reset: %+v", p)
	}
}

func TestDistHeapRandomisedHeapSort(t *testing.T) {
	f := func(values []float64) bool {
		h := heapx.NewDistHeap(len(values))
		clean := values[:0:0]
		for _, v := range values {
			if v == v { // drop NaNs, which have no total order
				clean = append(clean, v)
			}
		}
		for i, v := range clean {
			h.Push(int32(i), v)
		}
		got := make([]float64, 0, len(clean))
		for h.Len() > 0 {
			got = append(got, h.Pop().Dist)
		}
		want := append([]float64(nil), clean...)
		sort.Float64s(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistHeapDuplicatesStay(t *testing.T) {
	h := heapx.NewDistHeap(0)
	h.Push(1, 5)
	h.Push(1, 3)
	h.Push(1, 4)
	if h.Len() != 3 {
		t.Fatalf("duplicates must be kept (lazy deletion); Len = %d", h.Len())
	}
	if d := h.Pop().Dist; d != 3 {
		t.Errorf("first Pop = %v, want 3", d)
	}
}
