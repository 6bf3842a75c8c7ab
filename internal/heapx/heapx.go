// Package heapx provides DistHeap, the typed binary min-heap behind
// every graph search in PTRider.
//
// The standard library's container/heap forces an interface-based
// element type and allocates on every Push via interface boxing. The
// searches in internal/roadnet sit on the hot path of request matching,
// so DistHeap is a concrete (node id, float64 priority) heap with
// lazy-deletion semantics: duplicates are allowed, and the caller skips
// stale entries. It is zero-value ready and intentionally
// unsynchronised; callers own their synchronisation.
package heapx

// DistItem is an entry of a DistHeap: a node identifier with its
// tentative distance.
type DistItem struct {
	Node int32
	Dist float64
}

// DistHeap is a binary min-heap of DistItems ordered by Dist. The zero
// value is an empty heap ready for use.
type DistHeap struct {
	items []DistItem
}

// NewDistHeap returns a heap with storage preallocated for n items.
func NewDistHeap(n int) *DistHeap {
	return &DistHeap{items: make([]DistItem, 0, n)}
}

// Len returns the number of items in the heap.
func (h *DistHeap) Len() int { return len(h.items) }

// Reset empties the heap while retaining its storage.
func (h *DistHeap) Reset() { h.items = h.items[:0] }

// Push adds node with the given tentative distance.
func (h *DistHeap) Push(node int32, dist float64) {
	h.items = append(h.items, DistItem{Node: node, Dist: dist})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the item with the smallest distance. It must
// not be called on an empty heap.
func (h *DistHeap) Pop() DistItem {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// Peek returns the smallest item without removing it. It must not be
// called on an empty heap.
func (h *DistHeap) Peek() DistItem { return h.items[0] }

func (h *DistHeap) up(i int) {
	item := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Dist <= item.Dist {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = item
}

func (h *DistHeap) down(i int) {
	n := len(h.items)
	item := h.items[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.items[right].Dist < h.items[left].Dist {
			child = right
		}
		if item.Dist <= h.items[child].Dist {
			break
		}
		h.items[i] = h.items[child]
		i = child
	}
	h.items[i] = item
}
