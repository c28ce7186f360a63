package sat

// varHeap is a binary max-heap of variables ordered by VSIDS activity,
// with an index map for decrease-key. It holds a pointer to the
// solver's activity slice so bumps are visible without copying. The
// solver keeps only bumped variables in it (see Solver.next); indices
// has one entry per variable, which NewVar appends.
type varHeap struct {
	activity *[]float64
	heap     []int32 // variables
	indices  []int32 // indices[v] = position in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{activity: act, indices: make([]int32, 1)}
}

// grow preallocates the index map for variables up to index n-1, the
// varHeap half of Solver.Grow. The heap array holds only bumped
// variables and grows with append.
func (h *varHeap) grow(n int) {
	h.indices = growCap(h.indices, n)
}

// compact trims the heap's storage: indices to its length, and the
// heap array to the variables with positive activity — the only ones
// backtracking re-inserts — so it never has to regrow before the next
// bump.
func (h *varHeap) compact() {
	h.indices = exact(h.indices)
	bumped := 0
	for _, a := range *h.activity {
		if a > 0 {
			bumped++
		}
	}
	heap := make([]int32, len(h.heap), max(len(h.heap), bumped))
	copy(heap, h.heap)
	h.heap = heap
}

func (h *varHeap) less(a, b int32) bool {
	return (*h.activity)[a] > (*h.activity)[b]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) insert(v Var) {
	if h.indices[v] >= 0 {
		return
	}
	h.indices[v] = int32(len(h.heap))
	h.heap = append(h.heap, int32(v))
	h.up(int(h.indices[v]))
}

// decrease restores the heap property after v's activity increased
// (key moved toward the top of a max-heap).
func (h *varHeap) decrease(v Var) {
	if h.inHeap(v) {
		h.up(int(h.indices[v]))
	}
}

func (h *varHeap) pop() Var {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap[0] = last
	h.indices[last] = 0
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return Var(v)
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		l := 2*i + 1
		if l >= len(h.heap) {
			break
		}
		c := l
		if r := l + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			c = r
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}
