package sim

// The 4-ary min-heap: the whole event queue in QueueHeap mode (the reference
// implementation the differential determinism suite compares against), and
// everything behind the sorted run in the default mode. A 4-ary layout halves the tree depth of a binary heap and keeps parent and
// child slots on the same cache lines; events live by value in the backing
// array, which doubles as the free list.

// heapPush appends ev and restores the heap property.
//
//first:hotpath reached through the Schedule pin
func (k *Kernel) heapPush(ev event) {
	k.heap = append(k.heap, ev)
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// heapPop removes and returns the root event.
//
//first:hotpath reached through the Run pin
func (k *Kernel) heapPop() event {
	h := k.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure
	k.heap = h[:n]
	if n > 0 {
		k.heapSiftDown(last)
	}
	return root
}

// heapSiftDown places ev (logically at the root) into its heap position.
func (k *Kernel) heapSiftDown(ev event) {
	h := k.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1 // first of up to four children
		if c >= n {
			break
		}
		// Select the smallest child.
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[min]) {
				min = j
			}
		}
		if !h[min].before(&ev) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ev
}
