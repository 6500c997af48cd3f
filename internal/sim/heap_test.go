package sim

import "container/heap"

// The binary heap below is the reference the ladder queue is checked
// against (TestKernelDifferential, FuzzKernelOps). It plugs into a real
// Scheduler through the kernel interface, so the oracle runs the same
// At/Cancel/Step/Run/Ticker and free-list code as production and only the
// queue differs.

// newHeapScheduler returns a scheduler driven by the reference heap.
func newHeapScheduler() *Scheduler {
	s := &Scheduler{}
	s.k = &heapKernel{s: s}
	return s
}

// eventQueue is a container/heap min-heap ordered by (at, seq); each
// event's index field holds its heap slot.
type eventQueue []*event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return cmpEvent(q[i], q[j]) < 0 }

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// heapKernel adapts the binary heap to the kernel interface. Cancelled
// events leave the heap eagerly, so everything stored is live.
type heapKernel struct {
	s *Scheduler
	q eventQueue
}

func (k *heapKernel) len() int { return len(k.q) }

func (k *heapKernel) push(ev *event) { heap.Push(&k.q, ev) }

func (k *heapKernel) peek() *event {
	if len(k.q) == 0 {
		return nil
	}
	return k.q[0]
}

func (k *heapKernel) pop() *event {
	if len(k.q) == 0 {
		return nil
	}
	return heap.Pop(&k.q).(*event)
}

func (k *heapKernel) cancel(ev *event) bool {
	heap.Remove(&k.q, ev.index)
	k.s.release(ev)
	return true
}

func (k *heapKernel) each(fn func(*event)) {
	for _, ev := range k.q {
		fn(ev)
	}
}
