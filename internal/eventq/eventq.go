// Package eventq is the discrete-event queue of the traffic engine
// (internal/serverless) and the fleet simulator (internal/cluster): a
// min-heap of payloads keyed by (simulated time, insertion order).
package eventq

import "lukewarm/internal/mem"

// entry is one queued payload with its ordering key.
type entry[T any] struct {
	at  mem.Cycle
	seq int // insertion order: breaks time ties deterministically
	v   T
}

// Queue is a min-heap ordered by (time, insertion order). The ordering is
// total, so the pop sequence — the only observable — is independent of heap
// internals. The key sits beside the payload, so ordering makes no call
// through the type parameter, and the typed backing array means a push
// never boxes its payload into an interface. The zero value is empty and
// ready to use.
type Queue[T any] struct {
	h   []entry[T]
	seq int
}

// Len reports the number of queued payloads.
func (q *Queue[T]) Len() int { return len(q.h) }

// Due counts the payloads queued at or before now.
func (q *Queue[T]) Due(now mem.Cycle) int {
	n := 0
	for _, e := range q.h {
		if e.at <= now {
			n++
		}
	}
	return n
}

// less orders entries i and j of h.
func less[T any](h []entry[T], i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// Push queues v at time at, after every payload already queued at the same
// time.
//
//lukewarm:hotpath noalloc one push per generated invocation and fleet event; boxing here was the dispatch loops' last steady-state allocation
func (q *Queue[T]) Push(at mem.Cycle, v T) {
	q.h = append(q.h, entry[T]{at: at, seq: q.seq, v: v})
	q.seq++
	h := q.h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !less(h, i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop removes the earliest payload and returns it with its time. The queue
// must not be empty.
//
//lukewarm:hotpath noalloc,noescape one pop per dispatched invocation and fleet event; pure in-place swaps
func (q *Queue[T]) Pop() (mem.Cycle, T) {
	h := q.h
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	q.h = h
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && less(h, r, l) {
			child = r
		}
		if !less(h, child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	return top.at, top.v
}
