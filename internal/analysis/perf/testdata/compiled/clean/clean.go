// Package clean is the passing CompileCheck fixture: every annotation's
// invariants hold, so the gate must report nothing.
package clean

//lukewarm:hotpath noalloc,noescape,inline,nobce fixture: branch-free register arithmetic stays on the stack
func mix(a, b uint64) uint64 {
	a ^= b << 13
	b ^= a >> 7
	return a + b
}

//lukewarm:hotpath noalloc,nobce fixture: the mask proves the index in range, eliminating the bounds check
func lookup(table *[256]uint8, x uint64) uint8 {
	return table[x&255]
}

type node struct {
	next *node
	vals [4]uint64
}

type pool struct{ free *node }

//lukewarm:hotpath noalloc fixture: recycles nodes; the refill callee carries the one waived allocation
func (p *pool) take() *node {
	if n := p.free; n != nil {
		p.free = n.next
		return n
	}
	return p.refill()
}

// refill is reached from take, so it is held to noalloc; its allocation is
// amortized and waived.
//
//go:noinline
func (p *pool) refill() *node {
	//lukewarm:hotalloc fixture: the pool grows to its high-water mark once, then take recycles
	return &node{}
}
