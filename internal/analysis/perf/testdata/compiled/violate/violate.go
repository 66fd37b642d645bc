// Package violate is the deliberately-failing CompileCheck fixture: each
// annotation declares an invariant its function visibly violates, and the
// gate test asserts that the compiler's escape/inline/bounds-check
// diagnostics surface as lint findings. This package is under testdata, so
// `go build ./...` and the repo-wide lint never see it; only the perf test
// suite compiles it, explicitly.
package violate

//lukewarm:hotpath noalloc,noescape fixture: the local escapes through the returned pointer
func escapes() *int {
	x := 42
	return &x
}

//lukewarm:hotpath nobce fixture: the index is data-dependent, so the bounds check survives
func gather(xs []int, idx []int) int {
	s := 0
	for _, i := range idx {
		s += xs[i]
	}
	return s
}

//go:noinline
//lukewarm:hotpath inline fixture: explicitly marked noinline, so the verdict is cannot-inline
func heavy(a, b int) int { return a + b }

var (
	sinkAny any
	sinkStr string
	sinkFn  func() int
)

//lukewarm:hotpath noalloc fixture: the root is clean, but the callee it reaches allocates
func reaches(n int, s string) int { return callee(n, s) }

// callee has no annotation of its own, so the noalloc root that reaches it
// holds it to noalloc: each statement below is one allocation the compiler
// reports, and the waiver at the end suppresses nothing.
//
//go:noinline
func callee(n int, s string) int {
	buf := make([]int, n)            // escaping make: non-constant size
	sinkAny = n                      // interface boxing
	sinkFn = func() int { return n } // escaping closure
	sinkStr = s + "!"                // string concatenation into a global
	for i := 0; i < len(buf); i++ {
		defer noop() // defer in a loop: a heap-allocated defer record
	}
	//lukewarm:hotalloc fixture: stale, the next line allocates nothing
	return len(buf)
}

func noop() {}

//lukewarm:hotpath noalloc fixture: the callee declares noescape but not noalloc, so the root holds it to noalloc
func reachesAnnotated(n int) int { return len(grow(n)) }

// grow's own invariant holds (no local moves to heap), but the slice it
// returns is a heap allocation that only the reaching root's noalloc forbids.
//
//go:noinline
//lukewarm:hotpath noescape fixture: nothing is moved to heap; the returned make still allocates
func grow(n int) []int { return make([]int, n) }
