package device

// axpySSE2 computes y[j] += a*x[j] for j < len(y); len(x) must be at
// least len(y) and x must not overlap y. Implemented in axpy_amd64.s.
//
//go:noescape
func axpySSE2(a float32, x, y []float32)

// axpy computes y[j] += a*x[j] for every j, one individually rounded
// multiply and then one rounded add per element, bit-identical to the
// scalar loop (DESIGN.md §14). SSE2 is the amd64 baseline, so there is no
// feature dispatch.
func axpy(a float32, x, y []float32) {
	x = x[:len(y)]
	raceAxpy(x, y)
	axpySSE2(a, x, y)
}
