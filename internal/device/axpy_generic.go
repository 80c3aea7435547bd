//go:build !amd64

package device

// axpy computes y[j] += a*x[j] for every j, one individually rounded
// multiply and then one rounded add per element. The explicit float32
// conversion forbids the compiler from fusing the pair into one FMA (the
// Go spec allows fusing x*y + z otherwise), which would round once and
// move bits relative to amd64.
func axpy(a float32, x, y []float32) {
	x = x[:len(y)]
	for j := range y {
		y[j] += float32(a * x[j])
	}
}
