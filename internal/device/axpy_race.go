//go:build race

package device

import (
	"runtime"
	"unsafe"
)

// raceAxpy reports axpy's reads of x and writes of y to the race
// detector, which cannot see memory accesses made in assembly; without it
// the sharded-GEMM race tests would not observe the kernel's output
// writes.
func raceAxpy(x, y []float32) {
	if len(y) == 0 {
		return
	}
	runtime.RaceReadRange(unsafe.Pointer(&x[0]), len(x)*4)
	runtime.RaceWriteRange(unsafe.Pointer(&y[0]), len(y)*4)
}
