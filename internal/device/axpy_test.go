package device

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// axpyScalar is the scalar loop the amd64 kernel replaced, written as the
// two SSE instructions it compiled to: MULSS x·a with x as the destination,
// then ADDSS product + y with the product as the destination. It models
// the instructions instead of leaving the order to the compiler, which
// picks operand roles per build: the race build of the old Go loop made y
// the ADDSS destination in some unrolled lanes, so there a NaN + NaN sum
// kept the other payload.
func axpyScalar(a float32, x, y []float32) {
	for j := range y {
		p := sseOp(x[j], a, func(d, s float32) float32 { return float32(d * s) })
		y[j] = sseOp(p, y[j], func(d, s float32) float32 { return d + s })
	}
}

// sseOp models one SSE arithmetic instruction whose destination (first
// source) operand is d: a NaN in d wins over a NaN in s, the surviving NaN
// is returned quieted, and an invalid operation (0·∞, ∞−∞) yields the x86
// default NaN. Without NaN inputs IEEE 754 fixes every result bit.
func sseOp(d, s float32, op func(d, s float32) float32) float32 {
	switch {
	case d != d:
		return quietNaN(d)
	case s != s:
		return quietNaN(s)
	}
	if r := op(d, s); r == r {
		return r
	}
	return math.Float32frombits(0xffc00000)
}

func quietNaN(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) | 0x00400000)
}

// nanPayloads reports whether NaN payloads are compared bit for bit. The
// NaN rules above are x86's; elsewhere axpy is compiled Go, whose payloads
// follow that architecture's rules and the compiler's operand order, so
// only NaN-ness is compared there.
var nanPayloads = runtime.GOARCH == "amd64"

// axpySpecials are the IEEE-754 edge cases the kernel must treat exactly as
// the scalar loop does: signed zeros, subnormals, infinities, values whose
// product or sum overflows, and NaNs with distinct payloads (quiet and
// signalling, both signs), so a swapped operand order shows up as a
// different surviving payload.
var axpySpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(0x00000001), math.Float32frombits(0x807fffff), // subnormals
	math.SmallestNonzeroFloat32, 1e-38, -1.5e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32, 3e38, 1e20, -1e20,
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc0beef), // quiet NaNs
	math.Float32frombits(0x7f800abc), math.Float32frombits(0xff812345), // signalling NaNs
	1, -1, 0.5, 3.14159, -2.71828, 1e-7,
}

func axpyValue(s *rng.Stream) float32 {
	if s.Intn(3) == 0 {
		return axpySpecials[s.Intn(len(axpySpecials))]
	}
	return float32(s.Norm())
}

func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for j := range want {
		if !nanPayloads && got[j] != got[j] && want[j] != want[j] {
			continue
		}
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: y[%d] = %#08x, scalar SSE sequence gives %#08x",
				label, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	}
}

// TestAxpyMatchesScalarBits pins the GEMM inner loop to the scalar loop bit
// for bit over every length through the 16-lane, 4-lane and scalar-tail
// paths, at every 4-byte misalignment of x and y, with special values in a,
// x and y.
func TestAxpyMatchesScalarBits(t *testing.T) {
	s := rng.New(12)
	for n := 0; n <= 67; n++ {
		for xOff := 0; xOff < 4; xOff++ {
			for yOff := 0; yOff < 4; yOff++ {
				xb := make([]float32, xOff+n+1) // one spare: x may be longer than y
				yb := make([]float32, yOff+n)
				for i := range xb {
					xb[i] = axpyValue(s)
				}
				for i := range yb {
					yb[i] = axpyValue(s)
				}
				a := axpyValue(s)
				x, y := xb[xOff:], yb[yOff:]
				want := append([]float32(nil), y...)
				axpyScalar(a, x[:n], want)
				axpy(a, x, y)
				sameBits(t, "axpy", y, want)
			}
		}
	}
	// Every special a against every special x and y, in all three paths.
	n := 16 + 4 + 3
	for _, a := range axpySpecials {
		for _, xv := range axpySpecials {
			x := make([]float32, n)
			y := make([]float32, n)
			for j := range y {
				x[j] = xv
				y[j] = axpySpecials[j%len(axpySpecials)]
			}
			want := append([]float32(nil), y...)
			axpyScalar(a, x, want)
			axpy(a, x, y)
			sameBits(t, "specials", y, want)
		}
	}
}

// FuzzAxpy feeds arbitrary bit patterns for a, x and y (data holds x then
// y, 4 bytes per float32) at an arbitrary misalignment.
func FuzzAxpy(f *testing.F) {
	bits := func(vs ...float32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	f.Add(math.Float32bits(1), uint8(0), []byte{})
	f.Add(math.Float32bits(2), uint8(1), bits(1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(math.Float32bits(float32(math.NaN())), uint8(2), bits(axpySpecials...))
	f.Add(uint32(0x7f800abc), uint8(3), bits(append(axpySpecials, axpySpecials...)...))
	f.Add(math.Float32bits(math.MaxFloat32), uint8(0), bits(make([]float32, 2*(16+4+3))...))
	f.Fuzz(func(t *testing.T, abits uint32, off uint8, data []byte) {
		vs := make([]float32, len(data)/4)
		for i := range vs {
			vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		o := int(off % 4)
		if len(vs) < 2*o {
			return
		}
		n := (len(vs) - 2*o) / 2
		x := vs[o : o+n]
		y := vs[2*o+n : 2*o+2*n]
		a := math.Float32frombits(abits)
		want := append([]float32(nil), y...)
		axpyScalar(a, x, want)
		axpy(a, x, y)
		sameBits(t, "fuzz", y, want)
	})
}
