package svm

// The AVX-512 accumulate kernels: one call processes one lane-padded
// (block, column) postings group, gathering the group's accumulator cells,
// multiplying the value lane by the window weight, and scattering the sums
// back — the packed form of the portable Go loop, consuming the exact
// same layout.
//
// Two invariants of the blocked layout make the scatter safe and the
// result bit-identical to the Go kernels:
//
//   - Within a group, real postings carry strictly ascending ordinals, so
//     a scatter's indices never conflict. Only lane-padding slots repeat
//     an ordinal (the spare), and their value is exactly zero, so every
//     duplicate lane writes back the unchanged spare cell.
//   - The kernels use separate multiply and add instructions, not FMA:
//     Go's `acc[o] += w * v` rounds the product and the sum separately,
//     and a fused multiply-add would differ in the last bit. Each
//     accumulator still receives its terms in group order, so float64
//     (and float32) results are bit-identical across both engines.
//
// n must be a multiple of the lane width (8 for float64, 16 for float32);
// buildBlocked pads every group to guarantee it.
//
//go:noescape
func accumGroup64(ord *int32, val *float64, n int, w float64, acc *float64)

//go:noescape
func accumGroup32(ord *int32, val *float32, n int, w float32, acc *float32)

// The packed RBF screening-bound reductions. z indices are elementwise
// bit-identical to the scalar loops (same operation order, truncating
// conversion, and clamp); only the final summation order differs, which
// the bound's built-in slack absorbs — admissibility, the only property
// screening needs, holds for every engine. n must be a multiple of 8; the
// wrappers below run the remainder through the scalar loop.
//
//go:noescape
func rbfSumBound64(coef, snGH, dots *float64, n int, b0, slope float64) float64

//go:noescape
func rbfSumBound32(coef, snGH *float64, dots *float32, n int, b0, slope float64) float64

// fusedRBFSumBoundVec64 is the packed engine's screening bound: the
// AVX-512 reduction over whole lanes, the scalar loop over the tail.
func fusedRBFSumBoundVec64(coef, snGH, dots []float64, b0, slope float64) float64 {
	n := len(dots)
	nd := n &^ 7
	var sum float64
	if nd > 0 {
		sum = rbfSumBound64(&coef[0], &snGH[0], &dots[0], nd, b0, slope)
	}
	if nd < n {
		sum += fusedRBFSumBoundPortable(coef[nd:n], snGH[nd:n], dots[nd:n], b0, slope)
	}
	return sum
}

func fusedRBFSumBoundVec32(coef, snGH []float64, dots []float32, b0, slope float64) float64 {
	n := len(dots)
	nd := n &^ 7
	var sum float64
	if nd > 0 {
		sum = rbfSumBound32(&coef[0], &snGH[0], &dots[0], nd, b0, slope)
	}
	if nd < n {
		sum += fusedRBFSumBoundPortable(coef[nd:n], snGH[nd:n], dots[nd:n], b0, slope)
	}
	return sum
}

// disablePackedKernels makes NewFusedIndex pick the portable kernels even
// where AVX-512 is available. Tests and benchmarks flip it to compare the
// packed and portable engines on the same machine; it must be set before
// any NewFusedIndex call whose scorers it should affect.
var disablePackedKernels bool

// asmKernelsSupported reports whether the packed kernels can run: they
// need AVX-512F (gather, scatter, 512-bit arithmetic), and the detection
// in cpu_amd64.go only reports it when the OS saves ZMM state.
func asmKernelsSupported() bool {
	for _, f := range cpuFeatureList {
		if f == "avx512f" {
			return true
		}
	}
	return false
}
