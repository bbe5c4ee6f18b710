//go:build !amd64

package svm

// Off amd64 the packed kernels never run: asmKernelsSupported is false,
// so every FusedIndex runs the portable Go kernels and these stubs are
// unreachable.

// disablePackedKernels mirrors the amd64 test hook; it has no effect here
// because asmKernelsSupported is already false.
var disablePackedKernels bool

func asmKernelsSupported() bool { return false }

func accumGroup64(ord *int32, val *float64, n int, w float64, acc *float64) {
	panic("svm: packed kernel called without AVX-512 support")
}

func accumGroup32(ord *int32, val *float32, n int, w float32, acc *float32) {
	panic("svm: packed kernel called without AVX-512 support")
}

func fusedRBFSumBoundVec64(coef, snGH, dots []float64, b0, slope float64) float64 {
	panic("svm: packed kernel called without AVX-512 support")
}

func fusedRBFSumBoundVec32(coef, snGH []float64, dots []float32, b0, slope float64) float64 {
	panic("svm: packed kernel called without AVX-512 support")
}
