//go:build !amd64

package svm

// detectCPUFeatures reports no SIMD capabilities off amd64; the portable
// Go kernels run everywhere regardless.
func detectCPUFeatures() []string { return nil }
