// Package svm implements the two one-class classifiers the paper uses to
// profile users (Sect. II): the ν-one-class SVM of Schölkopf et al. and the
// Support Vector Data Description (SVDD) of Tax & Duin. Both duals are
// solved from scratch with an SMO solver equivalent to LIBSVM's (the
// paper's reference [1]), supporting the paper's four kernels: linear,
// polynomial, RBF and sigmoid.
//
// # Dot-product factoring
//
// The entire kernel family factors through the dot product x·y: linear
// (k = x·y) and sigmoid (k = tanh(γ·x·y+c₀)) use it directly, polynomial
// through (γ·x·y+c₀)^d, and RBF through the norm expansion
// ‖x−y‖² = ‖x‖²+‖y‖²−2x·y, which reduces the Gaussian to a dot product
// once the support-vector norms ‖xᵢ‖² are cached — this is why even the
// "irreducible" RBF qualifies for the fast path. Decision evaluation
// therefore never needs a per-support-vector sparse-sparse merge join:
// linear models collapse the whole sum into a precomputed dense weight
// vector w = Σᵢ αᵢxᵢ, and every other kernel uses an inverted
// support-vector index (feature → (sv, value) postings) that accumulates
// all SV dot products in one pass over the window's ~20 non-zeros, after
// which a tight scalar loop applies the kernel function. The same
// factoring serves training: a Gram matrix depends only on the kernel and
// the data, so grid searches share one Gram across every ν/C cell of a
// row (see Gram and TrainGram) — and one level further down, the
// dot-product matrix depends only on the data, so all kernel rows of a
// training set derive their Grams from a single DotProducts
// (NewGramFromDots) at no extra kernel evaluations.
//
// # Fused population index
//
// Scoring one window against a whole population of user models repeats
// the same walk over the window's non-zeros U times. FusedIndex merges
// every model's postings — linear weight entries and support-vector
// entries, keyed by feature — into one shared immutable structure, so a
// single pass accumulates all models' dot products (Scorer.Decisions,
// Scorer.AcceptMask). On top of the shared accumulation, AcceptMask runs
// a layered admissible screen: an O(1) Cauchy–Schwarz bound from cached
// norm extrema, then an O(#SVs) transcendental-free bound on the kernel
// sum read from the accumulated dots (per support vector for RBF, over
// the dot-product range for polynomial/sigmoid). A model is skipped only
// when its decision value provably falls below the accept tolerance, so
// the mask is identical to calling Model.Accept per model; screening
// effectiveness is observable via KernelStats (PostingsVisited,
// ScreenedModels, FusedDecisions). FusedConfig.Float32 stores postings
// and accumulators in float32 — half the memory and often faster — with
// the worst-case deviation from the exact float64 decision certified by
// Float32DecisionBound. A FusedIndex is safe for concurrent use; each
// goroutine takes its own Scorer for scratch.
//
// # Blocked postings layout and kernel engines
//
// The fused postings are stored cache-blocked and lane-padded: ordinals
// are partitioned into power-of-two accumulator blocks (sized adaptively
// so per-group posting runs stay long enough to keep the hardware
// prefetcher fed — see pickBlockShift), postings are grouped by
// (block, column), and every group is zero-padded to whole fixed-width
// lanes (8 float64 or 16 float32 values — one 64-byte line each). Pads
// target a dedicated spare accumulator cell, so kernels process whole
// lanes with no remainder handling and the scatter of a lane never
// aliases a real ordinal. Two engines consume this one layout, and the
// CPU alone picks between them: packed AVX-512 assembly
// (gather–multiply–add–scatter per lane, plus a packed table-driven RBF
// screening-bound reduction) where the CPU reports avx512f, and portable
// per-posting Go loops everywhere else. Engine selection never changes
// results: blocks partition ordinals, each (column, accumulator) pair
// carries at most one posting, and both engines visit groups in one
// fixed order with separately rounded multiply and add (the assembly
// deliberately avoids FMA), so float64 — and float32 — decisions are
// bit-identical across engines, per-model paths, and CPUs; only screening
// *effort* may differ, never a mask. The per-model epilogue passes over
// contiguous SV ranges (kernel sums, screen bounds, dot ranges) live in
// fusedkernels.go, which CI keeps free of bounds checks in inner loops;
// index build cost and lane-padding overhead are observable via
// KernelStats (IndexBuild*, LanePadWaste, IndexBytes) and
// FusedIndex.Footprint.
package svm

import (
	"fmt"
	"math"

	"webtxprofile/internal/sparse"
)

// KernelKind enumerates the kernel families from Table III of the paper.
type KernelKind int

// Kernel kinds. The zero value is invalid so that forgotten configuration
// fails loudly.
const (
	KernelLinear KernelKind = iota + 1
	KernelPoly
	KernelRBF
	KernelSigmoid
)

var kernelNames = map[KernelKind]string{
	KernelLinear:  "linear",
	KernelPoly:    "polynomial",
	KernelRBF:     "rbf",
	KernelSigmoid: "sigmoid",
}

// String returns the kernel family name.
func (k KernelKind) String() string {
	if s, ok := kernelNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// ParseKernelKind converts a kernel family name back into a KernelKind.
func ParseKernelKind(s string) (KernelKind, error) {
	for k, name := range kernelNames {
		if s == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("svm: unknown kernel %q", s)
}

// AllKernels lists the kernel kinds in Table III column order.
var AllKernels = []KernelKind{KernelLinear, KernelPoly, KernelRBF, KernelSigmoid}

// Kernel is a parameterized kernel function:
//
//	linear:     k(x,y) = x·y
//	polynomial: k(x,y) = (γ·x·y + c₀)^d
//	rbf:        k(x,y) = exp(-γ·‖x−y‖²)   (the paper's e^{−‖x−y‖²/C} with γ=1/C)
//	sigmoid:    k(x,y) = tanh(γ·x·y + c₀)
type Kernel struct {
	Kind   KernelKind `json:"kind"`
	Gamma  float64    `json:"gamma,omitempty"`
	Coef0  float64    `json:"coef0,omitempty"`
	Degree int        `json:"degree,omitempty"`
}

// Linear returns the linear kernel.
func Linear() Kernel { return Kernel{Kind: KernelLinear} }

// Poly returns a polynomial kernel.
func Poly(gamma, coef0 float64, degree int) Kernel {
	return Kernel{Kind: KernelPoly, Gamma: gamma, Coef0: coef0, Degree: degree}
}

// RBF returns a Gaussian kernel with the given γ.
func RBF(gamma float64) Kernel { return Kernel{Kind: KernelRBF, Gamma: gamma} }

// Sigmoid returns a sigmoid kernel.
func Sigmoid(gamma, coef0 float64) Kernel {
	return Kernel{Kind: KernelSigmoid, Gamma: gamma, Coef0: coef0}
}

// Validate checks parameter sanity for the kernel family.
func (k Kernel) Validate() error {
	switch k.Kind {
	case KernelLinear:
	case KernelPoly:
		if k.Gamma <= 0 {
			return fmt.Errorf("svm: polynomial kernel needs gamma > 0, got %v", k.Gamma)
		}
		if k.Degree < 1 {
			return fmt.Errorf("svm: polynomial kernel needs degree >= 1, got %d", k.Degree)
		}
	case KernelRBF:
		if k.Gamma <= 0 {
			return fmt.Errorf("svm: rbf kernel needs gamma > 0, got %v", k.Gamma)
		}
	case KernelSigmoid:
		if k.Gamma <= 0 {
			return fmt.Errorf("svm: sigmoid kernel needs gamma > 0, got %v", k.Gamma)
		}
	default:
		return fmt.Errorf("svm: unknown kernel kind %d", int(k.Kind))
	}
	return nil
}

// String renders the kernel with its parameters.
func (k Kernel) String() string {
	switch k.Kind {
	case KernelLinear:
		return "linear"
	case KernelPoly:
		return fmt.Sprintf("polynomial(γ=%g,c0=%g,d=%d)", k.Gamma, k.Coef0, k.Degree)
	case KernelRBF:
		return fmt.Sprintf("rbf(γ=%g)", k.Gamma)
	case KernelSigmoid:
		return fmt.Sprintf("sigmoid(γ=%g,c0=%g)", k.Gamma, k.Coef0)
	default:
		return k.Kind.String()
	}
}

// Eval computes k(x, y).
func (k Kernel) Eval(x, y sparse.Vector) float64 {
	switch k.Kind {
	case KernelLinear:
		return sparse.Dot(x, y)
	case KernelPoly:
		return ipow(k.Gamma*sparse.Dot(x, y)+k.Coef0, k.Degree)
	case KernelRBF:
		return math.Exp(-k.Gamma * sparse.SqDist(x, y))
	case KernelSigmoid:
		return math.Tanh(k.Gamma*sparse.Dot(x, y) + k.Coef0)
	default:
		panic("svm: Eval on invalid kernel; call Validate first")
	}
}

// evalNorms computes k(x, y) reusing precomputed squared norms, which turns
// the RBF distance into dot products (‖x−y‖² = ‖x‖²+‖y‖²−2x·y).
func (k Kernel) evalNorms(x, y sparse.Vector, nx, ny float64) float64 {
	return k.evalDot(sparse.Dot(x, y), nx, ny)
}

// evalDot computes k(x, y) from the already-computed dot product x·y and
// the squared norms — the factored form every kernel family of the paper
// admits (linear and sigmoid use the dot product directly, polynomial
// through (γ·x·y+c₀)^d, RBF through ‖x−y‖² = ‖x‖²+‖y‖²−2x·y). This is what
// lets the inverted support-vector index batch all dot products first and
// apply the kernel in a scalar pass.
func (k Kernel) evalDot(dot, nx, ny float64) float64 {
	switch k.Kind {
	case KernelLinear:
		return dot
	case KernelPoly:
		return ipow(k.Gamma*dot+k.Coef0, k.Degree)
	case KernelRBF:
		d2 := nx + ny - 2*dot
		if d2 < 0 {
			d2 = 0
		}
		return math.Exp(-k.Gamma * d2)
	case KernelSigmoid:
		return math.Tanh(k.Gamma*dot + k.Coef0)
	default:
		panic("svm: evalDot on invalid kernel; call Validate first")
	}
}

// evalSelf computes k(x, x) from ‖x‖² alone (x·x = ‖x‖², so the RBF
// distance is zero and the other kernels need only the norm).
func (k Kernel) evalSelf(nx float64) float64 {
	switch k.Kind {
	case KernelLinear:
		return nx
	case KernelPoly:
		return ipow(k.Gamma*nx+k.Coef0, k.Degree)
	case KernelRBF:
		return 1
	case KernelSigmoid:
		return math.Tanh(k.Gamma*nx + k.Coef0)
	default:
		panic("svm: evalSelf on invalid kernel; call Validate first")
	}
}

// ipow computes base^exp for small positive integer exponents without the
// math.Pow overhead.
func ipow(base float64, exp int) float64 {
	result := 1.0
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

// norms precomputes ‖x‖² for a set of vectors.
func norms(xs []sparse.Vector) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i].NormSq()
	}
	return out
}
