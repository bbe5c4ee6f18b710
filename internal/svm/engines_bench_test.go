package svm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"webtxprofile/internal/sparse"
)

// benchCalibratedModel builds one synthetic RBF OC-SVM profile shaped like
// per-user training output: 50 support vectors drawn from a 60-column
// "home" vocabulary, dual coefficients near the 1/(νn) bound, and ρ just
// under the weakest support vector's kernel sum. It draws from r exactly
// like the root package's calibratedPopulationModel, so the same seed
// yields the same population in both benchmarks.
func benchCalibratedModel(b *testing.B, r *rand.Rand, dim int) *Model {
	home := r.Perm(dim)[:min(60, dim)]
	m := &Model{Algo: OCSVM, Kernel: RBF(0.3), Param: 0.1, TrainSize: 50}
	for s := 0; s < 50; s++ {
		dense := make(map[int]float64, 20)
		for len(dense) < 20 {
			dense[home[r.Intn(len(home))]] = 0.1 + r.Float64()
		}
		m.SVs = append(m.SVs, sparse.New(dense))
		m.Coef = append(m.Coef, 0.4+0.2*r.Float64())
	}
	if err := m.Validate(); err != nil {
		b.Fatal(err)
	}
	minS := math.Inf(1)
	for _, sv := range m.SVs {
		if d := m.Decision(sv); d < minS {
			minS = d
		}
	}
	m.Rho = 0.9 * minS
	return m
}

// benchPopulation builds U calibrated profiles over 800 columns and 256
// probe windows, every 8th a copy of some model's support vector so the
// exact kernel loop runs alongside the screened rejections.
func benchPopulation(b *testing.B, u int) ([]*Model, []sparse.Vector) {
	r := rand.New(rand.NewSource(int64(u)*31 + 7))
	models := make([]*Model, u)
	for i := range models {
		models[i] = benchCalibratedModel(b, r, 800)
	}
	probes := make([]sparse.Vector, 256)
	for i := range probes {
		if i%8 == 0 {
			m := models[r.Intn(u)]
			probes[i] = m.SVs[r.Intn(len(m.SVs))]
			continue
		}
		dense := make(map[int]float64, 20)
		for len(dense) < 20 {
			dense[r.Intn(800)] = 0.1 + r.Float64()
		}
		probes[i] = sparse.New(dense)
	}
	return models, probes
}

// BenchmarkFusedEngines times Scorer.AcceptMask on each scoring engine —
// the packed AVX-512 kernels (skipped where the CPU lacks avx512f) and
// the portable Go kernels (forced through disablePackedKernels) — in both
// precisions at U = 100/1k/10k profiles. The population is the one
// BenchmarkPopulationDecisions scores, so the packed legs read against its
// fused and fused-float32 figures. decisions/sec is models × windows/sec.
func BenchmarkFusedEngines(b *testing.B) {
	for _, u := range []int{100, 1_000, 10_000} {
		models, probes := benchPopulation(b, u)
		for _, engine := range []string{"packed", "portable"} {
			for _, f32 := range []bool{false, true} {
				prec := "float64"
				if f32 {
					prec = "float32"
				}
				b.Run(fmt.Sprintf("%s/%s/models=%d", engine, prec, u), func(b *testing.B) {
					if engine == "packed" && !asmKernelsSupported() {
						b.Skip("CPU lacks avx512f")
					}
					prev := disablePackedKernels
					disablePackedKernels = engine == "portable"
					sc := NewFusedIndex(models, FusedConfig{Float32: f32}).NewScorer()
					disablePackedKernels = prev
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sc.AcceptMask(probes[i%len(probes)])
					}
					b.ReportMetric(float64(u)*float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
				})
			}
		}
	}
}
