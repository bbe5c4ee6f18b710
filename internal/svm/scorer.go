package svm

import (
	"math"

	"webtxprofile/internal/sparse"
)

// Scorer evaluates one window against a fixed set of models — the inner
// loop of streaming identification, where every completed window is scored
// against every user profile. Since PR 7 it runs on the fused population
// index: one pass over the window's non-zeros accumulates every model's
// weight dot product and every support vector's dot product at once
// (FusedIndex, now in the feature-blocked lane layout), then a per-model
// epilogue folds the accumulators into decision values. Decisions is
// exact — bit-identical to the per-model path in float64 mode — while
// AcceptMask additionally screens: models whose decision upper bound
// proves they cannot accept skip the scalar kernel loop entirely (the
// screen is admissible, so the mask is still exact).
//
// The index is immutable and shared (every Monitor shard scores through
// the same FusedIndex); the Scorer only owns the per-window scratch —
// accumulators, touch marks, and output buffers. Scratch accumulators are
// cleared by re-walking the window's postings after scoring, so a window
// costs O(matched postings + models), never O(population's support
// vectors). The accumulators carry one spare trailing cell that the
// layout's lane-padding postings target (they add exact zeros there).
//
// A Scorer is not safe for concurrent use; create one per goroutine with
// FusedIndex.NewScorer (they are cheap — the index is shared, read-only).
type Scorer struct {
	ix     *FusedIndex
	vector bool

	dec []float64
	acc []bool

	// Accumulators, all-zero between windows. wx[mi] collects the linear
	// models' w·x; dots[g] collects global ordinal g's sv·x; the last cell
	// of each is the pad postings' spare target. Exactly one of the
	// float64/float32 pairs is allocated, per FusedConfig.
	wx     []float64
	dots   []float64
	wx32   []float32
	dots32 []float32

	// marks[mi] == epoch iff a support-vector posting of model mi shares
	// a column with the current window (FusedIndex.markOwners) — untouched
	// models hold exact zero dots and take O(1) decisions and screen
	// bounds.
	marks []uint64
	epoch uint64
}

// NewScorer creates a scorer over the given models with its own private
// fused index in exact float64 mode. Loops that need many scorers over
// the same models (one per shard or goroutine) should build one
// FusedIndex and call its NewScorer method instead, sharing the index.
func NewScorer(models []*Model) *Scorer {
	return NewFusedIndex(models, FusedConfig{}).NewScorer()
}

// NewScorer attaches per-window scratch to the shared index. Scorers are
// independent: any number may score concurrently against one index.
func (ix *FusedIndex) NewScorer() *Scorer {
	n := len(ix.models)
	s := &Scorer{
		ix:     ix,
		vector: ix.vector,
		dec:    make([]float64, 0, n),
		acc:    make([]bool, n),
		marks:  make([]uint64, n),
	}
	if ix.cfg.Float32 {
		s.wx32 = make([]float32, n+1)
		s.dots32 = make([]float32, ix.numSVs()+1)
	} else {
		s.wx = make([]float64, n+1)
		s.dots = make([]float64, ix.numSVs()+1)
	}
	return s
}

// Len returns the number of models scored per window.
func (s *Scorer) Len() int { return len(s.ix.models) }

// Model returns the i-th model, in the order passed to NewScorer.
func (s *Scorer) Model(i int) *Model { return s.ix.models[i] }

// accumulate runs the fused pass for x through the resolved engine and
// returns the postings visited (lane-pad slots included).
func (s *Scorer) accumulate(x sparse.Vector) int {
	s.epoch++
	ix := s.ix
	switch {
	case ix.cfg.Float32 && s.vector:
		return ix.lin.accumulateVector32(x, s.wx32) + ix.sv.accumulateVector32(x, s.dots32)
	case ix.cfg.Float32:
		return ix.lin.accumulatePortable32(x, s.wx32) + ix.sv.accumulatePortable32(x, s.dots32)
	case s.vector:
		return ix.lin.accumulateVector64(x, s.wx) + ix.sv.accumulateVector64(x, s.dots)
	default:
		return ix.lin.accumulatePortable64(x, s.wx) + ix.sv.accumulatePortable64(x, s.dots)
	}
}

// clear zeroes the accumulator cells x touched. Sparse windows re-walk
// their postings (O(matched), never O(population)); a window whose
// postings cover at least a quarter of the accumulator cells takes one
// bulk zeroing pass instead — sequential stores beat the walk's scattered
// ones well before the crossover, and since the bulk path only fires when
// cells ≤ 4·visited, clearing stays O(matched postings) either way.
func (s *Scorer) clear(x sparse.Vector, visited int) {
	ix := s.ix
	if ix.cfg.Float32 {
		if visited*4 >= len(s.wx32)+len(s.dots32) {
			for i := range s.wx32 {
				s.wx32[i] = 0
			}
			for i := range s.dots32 {
				s.dots32[i] = 0
			}
			return
		}
		ix.lin.clear32(x, s.wx32)
		ix.sv.clear32(x, s.dots32)
		return
	}
	if visited*4 >= len(s.wx)+len(s.dots) {
		for i := range s.wx {
			s.wx[i] = 0
		}
		for i := range s.dots {
			s.dots[i] = 0
		}
		return
	}
	ix.lin.clear64(x, s.wx)
	ix.sv.clear64(x, s.dots)
}

// wxAt returns model mi's accumulated weight dot product as float64.
func (s *Scorer) wxAt(mi int) float64 {
	if s.ix.cfg.Float32 {
		return float64(s.wx32[mi])
	}
	return s.wx[mi]
}

// svDecision returns model mi's exact decision value from the accumulated
// support-vector dots.
func (s *Scorer) svDecision(mi int, nx float64) float64 {
	if s.ix.cfg.Float32 {
		return fusedSVDecision(s.ix, mi, s.dots32, nx)
	}
	return fusedSVDecision(s.ix, mi, s.dots, nx)
}

// Decisions evaluates every model's decision function on x — exactly; no
// screening, so the values are bit-identical (in float64 mode) to scoring
// each model alone. The returned slice is scratch owned by the scorer,
// valid until the next call.
func (s *Scorer) Decisions(x sparse.Vector) []float64 {
	ix := s.ix
	nx := x.NormSq()
	visited := s.accumulate(x)
	fused, fallback := 0, 0
	s.dec = s.dec[:0]
	for mi, m := range ix.models {
		var d float64
		switch ix.kind[mi] {
		case fusedLinear:
			d = fusedLinearDecision(m, s.wxAt(mi), nx)
			fused++
		case fusedSV:
			d = s.svDecision(mi, nx)
			fused++
		default:
			d, _ = m.decisionScratch(x, nx, nil)
			fallback++
		}
		s.dec = append(s.dec, d)
	}
	s.clear(x, visited)
	recordFusedWindow(visited, 0, fused, fallback)
	return s.dec
}

// AcceptMask reports, per model, whether x is accepted (the Accept rule,
// including the boundary tolerance). This is the screened fused path:
// models whose decision upper bound (screenSV) proves rejection skip the
// scalar kernel loop, which is where population-scale scoring spends its
// time — without ever changing the mask, since the bound is admissible.
// The returned slice is scratch owned by the scorer, valid until the next
// call.
func (s *Scorer) AcceptMask(x sparse.Vector) []bool {
	ix := s.ix
	nx := x.NormSq()
	normX := math.Sqrt(nx)
	visited := s.accumulate(x)
	ix.markOwners(x, s.marks, s.epoch)
	screened, fused, fallback := 0, 0, 0
	for mi, m := range ix.models {
		switch ix.kind[mi] {
		case fusedLinear:
			s.acc[mi] = m.acceptsValue(fusedLinearDecision(m, s.wxAt(mi), nx))
			fused++
		case fusedSV:
			fused++
			if s.screenSV(mi, s.marks[mi] == s.epoch, nx, normX) {
				s.acc[mi] = false
				screened++
				continue
			}
			s.acc[mi] = m.acceptsValue(s.svDecision(mi, nx))
		default:
			d, _ := m.decisionScratch(x, nx, nil)
			s.acc[mi] = m.acceptsValue(d)
			fallback++
		}
	}
	s.clear(x, visited)
	recordFusedWindow(visited, screened, fused, fallback)
	return s.acc
}

// DecisionBatch evaluates every model's decision function on x, appending
// to out (which may be nil; pass out[:0] to reuse a buffer across calls).
// This is the pre-fused per-model path — each model walks the window
// through its own index — kept as the reference baseline the fused engine
// is verified and benchmarked against. Loops that score many windows
// against the same models should prefer a Scorer.
func DecisionBatch(models []*Model, x sparse.Vector, out []float64) []float64 {
	nx := x.NormSq()
	bufp := dotsPool.Get().(*[]float64)
	dots := *bufp
	for _, m := range models {
		var d float64
		d, dots = m.decisionScratch(x, nx, dots)
		out = append(out, d)
	}
	*bufp = dots
	dotsPool.Put(bufp)
	return out
}
