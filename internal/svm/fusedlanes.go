package svm

import "webtxprofile/internal/sparse"

// The accumulate/clear kernels of the fused engine, over the blocked
// lane-padded layout (blockedPostings). Two engines share the layout, and
// the CPU alone picks between them (NewFusedIndex):
//
//   - The packed kernels (accumulateVector64/accumulateVector32) hand each
//     lane-padded (block, column) group to the AVX-512 gather–multiply–
//     add–scatter routines in fusedasm_amd64.s. They run wherever the CPU
//     reports avx512f.
//   - The portable kernels (accumulatePortable64/accumulatePortable32) run
//     the obvious per-posting loop over the very same postings in the very
//     same order. They run everywhere else, and they are the reference the
//     engine-equivalence tests compare the packed kernels against.
//
// Both produce bit-identical float64 (and float32) accumulators: per
// (column, accumulator) there is at most one posting, both engines visit
// groups in the same order, and the packed kernels round the multiply and
// the add separately exactly like the Go loop.
//
// One clear (clear64/clear32) serves both engines: it only writes zeros,
// straight-line over whole lanes, which the layout guarantees for every
// engine.
//
// Blocks are the outer loop and the window's columns the inner one, so
// every scattered accumulator write of an iteration lands inside one
// cache-resident block span. The scatter index is data-dependent, so these
// loops keep their bounds checks (the dense per-model passes that must be
// bounds-check-free live in fusedkernels.go, which CI gates).

// accumulateVector64 is the packed engine: the same walk as
// accumulatePortable64, with each group's lanes processed by the AVX-512
// kernel.
func (pb *blockedPostings) accumulateVector64(x sparse.Vector, acc []float64) int {
	ncols := pb.ncols
	if ncols <= 0 {
		return 0
	}
	xi, xv := x.Idx, x.Val
	if len(xi) > len(xv) {
		xi = xi[:len(xv)]
	}
	visited := 0
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for k := range xi {
			c := xi[k]
			if c >= ncols {
				break
			}
			s, e := row[c], row[c+1]
			if s == e {
				continue
			}
			visited += int(e - s)
			accumGroup64(&pb.ord[s], &pb.val[s], int(e-s), xv[k], &acc[0])
		}
	}
	return visited
}

func (pb *blockedPostings) accumulateVector32(x sparse.Vector, acc []float32) int {
	ncols := pb.ncols
	if ncols <= 0 {
		return 0
	}
	xi, xv := x.Idx, x.Val
	if len(xi) > len(xv) {
		xi = xi[:len(xv)]
	}
	visited := 0
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for k := range xi {
			c := xi[k]
			if c >= ncols {
				break
			}
			s, e := row[c], row[c+1]
			if s == e {
				continue
			}
			visited += int(e - s)
			accumGroup32(&pb.ord[s], &pb.val32[s], int(e-s), float32(xv[k]), &acc[0])
		}
	}
	return visited
}

// clear64 re-walks exactly the postings the accumulate pass touched for x
// and zeroes their accumulator cells, leaving the scratch all-zero again in
// O(matched postings) instead of O(population).
func (pb *blockedPostings) clear64(x sparse.Vector, acc []float64) {
	ncols := pb.ncols
	if ncols <= 0 {
		return
	}
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for _, c := range x.Idx {
			if c >= ncols {
				break
			}
			ord := pb.ord[row[c]:row[c+1]]
			for len(ord) >= laneWidth64 {
				o := ord[:laneWidth64]
				acc[o[0]] = 0
				acc[o[1]] = 0
				acc[o[2]] = 0
				acc[o[3]] = 0
				acc[o[4]] = 0
				acc[o[5]] = 0
				acc[o[6]] = 0
				acc[o[7]] = 0
				ord = ord[laneWidth64:]
			}
		}
	}
}

func (pb *blockedPostings) clear32(x sparse.Vector, acc []float32) {
	ncols := pb.ncols
	if ncols <= 0 {
		return
	}
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for _, c := range x.Idx {
			if c >= ncols {
				break
			}
			ord := pb.ord[row[c]:row[c+1]]
			for len(ord) >= laneWidth32 {
				o := ord[:laneWidth32]
				acc[o[0]] = 0
				acc[o[1]] = 0
				acc[o[2]] = 0
				acc[o[3]] = 0
				acc[o[4]] = 0
				acc[o[5]] = 0
				acc[o[6]] = 0
				acc[o[7]] = 0
				acc[o[8]] = 0
				acc[o[9]] = 0
				acc[o[10]] = 0
				acc[o[11]] = 0
				acc[o[12]] = 0
				acc[o[13]] = 0
				acc[o[14]] = 0
				acc[o[15]] = 0
				ord = ord[laneWidth32:]
			}
		}
	}
}

// accumulatePortable64 is the portable engine: the blocked walk, one
// posting at a time.
func (pb *blockedPostings) accumulatePortable64(x sparse.Vector, acc []float64) int {
	ncols := pb.ncols
	if ncols <= 0 {
		return 0
	}
	visited := 0
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for k, c := range x.Idx {
			if c >= ncols {
				break
			}
			s, e := row[c], row[c+1]
			if s == e {
				continue
			}
			visited += int(e - s)
			w := x.Val[k]
			for p := s; p < e; p++ {
				acc[pb.ord[p]] += w * pb.val[p]
			}
		}
	}
	return visited
}

func (pb *blockedPostings) accumulatePortable32(x sparse.Vector, acc []float32) int {
	ncols := pb.ncols
	if ncols <= 0 {
		return 0
	}
	visited := 0
	for b := 0; b < int(pb.nblocks); b++ {
		row := pb.starts[b*int(ncols) : b*int(ncols)+int(ncols)+1]
		for k, c := range x.Idx {
			if c >= ncols {
				break
			}
			s, e := row[c], row[c+1]
			if s == e {
				continue
			}
			visited += int(e - s)
			w := float32(x.Val[k])
			for p := s; p < e; p++ {
				acc[pb.ord[p]] += w * pb.val32[p]
			}
		}
	}
	return visited
}
