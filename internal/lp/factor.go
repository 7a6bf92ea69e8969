package lp

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file holds the sparse LU representation of the simplex basis.
// The basis matrix B is factorized as P B = L U with a Markowitz-style
// ordering (columns a priori by ascending count, pivot rows by fewest
// original nonzeros among numerically acceptable candidates), and the
// factorization is then kept frozen while pivots stack Forrest–Tomlin
// style product-form updates on top of it (simplex.updates). The
// frozen luFactor is immutable and shareable: a Basis snapshot carries
// it (warmFactor) so warm-started re-solves of the same matrix adopt
// it instead of refactorizing.

// luFactor is a frozen sparse LU factorization of a basis matrix.
// Elimination step k pivots one basis column on row prow[k]; by the
// package convention that a variable occupies the basis slot of its
// pivot row, the step-k component of any ftran lands in w[prow[k]] —
// exactly the slot of the variable it belongs to.
type luFactor struct {
	m   int
	sig uint64 // matrix signature of the Problem it was computed on
	nnz int    // stored nonzeros in L and U, diagonals included

	prow []int32 // pivot row of elimination step k
	pos  []int32 // inverse of prow: row -> step, -1 while unpivoted

	// L as m unit-diagonal column etas in elimination order: eta k
	// holds the multipliers for the rows still unpivoted at step k.
	lptr []int32
	lind []int32 // row indices
	lval []float64

	// U by columns in elimination coordinates: column k holds entries
	// u[k',k] with k' an earlier step (uind) plus the diagonal.
	uptr  []int32
	uind  []int32 // elimination-step indices
	uval  []float64
	udiag []float64

	// Transposed patterns for the reach of the transposed solves,
	// built once the factorization is complete:
	// utind[utptr[k]:utptr[k+1]] lists the later steps whose U column
	// has an entry in step k, ltind[ltptr[i]:ltptr[i+1]] the steps
	// whose L eta holds a multiplier for row i.
	utptr, utind []int32
	ltptr, ltind []int32
}

// warmFactor is the factorization payload a Basis snapshot carries: a
// shared frozen LU plus a private copy of the update file that was
// stacked on it when the snapshot was taken.
type warmFactor struct {
	lu      *luFactor
	updates []eta
	nnz     int // nonzeros in the update file
}

// The triangular solves on sparse inputs visit only the elimination
// steps the input reaches (Gilbert–Peierls), in the order a sweep
// over every step would take: ascending for L and Uᵀ, descending for
// U and Lᵀ. Every entry then receives its updates in the sweep's
// order, so the result is bit-identical to the sweep; a DFS
// topological order would be just as valid algebraically but would
// reorder the floating-point sums. The reached steps queue in the
// simplex's stepQueue, so the frozen factor stays read-only and warm
// re-solves on other goroutines can share it.
//
// Each solve picks its path from its input: at most one nonzero per
// sparseRatio rows takes the reach; a denser input, or any nonzero on
// a basis under sparseRatio rows, sweeps every step, which there
// costs less than queueing them (the small knapsack LPs of
// branch-and-bound and novad's near misses).
const sparseRatio = 16

// lsolveW applies L⁻¹ to the sparse accumulator: the left-looking
// elimination of every step recorded so far (also used mid-factorize,
// when the eta file is still growing and unpivoted rows have no step).
func (f *luFactor) lsolveW(s *simplex) {
	if len(s.wTouch)*sparseRatio > f.m {
		f.lsweep(s)
		return
	}
	f.lreach(s)
}

// usolveW back-substitutes U on the accumulator. After lsolveW this
// completes B⁻¹w, with the step-k component in w[prow[k]].
func (f *luFactor) usolveW(s *simplex) {
	if len(s.wTouch)*sparseRatio > f.m {
		f.usweep(s)
		return
	}
	f.ureach(s)
}

// lsweep is lsolveW over every step.
func (f *luFactor) lsweep(s *simplex) {
	s.luSteps += len(f.prow)
	for k := 0; k < len(f.prow); k++ {
		v := s.w[f.prow[k]]
		if v == 0 {
			continue
		}
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			i := f.lind[t]
			if !s.wIn[i] {
				s.wIn[i] = true
				s.wTouch = append(s.wTouch, int(i))
			}
			s.w[i] -= f.lval[t] * v
		}
	}
}

// usweep is usolveW over every step.
func (f *luFactor) usweep(s *simplex) {
	s.luSteps += f.m
	for k := f.m - 1; k >= 0; k-- {
		r := f.prow[k]
		v := s.w[r]
		if v == 0 {
			continue
		}
		x := v / f.udiag[k]
		s.w[r] = x
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			i := int(f.prow[f.uind[t]])
			if !s.wIn[i] {
				s.wIn[i] = true
				s.wTouch = append(s.wTouch, i)
			}
			s.w[i] -= f.uval[t] * x
		}
	}
}

// lreach is lsolveW over the reached steps only.
func (f *luFactor) lreach(s *simplex) {
	q := &s.reach
	q.reset()
	for _, i := range s.wTouch {
		if k := f.pos[i]; k >= 0 && s.w[i] != 0 {
			q.push(k)
		}
	}
	for k, ok := q.popMin(); ok; k, ok = q.popMin() {
		s.luSteps++
		v := s.w[f.prow[k]]
		if v == 0 {
			continue
		}
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			i := f.lind[t]
			if !s.wIn[i] {
				s.wIn[i] = true
				s.wTouch = append(s.wTouch, int(i))
			}
			s.w[i] -= f.lval[t] * v
			if k2 := f.pos[i]; k2 >= 0 {
				q.push(k2)
			}
		}
	}
}

// ureach is usolveW over the reached steps only.
func (f *luFactor) ureach(s *simplex) {
	q := &s.reach
	q.reset()
	for _, i := range s.wTouch {
		if s.w[i] != 0 {
			q.push(f.pos[i])
		}
	}
	for k, ok := q.popMax(); ok; k, ok = q.popMax() {
		s.luSteps++
		r := f.prow[k]
		v := s.w[r]
		if v == 0 {
			continue
		}
		x := v / f.udiag[k]
		s.w[r] = x
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			k2 := f.uind[t]
			i := int(f.prow[k2])
			if !s.wIn[i] {
				s.wIn[i] = true
				s.wTouch = append(s.wTouch, i)
			}
			s.w[i] -= f.uval[t] * x
			q.push(k2)
		}
	}
}

// btranSparse solves Bᵀ y = y in place on s.y for an input whose
// nonzeros lie in the rows listed in s.yTouch, and leaves in s.yTouch
// the rows where the result may be nonzero. Each reached step
// computes its component with btranDense's pull-style dot product, in
// the same term order; a component the reach skips stays an exact
// zero (where the dense sweep may write -0).
func (f *luFactor) btranSparse(s *simplex) {
	y := s.y
	q := &s.reach
	q.reset()
	for _, i := range s.yTouch {
		if y[i] != 0 {
			q.push(f.pos[i])
		}
	}
	s.yTouch = s.yTouch[:0]
	// Uᵀ forward in elimination order.
	for k, ok := q.popMin(); ok; k, ok = q.popMin() {
		s.luSteps++
		r := f.prow[k]
		v := y[r]
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			v -= f.uval[t] * y[f.prow[f.uind[t]]]
		}
		y[r] = v / f.udiag[k]
		if y[r] == 0 {
			continue
		}
		s.yTouch = append(s.yTouch, int(r))
		for t := f.utptr[k]; t < f.utptr[k+1]; t++ {
			q.push(f.utind[t])
		}
	}
	// Lᵀ etas in reverse: step k changes only y[prow[k]], and only
	// when its eta meets a nonzero.
	q.reset()
	for _, r := range s.yTouch {
		for t := f.ltptr[r]; t < f.ltptr[r+1]; t++ {
			q.push(f.ltind[t])
		}
	}
	for k, ok := q.popMax(); ok; k, ok = q.popMax() {
		s.luSteps++
		var sum float64
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			sum += f.lval[t] * y[f.lind[t]]
		}
		if sum == 0 {
			continue
		}
		r := f.prow[k]
		if y[r] == 0 {
			// Each row changes once, at its own step, so a zero here
			// means r is not yet in the support.
			s.yTouch = append(s.yTouch, int(r))
			for t := f.ltptr[r]; t < f.ltptr[r+1]; t++ {
				q.push(f.ltind[t])
			}
		}
		y[r] -= sum
	}
}

// ftranDense solves B z = w in place on a dense vector.
func (f *luFactor) ftranDense(w []float64) {
	for k := 0; k < len(f.prow); k++ {
		v := w[f.prow[k]]
		if v == 0 {
			continue
		}
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			w[f.lind[t]] -= f.lval[t] * v
		}
	}
	for k := f.m - 1; k >= 0; k-- {
		r := f.prow[k]
		v := w[r]
		if v == 0 {
			continue
		}
		x := v / f.udiag[k]
		w[r] = x
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			w[f.prow[f.uind[t]]] -= f.uval[t] * x
		}
	}
}

// btranDense solves Bᵀ y = y in place: transposed U forward in
// elimination order, then the transposed L etas in reverse.
func (f *luFactor) btranDense(y []float64) {
	for k := 0; k < f.m; k++ {
		r := f.prow[k]
		v := y[r]
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			v -= f.uval[t] * y[f.prow[f.uind[t]]]
		}
		y[r] = v / f.udiag[k]
	}
	for k := f.m - 1; k >= 0; k-- {
		var sum float64
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			sum += f.lval[t] * y[f.lind[t]]
		}
		if sum != 0 {
			y[f.prow[k]] -= sum
		}
	}
}

// transpose builds the transposed step patterns of a complete
// factorization (utptr/utind and ltptr/ltind).
func (f *luFactor) transpose() {
	f.utptr, f.utind = transposePattern(f.uptr, f.uind, f.m)
	f.ltptr, f.ltind = transposePattern(f.lptr, f.lind, f.m)
}

// transposePattern transposes the compressed pattern (ptr, ind) of n
// columns over indices below n: the result lists, for each index, the
// columns holding it, ascending.
func transposePattern(ptr, ind []int32, n int) (tptr, tind []int32) {
	tptr = make([]int32, n+2)
	for _, i := range ind {
		tptr[i+2]++
	}
	for i := 2; i < n+2; i++ {
		tptr[i] += tptr[i-1]
	}
	tind = make([]int32, len(ind))
	for k := 0; k < n; k++ {
		for t := ptr[k]; t < ptr[k+1]; t++ {
			i := ind[t] + 1
			tind[tptr[i]] = int32(k)
			tptr[i]++
		}
	}
	return tptr[:n+1], tind
}

// addColumn records one elimination step from the accumulator:
// entries at already-pivoted rows become U column entries, entries at
// unpivoted rows divided by the pivot become L multipliers.
func (f *luFactor) addColumn(s *simplex, prow int) {
	piv := s.w[prow]
	for _, i := range s.wTouch {
		if i == prow {
			continue
		}
		v := s.w[i]
		if v < 1e-12 && v > -1e-12 {
			continue
		}
		if k := f.pos[i]; k >= 0 {
			f.uind = append(f.uind, k)
			f.uval = append(f.uval, v)
		} else {
			f.lind = append(f.lind, int32(i))
			f.lval = append(f.lval, v/piv)
		}
	}
	f.uptr = append(f.uptr, int32(len(f.uind)))
	f.lptr = append(f.lptr, int32(len(f.lind)))
	f.udiag = append(f.udiag, piv)
	f.pos[prow] = int32(len(f.prow))
	f.prow = append(f.prow, int32(prow))
}

// factorize computes a fresh LU factorization of the current basis,
// repairing singularity the same way the old product-form rebuild
// did: columns that cannot be pivoted leave the basis, rows left
// unpivoted get their slack back, and a slack that is needed while
// basic elsewhere is a *StabilityError (the eta arithmetic no longer
// represents a permutation of the basis). On success s.lu is replaced
// and the basis arrays are consistent; the caller recomputes xB.
func (s *simplex) factorize() error {
	f := &luFactor{
		m: s.m, sig: s.p.matSig,
		prow:  make([]int32, 0, s.m),
		pos:   make([]int32, s.m),
		lptr:  make([]int32, 1, s.m+1),
		uptr:  make([]int32, 1, s.m+1),
		udiag: make([]float64, 0, s.m),
	}
	// Static row counts of the basis matrix drive the Markowitz-style
	// pivot-row choice below: among numerically acceptable candidates,
	// the row with the fewest original nonzeros limits fill-in.
	rowCount := make([]int, s.m)
	type slot struct {
		j   int
		nnz int
	}
	slots := make([]slot, 0, s.m)
	for r := 0; r < s.m; r++ {
		j := s.basis[r]
		nnz := 1
		if j < s.n {
			nnz = len(s.p.cols[j])
			for _, nz := range s.p.cols[j] {
				rowCount[nz.Row]++
			}
		} else {
			rowCount[j-s.n]++
		}
		slots = append(slots, slot{j: j, nnz: nnz})
	}
	// The column half of the Markowitz product is a priori: ascending
	// column count, column id breaking ties for determinism.
	slices.SortFunc(slots, func(a, b slot) int {
		if a.nnz != b.nnz {
			return a.nnz - b.nnz
		}
		return a.j - b.j
	})
	for i := range f.pos {
		f.pos[i] = -1
	}
	newBasis := make([]int, s.m)
	var failed []int
	for _, sl := range slots {
		s.clearW()
		s.scatterColumn(sl.j)
		f.lsolveW(s)
		maxAbs := 0.0
		for _, i := range s.wTouch {
			if f.pos[i] >= 0 {
				continue
			}
			if a := math.Abs(s.w[i]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs <= 1e-7 {
			failed = append(failed, sl.j)
			continue
		}
		// Threshold pivoting: any row within 10x of the largest
		// magnitude is acceptable; among those, fewest original
		// nonzeros wins (Markowitz), magnitude breaks ties.
		bestR, bestV, bestC := -1, 0.0, 0
		thresh := 0.1 * maxAbs
		for _, i := range s.wTouch {
			if f.pos[i] >= 0 {
				continue
			}
			a := math.Abs(s.w[i])
			if a < thresh {
				continue
			}
			if bestR < 0 || rowCount[i] < bestC || (rowCount[i] == bestC && a > bestV) {
				bestR, bestV, bestC = i, a, rowCount[i]
			}
		}
		f.addColumn(s, bestR)
		newBasis[bestR] = sl.j
	}
	// Repair: failed columns leave the basis; unpivoted rows get their
	// slack back.
	for _, j := range failed {
		s.state[j] = stLower
		if s.lob(j) == math.Inf(-1) {
			s.state[j] = stZero
			if s.hib(j) < Inf {
				s.state[j] = stUpper
			}
		}
		s.inRow[j] = -1
	}
	for r := 0; r < s.m; r++ {
		if f.pos[r] >= 0 {
			continue
		}
		j := s.n + r
		if s.state[j] == stBasic && s.inRow[j] != r {
			// The slack is basic elsewhere — its column only covers row
			// r, so the eta file no longer represents a permutation of
			// the basis (accumulated roundoff).
			return &StabilityError{Stage: "refactor",
				Detail: fmt.Sprintf("slack of row %d is basic in row %d", r, s.inRow[j])}
		}
		s.clearW()
		s.w[r] = -1
		s.touchW(r)
		f.lsolveW(s)
		if a := math.Abs(s.w[r]); a <= 1e-10 {
			return &StabilityError{Stage: "refactor",
				Detail: fmt.Sprintf("slack repair pivot vanished in row %d", r)}
		}
		f.addColumn(s, r)
		newBasis[r] = j
	}
	copy(s.basis, newBasis)
	for r := 0; r < s.m; r++ {
		s.inRow[s.basis[r]] = r
		s.state[s.basis[r]] = stBasic
	}
	if s.m >= sparseRatio {
		// Only btranSparse reads the transposed patterns, and below
		// this size btran never reaches a step through it.
		f.transpose()
	}
	f.nnz = len(f.lval) + len(f.uval) + s.m
	s.lu = f
	s.fillBudget = 2*f.nnz + 16*s.m
	return nil
}

// adoptFactor installs the factorization carried by a warm basis
// snapshot, skipping the refactorization a cold start would pay. It
// refuses (reporting false, not an error) when the payload was built
// on a different matrix, or when its update file is already at the
// refactorization cadence — adopting it would buy nothing. The
// lp/refactor_fail fault fires here too, so injected factorization
// failures reach warm re-solves that would otherwise never refactor.
func (s *simplex) adoptFactor(b *Basis) (bool, error) {
	f := b.factor
	if f == nil || f.lu == nil || f.lu.m != s.m || f.lu.sig != s.p.matSig {
		return false, nil
	}
	if len(f.updates) >= s.opts.RefactorGap || f.nnz > 2*f.lu.nnz+16*s.m {
		return false, nil
	}
	if fpRefactorFail.Fire() {
		return false, &StabilityError{Stage: "refactor",
			Detail: "injected repair conflict (carried factorization)", FTDepth: len(f.updates)}
	}
	s.lu = f.lu
	s.updates = append(s.updates[:0], f.updates...)
	s.updateNnz = f.nnz
	s.fillBudget = 2*f.lu.nnz + 16*s.m
	return true, nil
}

// recomputeXB recomputes the basic values from the nonbasic point:
// x_B = ftran(-(N x_N)).
func (s *simplex) recomputeXB() {
	rhs := make([]float64, s.m)
	for j := 0; j < s.n+s.m; j++ {
		if s.state[j] == stBasic {
			continue
		}
		v := s.nonbasicValue(j)
		if v == 0 {
			continue
		}
		if j < s.n {
			for _, nz := range s.p.cols[j] {
				rhs[nz.Row] -= nz.Val * v
			}
		} else {
			rhs[j-s.n] += v
		}
	}
	s.ftran(rhs)
	copy(s.xB, rhs)
}

// stepQueue holds the elimination steps a sparse solve has reached,
// one bit per step. A solve only ever reaches steps beyond the one it
// is visiting, in its own direction, so the queue is monotone: popMin
// (popMax) scans from the last step it returned and never looks back,
// and a step reached twice is one bit. That is all the ordering the
// solves need, and it is cheaper than a binary heap, whose log factor
// would cost more than a dense sweep on a small basis. The bits are
// clear again once the queue has drained.
type stepQueue struct {
	bits   []uint64
	lo, hi int // word range that may still hold bits
}

func (q *stepQueue) reset() { q.lo, q.hi = len(q.bits), -1 }

func (q *stepQueue) push(k int32) {
	w := int(k >> 6)
	q.bits[w] |= 1 << (k & 63)
	q.lo = min(q.lo, w)
	q.hi = max(q.hi, w)
}

// popMin removes and returns the smallest queued step, reporting false
// once the queue is empty.
func (q *stepQueue) popMin() (int32, bool) {
	for ; q.lo <= q.hi; q.lo++ {
		if b := q.bits[q.lo]; b != 0 {
			t := bits.TrailingZeros64(b)
			q.bits[q.lo] = b &^ (1 << t)
			return int32(q.lo<<6 + t), true
		}
	}
	return 0, false
}

// popMax removes and returns the largest queued step.
func (q *stepQueue) popMax() (int32, bool) {
	for ; q.hi >= q.lo; q.hi-- {
		if b := q.bits[q.hi]; b != 0 {
			t := 63 - bits.LeadingZeros64(b)
			q.bits[q.hi] = b &^ (1 << t)
			return int32(q.hi<<6 + t), true
		}
	}
	return 0, false
}
