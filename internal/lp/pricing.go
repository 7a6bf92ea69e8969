package lp

import (
	"math"
	"slices"
	"time"
)

// Devex pricing for the primal phase 2 (Forrest–Goldfarb reference
// weights, approximating steepest edge without the extra ftran per
// candidate). The loop maintains the full reduced-cost vector
// incrementally — one btran of the pivot row plus a pass over the
// nonbasic columns per pivot, the same work a single Dantzig pricing
// pass costs — and recomputes it exactly at every refactorization and
// once more before optimality is declared, so maintained-cost drift
// can never produce a false optimum. Long degenerate runs hand the
// phase to the Bland-guarded Dantzig loop (blandSwitch), preserving
// the anti-cycling guarantee.

// initPricing (re)initializes the maintained reduced costs and resets
// every devex weight to the current nonbasic reference framework.
func (s *simplex) initPricing() {
	if s.d == nil {
		s.d = make([]float64, s.n+s.m)
		s.gamma = make([]float64, s.n+s.m)
	}
	s.computeReducedCosts()
	for j := range s.gamma {
		s.gamma[j] = 1
	}
}

// computeReducedCosts recomputes d exactly for the phase-2 objective:
// one btran of the basic costs plus a pass over every column.
func (s *simplex) computeReducedCosts() {
	for r := 0; r < s.m; r++ {
		s.y[r] = s.costOf(s.basis[r], false)
	}
	s.btran()
	for j := 0; j < s.n+s.m; j++ {
		if s.state[j] == stBasic {
			s.d[j] = 0
			continue
		}
		d := s.costOf(j, false)
		if j < s.n {
			for _, nz := range s.p.cols[j] {
				d -= s.y[nz.Row] * nz.Val
			}
		} else {
			d += s.y[j-s.n]
		}
		s.d[j] = d
	}
}

// priceDevex picks the entering variable maximizing d²/γ over the
// eligible nonbasics, returning (-1, 0) when none is eligible.
func (s *simplex) priceDevex(tol float64) (int, float64) {
	enter := -1
	var enterDir, best float64
	for j := 0; j < s.n+s.m; j++ {
		d := s.d[j]
		var dir float64
		switch s.state[j] {
		case stLower:
			if d < -tol {
				dir = 1
			}
		case stUpper:
			if d > tol {
				dir = -1
			}
		case stZero:
			if d < -tol {
				dir = 1
			} else if d > tol {
				dir = -1
			}
		default:
			continue
		}
		if dir == 0 {
			continue
		}
		if score := d * d / s.gamma[j]; score > best {
			best, enter, enterDir = score, j, dir
		}
	}
	return enter, enterDir
}

// updatePricing carries the maintained reduced costs and devex
// weights across one pivot (entering q at basis row slot r). It must
// run before the basis arrays are mutated: it reads the pivot element
// from the accumulator (the ftran image of q) and prices the pivot
// row against the still-current nonbasic set.
func (s *simplex) updatePricing(q, r int) {
	s.btranUnit(r)
	aq := s.w[r]
	theta := s.d[q] / aq
	gq := s.gamma[q]
	for _, j := range s.pivotRowCols() {
		if s.state[j] == stBasic || j == q {
			continue
		}
		a := s.rowEntry(j)
		if a == 0 {
			continue
		}
		s.d[j] -= theta * a
		if g := (a / aq) * (a / aq) * gq; g > s.gamma[j] {
			s.gamma[j] = g
		}
	}
	leaving := s.basis[r]
	s.d[leaving] = -theta
	s.d[q] = 0
	if g := gq / (aq * aq); g > 1 {
		s.gamma[leaving] = g
	} else {
		s.gamma[leaving] = 1
	}
}

// rowEntry returns the pivot-row entry α_j = ρ·A_j of column j, with
// ρ in s.y.
func (s *simplex) rowEntry(j int) float64 {
	if j >= s.n {
		return -s.y[j-s.n]
	}
	var a float64
	for _, nz := range s.p.cols[j] {
		a += s.y[nz.Row] * nz.Val
	}
	return a
}

// pivotRowCols lists, in ascending order, the columns whose
// pivot-row entry can be nonzero, given the btranUnit result ρ in s.y
// and, after a sparse btran, its support in s.yTouch: the slacks of
// support rows and the structurals with a nonzero in one. α_j of every
// other column is an exact zero. After a dense btran, or when the
// support rows hold more entries than a quarter of all columns, the
// list is simply every column: a plain pass is then cheaper than
// marking and sorting. The list includes basic columns; callers skip
// them.
func (s *simplex) pivotRowCols() []int {
	work := 0
	var rp *rowPattern
	if s.ySparse {
		rp = s.p.rowPattern()
		for _, i := range s.yTouch {
			work += int(rp.ptr[i+1]-rp.ptr[i]) + 1
		}
	}
	if !s.ySparse || 4*work > s.n+s.m {
		if s.allCols == nil {
			s.allCols = make([]int, s.n+s.m)
			for j := range s.allCols {
				s.allCols[j] = j
			}
		}
		return s.allCols
	}
	if s.colMark == nil {
		s.colMark = make([]bool, s.n+s.m)
	}
	cols := s.rowCols[:0]
	for _, i := range s.yTouch {
		if s.y[i] == 0 {
			continue
		}
		for _, j := range rp.col[rp.ptr[i]:rp.ptr[i+1]] {
			if !s.colMark[j] {
				s.colMark[j] = true
				cols = append(cols, int(j))
			}
		}
		if j := s.n + i; !s.colMark[j] {
			s.colMark[j] = true
			cols = append(cols, j)
		}
	}
	for _, j := range cols {
		s.colMark[j] = false
	}
	slices.Sort(cols)
	s.rowCols = cols
	return cols
}

// runDevex is the phase-2 pivot loop under devex pricing. It returns
// blandSwitch when a degenerate run exceeds the anti-cycling
// threshold; solveOnce then finishes the phase with the Bland-guarded
// Dantzig loop.
func (s *simplex) runDevex() (Status, error) {
	tol := s.opts.Tol
	checkClock := !s.opts.Deadline.IsZero()
	s.initPricing()
	exact := true // d matches an exact recompute
	for ; s.iter < s.opts.MaxIters; s.iter++ {
		if checkClock && s.iter&255 == 0 && time.Now().After(s.opts.Deadline) {
			return IterLimit, nil
		}
		enter, enterDir := s.priceDevex(tol)
		if enter < 0 && !exact {
			// The maintained costs claim optimality; confirm against an
			// exact recompute before declaring it.
			s.computeReducedCosts()
			exact = true
			enter, enterDir = s.priceDevex(tol)
		}
		if enter < 0 {
			return Optimal, nil
		}
		exact = false
		s.clearW()
		s.scatterColumn(enter)
		s.ftranW()
		leave, leaveToUpper, limit, maxAbsW := s.ratioTest(enter, enterDir, false, tol)
		if limit == Inf {
			return Unbounded, nil
		}
		if limit <= 1e-11 {
			s.degenerate++
			s.degenTotal++
			if s.degenerate > 1000 {
				s.bland = true
				return blandSwitch, nil
			}
		} else {
			s.degenerate = 0
		}
		step := enterDir * limit
		for _, r := range s.wTouch {
			if s.w[r] != 0 {
				s.xB[r] -= s.w[r] * step
			}
		}
		if leave < 0 {
			// Bound flip: reduced costs and weights are unaffected.
			if s.state[enter] == stLower {
				s.state[enter] = stUpper
			} else {
				s.state[enter] = stLower
			}
			continue
		}
		s.updatePricing(enter, leave)
		leaving := s.basis[leave]
		if leaveToUpper {
			s.state[leaving] = stUpper
		} else {
			s.state[leaving] = stLower
		}
		if s.hib(leaving) == Inf && s.lob(leaving) == math.Inf(-1) {
			s.state[leaving] = stZero
		}
		s.inRow[leaving] = -1
		enterVal := s.nonbasicValue(enter) + step
		s.basis[leave] = enter
		s.inRow[enter] = leave
		s.state[enter] = stBasic
		piv := math.Abs(s.w[leave])
		s.pushEtaW(leave)
		s.xB[leave] = enterVal
		refd, err := s.maybeRefactor(piv < 1e-8*maxAbsW)
		if err != nil {
			return IterLimit, err
		}
		if refd {
			s.computeReducedCosts()
			exact = true
		}
	}
	return IterLimit, nil
}
