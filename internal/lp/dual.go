package lp

import (
	"math"
	"sort"
	"time"
)

// Bounded-variable dual simplex. A warm-started node re-solve in
// branch and bound starts from the parent's optimal basis: a bound
// change or an appended cut row leaves that basis dual feasible (the
// reduced costs are untouched; a new row's slack enters with a zero
// multiplier) while the primal point violates the new bound. The dual
// simplex iterates directly on that structure — pick the most
// violated basic variable, price its row, ratio-test on the reduced
// costs — instead of re-entering primal phase 1 from scratch.
//
// Robustness: the dual-unbounded conclusion ("no entering candidate
// ⇒ primal infeasible") depends only on the signs of the pivot-row
// coefficients and the nonbasic states, never on the incrementally
// maintained reduced costs, so maintained-cost drift cannot produce a
// false Infeasible. Anything the loop distrusts — a start that is not
// dual feasible, a vanishing pivot, an ftran/btran disagreement, a
// degenerate stall — returns dualBail and the primal phases finish
// the solve; the answer never depends on the dual path being taken.

// dualStallLimit bounds consecutive degenerate (θ≈0) dual pivots
// before the loop defers to the primal, which owns the full Bland
// anti-cycling machinery.
const dualStallLimit = 400

// dualCand is one eligible entering candidate in the bound-flip ratio
// test: its dual ratio (the breakpoint where its reduced cost changes
// sign) and |α| (its weight in the slope of the dual objective).
type dualCand struct {
	j          int
	ratio, abs float64
}

// dualFeasible reports whether the current nonbasic reduced costs
// satisfy the dual sign conditions to tolerance dtol.
func (s *simplex) dualFeasible(dtol float64) bool {
	for j := 0; j < s.n+s.m; j++ {
		d := s.d[j]
		switch s.state[j] {
		case stLower:
			if d < -dtol {
				return false
			}
		case stUpper:
			if d > dtol {
				return false
			}
		case stZero:
			if d > dtol || d < -dtol {
				return false
			}
		}
	}
	return true
}

// runDual iterates the dual simplex until the point is primal
// feasible (Optimal — the caller's phase 2 then confirms optimality),
// provably primal infeasible (Infeasible), out of budget (IterLimit),
// or the loop wants the primal to take over (dualBail).
func (s *simplex) runDual() (Status, error) {
	tol := s.opts.Tol
	if s.d == nil {
		s.d = make([]float64, s.n+s.m)
		s.gamma = make([]float64, s.n+s.m)
	}
	s.computeReducedCosts()
	if !s.dualFeasible(10 * tol) {
		return dualBail, nil
	}
	if s.rowW == nil {
		s.rowW = make([]float64, s.m)
	}
	if s.alpha == nil {
		s.alpha = make([]float64, s.n+s.m)
	}
	for i := range s.rowW {
		s.rowW[i] = 1
	}
	stall := 0
	cands := make([]dualCand, 0, s.n+s.m)
	flips := make([]int, 0, 16)
	checkClock := !s.opts.Deadline.IsZero()
	for ; s.iter < s.opts.MaxIters; s.iter++ {
		if checkClock && s.iter&255 == 0 && time.Now().After(s.opts.Deadline) {
			return IterLimit, nil
		}
		// Leaving variable: the basic with the largest dual-devex
		// weighted bound violation.
		r := -1
		var delta, best float64
		for i := 0; i < s.m; i++ {
			x := s.xB[i]
			j := s.basis[i]
			var v float64
			if lo := s.lob(j); x < lo-tol {
				v = x - lo
			} else if hi := s.hib(j); x > hi+tol {
				v = x - hi
			} else {
				continue
			}
			if score := v * v / s.rowW[i]; score > best {
				best, r, delta = score, i, v
			}
		}
		if r < 0 {
			return Optimal, nil // primal feasible
		}
		sgn := 1.0
		if delta < 0 {
			sgn = -1
		}
		// Pivot row: ρ = B⁻ᵀ e_r, then α_j = ρ·A_j for every nonbasic
		// j that can have one (the rest are exact zeros and never
		// eligible).
		s.btranUnit(r)
		rowCols := s.pivotRowCols()
		// Dual ratio test: every eligible nonbasic (at-lower needs
		// sgn·α > 0, at-upper sgn·α < 0, free either) is a breakpoint
		// at ratio d_j/(sgn·α_j) where the dual objective's slope
		// changes.
		cands = cands[:0]
		for _, j := range rowCols {
			st := s.state[j]
			if st == stBasic {
				continue
			}
			a := s.rowEntry(j)
			s.alpha[j] = a
			sa := sgn * a
			var ratio float64
			switch st {
			case stLower:
				if sa <= 1e-9 {
					continue
				}
				ratio = s.d[j] / sa
			case stUpper:
				if sa >= -1e-9 {
					continue
				}
				ratio = s.d[j] / sa
			default: // free at zero
				if sa < 1e-9 && sa > -1e-9 {
					continue
				}
				ratio = math.Abs(s.d[j]) / math.Abs(sa)
			}
			if ratio < 0 {
				ratio = 0 // tolerance noise in d
			}
			cands = append(cands, dualCand{j, ratio, math.Abs(a)})
		}
		// Bound-flip ratio test (long-step dual): walk the breakpoints
		// in ratio order. A boxed candidate whose flip to its opposite
		// bound leaves the dual slope positive is flipped rather than
		// entered — θ passes its breakpoint — and the entering variable
		// is the first breakpoint the slope cannot pass. On 0-1 models
		// this repairs a bound change in one basis update where the
		// textbook test pays one pivot per breakpoint. Flipping an
		// at-lower j to at-upper keeps dual feasibility because the
		// final θ is at least j's own breakpoint, so j's updated
		// reduced cost has crossed to the at-upper sign (symmetrically
		// for at-upper).
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].ratio != cands[b].ratio {
				return cands[a].ratio < cands[b].ratio
			}
			return cands[a].abs > cands[b].abs // |α| for stability on ties
		})
		enter := -1
		var chosenRatio float64
		slope := math.Abs(delta)
		flips = flips[:0]
		for _, c := range cands {
			rng := s.hib(c.j) - s.lob(c.j)
			if gain := c.abs * rng; !math.IsInf(rng, 1) && slope-gain > 1e-9 {
				flips = append(flips, c.j)
				slope -= gain
				continue
			}
			enter, chosenRatio = c.j, c.ratio
			break
		}
		if enter < 0 {
			// Dual ray: no nonbasic move (or flipping all of them) can
			// repair the violated row — the problem is primal
			// infeasible. This conclusion uses only α signs, states,
			// and bound ranges, so it is immune to maintained-cost
			// drift. The flips are not applied.
			return Infeasible, nil
		}
		if len(flips) > 0 {
			// Apply the flips: one combined ftran moves every basic by
			// the flipped columns' contribution, then the violated row
			// is re-read (its residual is the slope left after the
			// flips, same sign).
			s.clearW()
			for _, j := range flips {
				var dxj float64
				if s.state[j] == stLower {
					dxj = s.hib(j) - s.lob(j)
					s.state[j] = stUpper
				} else {
					dxj = s.lob(j) - s.hib(j)
					s.state[j] = stLower
				}
				if dxj == 0 {
					continue // a fixed variable's flip is a no-op breakpoint
				}
				s.column(j, func(row int, val float64) {
					s.w[row] += val * dxj
					s.touchW(row)
				})
			}
			s.ftranW()
			for _, i := range s.wTouch {
				if s.w[i] != 0 {
					s.xB[i] -= s.w[i]
				}
			}
			s.boundFlips += len(flips)
			x := s.xB[r]
			j := s.basis[r]
			if lo := s.lob(j); x < lo-tol {
				delta = x - lo
			} else if hi := s.hib(j); x > hi+tol {
				delta = x - hi
			} else {
				// The flips alone landed the row inside its bounds
				// (the remaining slope was below tolerance); no pivot
				// is needed this iteration.
				s.dualIters++
				stall = 0
				continue
			}
			if (delta < 0) != (sgn < 0) {
				// The residual changed sign: the slope bookkeeping and
				// the factorized arithmetic disagree.
				return dualBail, nil
			}
		}
		// Entering column through the factorization; its row-r entry
		// must agree with the btran pricing of the same element.
		s.clearW()
		s.scatterColumn(enter)
		s.ftranW()
		aq := s.w[r]
		if ar := s.alpha[enter]; math.Abs(aq) < 1e-9 ||
			math.Abs(aq-ar) > 1e-6*(1+math.Abs(aq)) {
			// The factorized arithmetic disagrees with itself: refresh
			// the factorization and let the primal take over.
			if err := s.refactor(); err != nil {
				return IterLimit, err
			}
			return dualBail, nil
		}
		dx := delta / aq
		theta := s.d[enter] / aq
		// Maintained reduced costs across the pivot (same algebra as
		// the primal update, with the pivot row already priced).
		for _, j := range rowCols {
			if s.state[j] == stBasic || j == enter {
				continue
			}
			if a := s.alpha[j]; a != 0 {
				s.d[j] -= theta * a
			}
		}
		leaving := s.basis[r]
		s.d[leaving] = -theta
		s.d[enter] = 0
		// Dual devex row weights (Forrest–Goldfarb), from the ftran
		// image of the entering column.
		wr := s.rowW[r]
		den := aq * aq
		for _, i := range s.wTouch {
			if i == r {
				continue
			}
			wi := s.w[i]
			if wi == 0 {
				continue
			}
			if g := (wi * wi / den) * wr; g > s.rowW[i] {
				s.rowW[i] = g
			}
		}
		if g := wr / den; g > 1e-4 {
			s.rowW[r] = g
		} else {
			s.rowW[r] = 1e-4
		}
		// Primal point: every basic moves by -w·dx; the leaving
		// variable lands exactly on its violated bound.
		for _, i := range s.wTouch {
			if s.w[i] != 0 {
				s.xB[i] -= s.w[i] * dx
			}
		}
		if delta > 0 {
			s.state[leaving] = stUpper
		} else {
			s.state[leaving] = stLower
		}
		s.inRow[leaving] = -1
		enterVal := s.nonbasicValue(enter) + dx
		s.basis[r] = enter
		s.inRow[enter] = r
		s.state[enter] = stBasic
		s.pushEtaW(r)
		s.xB[r] = enterVal
		s.dualIters++
		if chosenRatio <= 1e-11 {
			s.degenTotal++
			stall++
			if stall > dualStallLimit {
				return dualBail, nil
			}
		} else {
			stall = 0
		}
		refd, err := s.maybeRefactor(false)
		if err != nil {
			return IterLimit, err
		}
		if refd {
			s.computeReducedCosts()
			if !s.dualFeasible(1e-5) {
				// Refreshed arithmetic says the maintained costs had
				// drifted out of dual feasibility; the primal finishes.
				return dualBail, nil
			}
		}
	}
	return IterLimit, nil
}
