// Package lp implements a linear-programming solver: a bounded-variable
// simplex over sparse columns with a sparse LU basis factorization
// (threshold-Markowitz pivoting, Forrest–Tomlin-style update etas
// between refactorizations, triangular solves that visit only the
// elimination steps their input reaches), devex pricing on the primal
// side, and a dual simplex for warm-started re-solves after bound
// changes or added rows. It is the substrate under the branch-and-bound
// MIP solver that stands in for CPLEX in this reproduction.
//
// Problems are stated as
//
//	minimize    c'x
//	subject to  rowLo <= Ax <= rowHi,   lo <= x <= hi
//
// Internally every row gets a logical (slack) variable s with bounds
// [rowLo, rowHi] and the equation a'x - s = 0, giving the computational
// form  [A | -I] (x, s) = 0  whose slack basis is always nonsingular.
//
// # Usage
//
// Build a problem column by column, then solve:
//
//	p := lp.NewProblem()
//	x := p.AddCol(1.0, 0, lp.Inf)                   // objective coeff, bounds
//	y := p.AddCol(2.0, 0, lp.Inf)
//	p.AddRow(1, 3, []int{x, y}, []float64{1, 1})    // 1 <= x + y <= 3
//	sol, err := p.Solve(nil)
//	if err == nil && sol.Status == lp.Optimal {
//		_ = sol.X[x] + sol.X[y]                 // primal values
//	}
//
// Solution.Basis snapshots the final basis — variable states, basis
// row order, and the LU factorization with its pending update etas.
// Passing it back through Options.WarmBasis after bound changes
// warm-starts the re-solve: the factorization is adopted without
// refactorizing (guarded by a matrix signature), and Options.Method
// MethodAuto routes the re-solve through the dual simplex, which
// restores optimality in a handful of pivots instead of a full solve.
// Options.Method / Options.Pricing pin the algorithm (MethodPrimal,
// MethodDual, PricingDantzig) for experiments; the defaults choose
// dual-on-warm and devex.
//
// The lp/ observability counters (lp/solves, lp/iterations,
// lp/dual_iterations, lp/degenerate_pivots, lp/bland_activations,
// lp/refactorizations, lp/ft_updates, lp/refactor_cadence,
// lp/lu_steps) are always on and are read via obs.TakeSnapshot — see
// DESIGN.md §8.
package lp
