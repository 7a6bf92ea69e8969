package model

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/obs"
)

// TestVerifiedChecksSolverPoint feeds the check Solve applies to every
// solver result one point of each kind it must tell apart.
func TestVerifiedChecksSolverPoint(t *testing.T) {
	m := buildPacking([2]string{"x", "y"}, ident(9))
	good, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if good.Status != mip.Optimal || good.X == nil {
		t.Fatalf("clean solve: status %v, x %v", good.Status, good.X)
	}

	ones := make([]float64, len(good.X))
	for i := range ones {
		ones[i] = 1 // violates every pack row
	}
	base := obs.TakeSnapshot()
	if _, err := m.verified(&mip.Result{Status: mip.Optimal, X: ones}, nil); err == nil {
		t.Fatal("row-violating point accepted")
	}
	if d := obs.Since(base)["mip/verify_drops"]; d != 1 {
		t.Fatalf("mip/verify_drops delta = %d, want 1", d)
	}

	frac := append([]float64(nil), good.X...)
	frac[0] = 0.5
	if _, err := m.verified(&mip.Result{Status: mip.NodeLimit, X: frac}, nil); err == nil {
		t.Fatal("non-integral point accepted")
	}

	want := slices.Clone(good.X)
	res, err := m.verified(good, nil)
	if err != nil || res != good || !slices.Equal(res.X, want) {
		t.Fatalf("feasible point: got (%v, %v), want %v unchanged", res.X, err, want)
	}

	infeas := &mip.Result{Status: mip.Infeasible, Obj: math.Inf(1)}
	res, err = m.verified(infeas, nil)
	if err != nil || res != infeas || res.Status != mip.Infeasible || res.X != nil {
		t.Fatalf("nil X: got (%+v, %v), want the Infeasible result unchanged", res, err)
	}
}

// TestSolveRejectsLyingSolver replaces the branch and bound with one
// that claims Optimal for a row-violating point, on both the presolved
// and the unpresolved path: Solve must return an error that wraps the
// violation, never the point.
func TestSolveRejectsLyingSolver(t *testing.T) {
	defer func(f func(*lp.Problem, []bool, *mip.Options) (*mip.Result, error)) { solveMIP = f }(solveMIP)
	solveMIP = func(p *lp.Problem, _ []bool, _ *mip.Options) (*mip.Result, error) {
		x := make([]float64, p.NumCols())
		for i := range x {
			x[i] = 1
		}
		return &mip.Result{Status: mip.Optimal, X: x}, nil
	}
	for _, pre := range []int{0, -1} {
		m := buildPacking([2]string{"x", "y"}, ident(9))
		base := obs.TakeSnapshot()
		res, err := m.Solve(&mip.Options{Presolve: pre})
		if err == nil {
			t.Fatalf("presolve %d: lying solver's point returned (%v)", pre, res.X)
		}
		if errors.Unwrap(err) == nil {
			t.Fatalf("presolve %d: error %q does not wrap the violation", pre, err)
		}
		if d := obs.Since(base)["mip/verify_drops"]; d != 1 {
			t.Fatalf("presolve %d: mip/verify_drops delta = %d, want 1", pre, d)
		}
	}
}
