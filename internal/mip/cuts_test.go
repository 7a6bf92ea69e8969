package mip

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// randKnapsackProblem builds a small random 0-1 multi-knapsack with
// set-packing side rows — the row shapes the separator reads — and
// returns the problem plus a dense copy for brute-force checks.
func randKnapsackProblem(rng *rand.Rand, n, m int) (*lp.Problem, [][]float64, []float64, []float64) {
	p := lp.NewProblem()
	cols := make([]int, n)
	for j := 0; j < n; j++ {
		cols[j] = p.AddCol(-float64(1+rng.Intn(20)), 0, 1)
	}
	A := make([][]float64, 0, m+2)
	lo := make([]float64, 0, m+2)
	hi := make([]float64, 0, m+2)
	for r := 0; r < m; r++ {
		row := make([]float64, n)
		var rc []int
		var rv []float64
		sum := 0.0
		for j := 0; j < n; j++ {
			w := float64(1 + rng.Intn(9))
			row[j] = w
			rc = append(rc, j)
			rv = append(rv, w)
			sum += w
		}
		b := math.Floor(sum / 2)
		p.AddRow(math.Inf(-1), b, rc, rv)
		A, lo, hi = append(A, row), append(lo, math.Inf(-1)), append(hi, b)
	}
	// One set-packing row over a random prefix, so clique separation has
	// something to read.
	k := 2 + rng.Intn(n-2)
	row := make([]float64, n)
	var rc []int
	var rv []float64
	for j := 0; j < k; j++ {
		row[j] = 1
		rc = append(rc, j)
		rv = append(rv, 1)
	}
	p.AddRow(math.Inf(-1), 1, rc, rv)
	A, lo, hi = append(A, row), append(lo, math.Inf(-1)), append(hi, 1)
	return p, A, lo, hi
}

// feasiblePoints enumerates all integer-feasible 0-1 points.
func feasiblePoints(n int, A [][]float64, lo, hi []float64) [][]float64 {
	var pts [][]float64
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for r := 0; r < len(A) && ok; r++ {
			ax := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					ax += A[r][j]
				}
			}
			if ax < lo[r]-1e-9 || ax > hi[r]+1e-9 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		x := make([]float64, n)
		for j := 0; j < n; j++ {
			if mask>>j&1 == 1 {
				x[j] = 1
			}
		}
		pts = append(pts, x)
	}
	return pts
}

// TestCutValidityExhaustive separates cover and clique cuts at the
// root of small random problems and checks that no integer-feasible
// point violates any of them — the one property every cut family must
// hold unconditionally.
func TestCutValidityExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(7) // 6..12
		m := 1 + rng.Intn(3)
		p, A, lo, hi := randKnapsackProblem(rng, n, m)
		pts := feasiblePoints(n, A, lo, hi)
		sol, err := p.Solve(nil)
		if err != nil || sol.Status != lp.Optimal {
			t.Fatalf("trial %d: root LP %v %v", trial, err, sol)
		}
		integer := make([]bool, n)
		for j := range integer {
			integer[j] = true
		}
		sep := newSeparator(p, integer)
		cuts := sep.separate(sol.X, 64)
		for ci := range cuts {
			c := &cuts[ci]
			for _, x := range pts {
				if v := c.violation(x); v > 1e-6 {
					t.Fatalf("trial %d: cut %d (lo=%v hi=%v cols=%v vals=%v) cuts off feasible point %v by %v",
						trial, ci, c.lo, c.hi, c.cols, c.vals, x, v)
				}
			}
		}
	}
}

// TestCutsPreserveOptimum solves random instances with cuts on and off
// and requires identical optimal objectives: cuts may only prune
// fractional points, never integer ones.
func TestCutsPreserveOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		p, _, _, _ := randKnapsackProblem(rng, n, m)
		off, err := Solve(p, nil, &Options{Workers: 1, CutRounds: -1})
		if err != nil {
			t.Fatalf("trial %d off: %v", trial, err)
		}
		on, err := Solve(p, nil, &Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d on: %v", trial, err)
		}
		if off.Status != on.Status {
			t.Fatalf("trial %d: status off=%v on=%v", trial, off.Status, on.Status)
		}
		if math.Abs(off.Obj-on.Obj) > 1e-4*math.Max(1, math.Abs(off.Obj)) {
			t.Fatalf("trial %d: obj off=%v on=%v", trial, off.Obj, on.Obj)
		}
		if on.X != nil && !Feasible(p, on.X, 1e-5) {
			t.Fatalf("trial %d: cuts-on solution infeasible", trial)
		}
	}
}

// TestCutNodeReduction pins the Figure 7 acceptance criterion: on the
// benchmark workload the cut machinery (root loop, tree covers and the
// objective lattice) must explore at least 30% fewer nodes than the
// plain search at the same objective.
func TestCutNodeReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-sized instance")
	}
	p := MultiKnapsack(60, 5, 12345)
	off, err := Solve(p, nil, &Options{Workers: 1, CutRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Solve(p, nil, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(on.Obj, off.Obj) {
		t.Fatalf("objectives differ: on=%v off=%v", on.Obj, off.Obj)
	}
	if on.Nodes > off.Nodes*7/10 {
		t.Fatalf("cuts-on explored %d nodes, want <= 70%% of %d", on.Nodes, off.Nodes)
	}
	if on.RootCutObj < on.RootObj {
		t.Fatalf("cut root bound %v below plain root %v (minimization: must not weaken)", on.RootCutObj, on.RootObj)
	}
}

// TestCutsDisabledMatchesPlainSearch checks the compatibility contract:
// CutRounds < 0 with one worker must reproduce the plain warm-started
// branch and bound exactly — same nodes, same iterations.
func TestCutsDisabledMatchesPlainSearch(t *testing.T) {
	p := MultiKnapsack(40, 4, 99)
	a, err := Solve(p, nil, &Options{Workers: 1, CutRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, nil, &Options{Workers: 1, CutRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes != b.Nodes || a.LPIters != b.LPIters || a.Obj != b.Obj {
		t.Fatalf("cuts-off search not deterministic: %+v vs %+v", a, b)
	}
	if a.Cuts != 0 || a.RootCutObj != a.RootObj {
		t.Fatalf("cuts-off run reports cut activity: %+v", a)
	}
}

func TestObjGranularity(t *testing.T) {
	p := lp.NewProblem()
	p.AddCol(4, 0, 1)
	p.AddCol(6, 0, 1)
	p.AddCol(0, 0, 5) // zero objective: exempt from integrality requirement
	integer := []bool{true, true, false}
	if g := objGranularity(p, integer); g != 2 {
		t.Fatalf("gcd(4,6) = %v, want 2", g)
	}
	// A continuous column with nonzero objective kills the lattice.
	p2 := lp.NewProblem()
	p2.AddCol(4, 0, 1)
	p2.AddCol(0.5, 0, 1)
	if g := objGranularity(p2, []bool{true, false}); g != 0 {
		t.Fatalf("continuous objective column: granularity %v, want 0", g)
	}
	// Non-integer coefficient on an integer column likewise.
	p3 := lp.NewProblem()
	p3.AddCol(1.5, 0, 1)
	if g := objGranularity(p3, []bool{true}); g != 0 {
		t.Fatalf("fractional coefficient: granularity %v, want 0", g)
	}
}

func TestCutPoolDedupAndTight(t *testing.T) {
	cp := newCutPool()
	c1 := cut{cols: []int{0, 1}, vals: []float64{1, 1}, lo: math.Inf(-1), hi: 1}
	c2 := cut{cols: []int{1, 0}, vals: []float64{1, 1}, lo: math.Inf(-1), hi: 1} // same cut, permuted
	c3 := cut{cols: []int{0}, vals: []float64{1}, lo: 0.5, hi: math.Inf(1)}
	if got := cp.add([]cut{c1, c2, c3}); got != 2 {
		t.Fatalf("add returned %d, want 2 (permuted duplicate)", got)
	}
	// At x = (1, 0): c1 is tight (activity 1 = hi), c3 is slack
	// (activity 1 > lo+tol).
	tight := cp.tight([]float64{1, 0}, 1e-6)
	if len(tight) != 1 || tight[0].hi != 1 {
		t.Fatalf("tight = %+v, want just the packing cut", tight)
	}
}
