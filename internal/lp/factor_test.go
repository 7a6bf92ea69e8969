package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// residualFtran checks B·ftran(v) ≈ v on the simplex's current basis
// representation, returning the largest componentwise error.
func residualFtran(s *simplex, v []float64) float64 {
	z := append([]float64(nil), v...)
	s.ftran(z)
	act := make([]float64, s.m)
	for r := 0; r < s.m; r++ {
		j := s.basis[r]
		if j < s.n {
			for _, nz := range s.p.cols[j] {
				act[nz.Row] += nz.Val * z[r]
			}
		} else {
			act[j-s.n] -= z[r]
		}
	}
	worst := 0.0
	for i := range act {
		if d := math.Abs(act[i] - v[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// residualBtran checks Bᵀ·btran(v) ≈ v the same way.
func residualBtran(s *simplex, v []float64) float64 {
	copy(s.y, v)
	s.btran()
	y := s.y
	worst := 0.0
	for r := 0; r < s.m; r++ {
		j := s.basis[r]
		var dot float64
		if j < s.n {
			for _, nz := range s.p.cols[j] {
				dot += nz.Val * y[nz.Row]
			}
		} else {
			dot = -y[j-s.n]
		}
		if d := math.Abs(dot - v[r]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestLUFactorSolvesAgainstBasis factorizes the optimal basis of a
// family of LPs and verifies ftran and btran against the basis matrix
// itself: B·ftran(v) = v and Bᵀ·btran(v) = v for random dense v. This
// pins the LU construction (elimination order, U coordinates, the
// transposed solves) independently of any pivoting behavior.
func TestLUFactorSolvesAgainstBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := buildAssignment(4+trial%5, int64(trial))
		sol, err := p.Solve(nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, sol, err)
		}
		var o Options
		o.fill(p)
		s := newSimplex(p, &o)
		if !s.loadBasis(sol.Basis) {
			t.Fatalf("trial %d: snapshot rejected", trial)
		}
		if err := s.refactor(); err != nil {
			t.Fatalf("trial %d: refactor: %v", trial, err)
		}
		v := make([]float64, s.m)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if d := residualFtran(s, v); d > 1e-8 {
			t.Fatalf("trial %d: ftran residual %g", trial, d)
		}
		if d := residualBtran(s, v); d > 1e-8 {
			t.Fatalf("trial %d: btran residual %g", trial, d)
		}
	}
}

// TestFTUpdatesKeepSolvesExact forces a tiny problem to stack many
// Forrest–Tomlin updates without refactorizing (huge RefactorGap) and
// checks the basis solves stay exact through the update file.
func TestFTUpdatesKeepSolvesExact(t *testing.T) {
	p := buildAssignment(8, 3)
	sol, err := p.Solve(&Options{RefactorGap: 1 << 20})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	var o Options
	o.fill(p)
	o.RefactorGap = 1 << 20
	s := newSimplex(p, &o)
	s.crashBasis()
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.run(true); err != nil {
		t.Fatal(err)
	}
	if st, err := s.run(false); err != nil || st != Optimal {
		t.Fatalf("phase 2: %v %v", st, err)
	}
	if len(s.updates) == 0 {
		t.Fatal("expected a non-empty update file (RefactorGap is huge)")
	}
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, s.m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if d := residualFtran(s, v); d > 1e-7 {
		t.Fatalf("ftran residual through %d updates: %g", len(s.updates), d)
	}
	if d := residualBtran(s, v); d > 1e-7 {
		t.Fatalf("btran residual through %d updates: %g", len(s.updates), d)
	}
}

// TestWarmAdoptionSkipsRefactorization re-solves from a snapshot of
// the same problem (the branch-and-bound pattern: a clone with a
// changed bound) and asserts the carried factorization was adopted:
// the warm solve performs no refactorization at all, which is exactly
// the lp/refactorizations < lp/solves acceptance property.
func TestWarmAdoptionSkipsRefactorization(t *testing.T) {
	p := buildAssignment(10, 21)
	sol, err := p.Solve(nil)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("cold solve: %v %v", sol, err)
	}
	q := p.Clone()
	q.SetBounds(0, 0, 0) // branch: fix one variable
	base := obs.TakeSnapshot()
	warm, err := q.Solve(&Options{WarmBasis: sol.Basis})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("warm solve: %v %v", warm, err)
	}
	d := obs.Since(base)
	if d["lp/solves"] != 1 {
		t.Fatalf("lp/solves = %d, want 1", d["lp/solves"])
	}
	if d["lp/refactorizations"] != 0 {
		t.Fatalf("lp/refactorizations = %d, want 0 (factorization adopted)", d["lp/refactorizations"])
	}
}

// TestMatrixSignatureGuardsAdoption warm-starts a solve of one matrix
// with a basis snapshot taken on a different matrix of identical
// shape. The basis itself is legal (shape-compatible) so it loads,
// but the carried factorization must be rejected by the signature —
// the solve refactorizes and still reaches the right optimum.
func TestMatrixSignatureGuardsAdoption(t *testing.T) {
	mk := func(c float64) *Problem {
		p := NewProblem()
		var cols []int
		var vals []float64
		for j := 0; j < 6; j++ {
			cols = append(cols, p.AddCol(-1-float64(j%3), 0, 1))
			vals = append(vals, 1+c*float64(j))
		}
		p.AddRow(math.Inf(-1), 3, cols, vals)
		p.AddRow(0.5, 2.5, cols[:3], vals[:3])
		return p
	}
	p1 := mk(0.5)
	p2 := mk(0.25) // same shape, different matrix coefficients
	sol1, err := p1.Solve(nil)
	if err != nil || sol1.Status != Optimal {
		t.Fatalf("p1: %v %v", sol1, err)
	}
	want, err := p2.Solve(nil)
	if err != nil || want.Status != Optimal {
		t.Fatalf("p2 cold: %v %v", want, err)
	}
	base := obs.TakeSnapshot()
	got, err := p2.Solve(&Options{WarmBasis: sol1.Basis})
	if err != nil || got.Status != Optimal {
		t.Fatalf("p2 warm: %v %v", got, err)
	}
	if math.Abs(got.Obj-want.Obj) > 1e-6 {
		t.Fatalf("foreign-factor warm solve: obj %v, want %v", got.Obj, want.Obj)
	}
	if d := obs.Since(base); d["lp/refactorizations"] < 1 {
		t.Fatalf("lp/refactorizations = %d, want >= 1 (foreign factorization must not be adopted)",
			d["lp/refactorizations"])
	}
}

// TestRefactorCadenceCounters drives a long solve and sanity-checks
// the new cadence counters: ft_updates tracks pivots, and the
// cadence accumulator divided by refactorizations is the average
// update depth a factorization served.
func TestRefactorCadenceCounters(t *testing.T) {
	base := obs.TakeSnapshot()
	p := buildAssignment(20, 9)
	sol, err := p.Solve(&Options{RefactorGap: 16})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	d := obs.Since(base)
	if d["lp/ft_updates"] == 0 {
		t.Fatal("lp/ft_updates = 0, want > 0")
	}
	if d["lp/refactorizations"] == 0 {
		t.Fatal("lp/refactorizations = 0")
	}
	if d["lp/refactor_cadence"] == 0 {
		t.Fatal("lp/refactor_cadence = 0, want > 0 with RefactorGap 16")
	}
}

// denseFtranW is ftranW with the L and U sweeps: the dense loops the
// reach-driven solves must reproduce bit for bit.
func denseFtranW(s *simplex) {
	s.lu.lsweep(s)
	s.lu.usweep(s)
	for k := range s.updates {
		e := &s.updates[k]
		wr := s.w[e.r]
		if wr == 0 {
			continue
		}
		zr := wr / e.piv
		s.w[e.r] = zr
		for i, ix := range e.idx {
			s.touchW(int(ix))
			s.w[ix] -= e.val[i] * zr
		}
	}
}

// denseBtran is btran with the dense Uᵀ and Lᵀ sweeps, on a private
// vector.
func denseBtran(s *simplex, y []float64) {
	for k := len(s.updates) - 1; k >= 0; k-- {
		e := &s.updates[k]
		var sum float64
		for i, ix := range e.idx {
			sum += e.val[i] * y[ix]
		}
		y[e.r] = (y[e.r] - sum) / e.piv
	}
	s.lu.btranDense(y)
}

// accState is the accumulator after a solve: the support in touch
// order and the bits of its values.
type accState struct {
	touch []int
	bits  []uint64
}

func snapshotW(s *simplex) accState {
	a := accState{touch: append([]int(nil), s.wTouch...)}
	for _, i := range s.wTouch {
		a.bits = append(a.bits, math.Float64bits(s.w[i]))
	}
	return a
}

// solveBothW loads the sparse input into the accumulator, runs solve
// and the dense reference on it, and fails unless both leave the same
// support, in the same order, holding the same bits.
func solveBothW(t *testing.T, s *simplex, in map[int]float64, solve, ref func(), label string) {
	t.Helper()
	load := func() {
		s.clearW()
		for i := 0; i < s.m; i++ {
			if v, ok := in[i]; ok {
				s.w[i] = v
				s.touchW(i)
			}
		}
	}
	load()
	solve()
	got := snapshotW(s)
	load()
	ref()
	want := snapshotW(s)
	s.clearW()
	if len(got.touch) != len(want.touch) {
		t.Fatalf("%s: support %d entries, dense %d", label, len(got.touch), len(want.touch))
	}
	for k := range got.touch {
		if got.touch[k] != want.touch[k] || got.bits[k] != want.bits[k] {
			t.Fatalf("%s: entry %d: row %d bits %x, dense row %d bits %x", label, k,
				got.touch[k], got.bits[k], want.touch[k], want.bits[k])
		}
	}
}

// sameBits compares a sparse btran result with the dense sweep's: the
// same bits on every nonzero. The dense sweep writes every component,
// so a component the reach never visits is +0 here where the sweep may
// have produced -0.
func sameBits(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range got {
		if got[i] == 0 && want[i] == 0 {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d = %v, dense %v", label, i, got[i], want[i])
		}
	}
}

// randomSparseLP builds an LP with m rows and n columns in [0,1],
// 2–6 nonzeros per column, each column's rows drawn from one block of
// `block` consecutive rows. Small blocks keep a basis inverse
// block-sparse.
func randomSparseLP(rng *rand.Rand, m, n, block int) *Problem {
	p := NewProblem()
	rows := make([][]int, m)
	vals := make([][]float64, m)
	for j := 0; j < n; j++ {
		c := p.AddCol(rng.NormFloat64(), 0, 1)
		base := rng.Intn(m/block) * block
		for k := 2 + rng.Intn(5); k > 0; k-- {
			r := base + rng.Intn(block)
			rows[r] = append(rows[r], c)
			vals[r] = append(vals[r], rng.NormFloat64())
		}
	}
	for r := 0; r < m; r++ {
		p.AddRow(-1, 1, rows[r], vals[r])
	}
	return p
}

// randomBasis returns a simplex for p factorized on a random basis:
// about three row slots in four get a random structural column (the
// factorization repairs whatever turns out dependent), then up to
// pivots phase-1 pivots stack Forrest–Tomlin updates on top of it.
func randomBasis(t *testing.T, p *Problem, rng *rand.Rand, pivots int) *simplex {
	t.Helper()
	var o Options
	o.fill(p)
	s := newSimplex(p, &o)
	s.crashBasis()
	for r := 0; r < s.m; r++ {
		j := rng.Intn(s.n)
		if rng.Intn(4) == 0 || s.state[j] == stBasic {
			continue
		}
		old := s.basis[r]
		s.state[old], s.inRow[old] = stLower, -1
		s.basis[r], s.inRow[j], s.state[j] = j, r, stBasic
	}
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	o.MaxIters = s.iter + pivots
	if _, err := s.run(true); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkSolvesMatchDense runs the differential check on s's current
// basis representation, on structural columns and sparse random
// inputs: ftranW against denseFtranW, the reach-driven L and U solves
// against their sweeps, the unit-vector btran (the pivot-row solve,
// sparse once m ≥ sparseRatio) against denseBtran, and btranSparse
// against btranDense.
func checkSolvesMatchDense(t *testing.T, s *simplex, rng *rand.Rand, label string) {
	t.Helper()
	for c := 0; c < 20; c++ {
		in := map[int]float64{}
		if c%2 == 0 {
			j := rng.Intn(s.n + s.m)
			s.column(j, func(row int, val float64) { in[row] = val })
		} else {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				in[rng.Intn(s.m)] = rng.NormFloat64()
			}
		}
		f := s.lu
		solveBothW(t, s, in, s.ftranW, func() { denseFtranW(s) }, label+" ftran")
		solveBothW(t, s, in, func() { f.lreach(s) }, func() { f.lsweep(s) }, label+" L")
		solveBothW(t, s, in, func() { f.ureach(s) }, func() { f.usweep(s) }, label+" U")
		solveBothW(t, s, in, func() { f.lreach(s); f.ureach(s) },
			func() { f.lsweep(s); f.usweep(s) }, label+" LU")
	}
	for c := 0; c < 20; c++ {
		r := rng.Intn(s.m)
		s.btranUnit(r)
		if s.m >= sparseRatio && !s.ySparse {
			t.Fatalf("%s: unit btran took the dense path at m=%d", label, s.m)
		}
		want := make([]float64, s.m)
		want[r] = 1
		denseBtran(s, want)
		sameBits(t, s.y, want, label+" btran")
		supp := map[int]bool{}
		for _, i := range s.yTouch {
			supp[i] = true
		}
		for i, v := range s.y {
			if v != 0 && !supp[i] {
				t.Fatalf("%s: btran row %d = %v outside the reported support", label, i, v)
			}
		}
		// The bare Uᵀ/Lᵀ solves on a few random nonzeros.
		clear(s.y)
		s.yTouch = s.yTouch[:0]
		for k := 1 + rng.Intn(3); k > 0; k-- {
			i := rng.Intn(s.m)
			s.y[i] = rng.NormFloat64()
			s.yTouch = append(s.yTouch, i)
		}
		want = append(want[:0], s.y...)
		s.lu.btranSparse(s)
		s.lu.btranDense(want)
		sameBits(t, s.y, want, label+" LUᵀ")
	}
}

// TestSparseSolvesMatchDenseBitwise is the differential test of the
// reach-driven triangular solves: on random bases, on bases carrying
// Forrest–Tomlin updates, mid-factorize and on the slack-repair input,
// every sparse L, U, Lᵀ and Uᵀ solve must produce the bits (and, on
// the accumulator, the support order) of the sweep over every step.
func TestSparseSolvesMatchDenseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	withUpdates, lFill := 0, 0
	for trial := 0; trial < 12; trial++ {
		m := 64 + rng.Intn(80)
		s := randomBasis(t, randomSparseLP(rng, m, 2*m, m), rng, 40)
		if len(s.updates) > 0 {
			withUpdates++
		}
		lFill += len(s.lu.lind)
		label := fmt.Sprintf("trial %d (%d updates)", trial, len(s.updates))
		checkSolvesMatchDense(t, s, rng, label)
		if err := s.refactor(); err != nil {
			t.Fatal(err)
		}
		checkSolvesMatchDense(t, s, rng, fmt.Sprintf("trial %d refactored", trial))

		// Mid-factorize: the first k steps of the factorization, with
		// the rows pivoted later back to unpivoted — the state lsolveW
		// sees while factorize is still growing the eta file.
		f := s.lu
		k := f.m / 2
		part := &luFactor{m: f.m, prow: f.prow[:k], pos: make([]int32, f.m),
			lptr: f.lptr[:k+1], lind: f.lind, lval: f.lval}
		for i := range part.pos {
			part.pos[i] = -1
		}
		for step, r := range part.prow {
			part.pos[r] = int32(step)
		}
		for c := 0; c < 20; c++ {
			in := map[int]float64{}
			s.column(s.basis[rng.Intn(s.m)], func(row int, val float64) { in[row] = val })
			solveBothW(t, s, in, func() { part.lreach(s) }, func() { part.lsweep(s) },
				fmt.Sprintf("trial %d mid-factorize", trial))
		}
		// The slack-repair solve: -e_r on a row without a step.
		for r := 0; r < s.m; r++ {
			if part.pos[r] < 0 {
				in := map[int]float64{r: -1}
				solveBothW(t, s, in, func() { part.lreach(s) }, func() { part.lsweep(s) },
					fmt.Sprintf("trial %d repair row %d", trial, r))
			}
		}
	}
	if withUpdates == 0 || lFill == 0 {
		t.Fatalf("%d trials with updates, %d L multipliers: the bases are too easy", withUpdates, lFill)
	}
}

// TestSlackRepairFactorMatchesDense factorizes a singular basis — two
// copies of one column — so factorize drops a column and repairs its
// row with the slack, then runs the differential check on the
// repaired factorization.
func TestSlackRepairFactorMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomSparseLP(rng, 96, 192, 96)
	twin := p.AddCol(-1, 0, 1)
	src := p.Col(0)
	for _, nz := range src {
		p.cols[twin] = append(p.cols[twin], nz)
	}
	var o Options
	o.fill(p)
	s := newSimplex(p, &o)
	s.crashBasis()
	r0, r1 := src[0].Row, (src[0].Row+1)%s.m
	s.state[s.n+r0], s.inRow[s.n+r0] = stLower, -1
	s.state[s.n+r1], s.inRow[s.n+r1] = stLower, -1
	s.basis[r0], s.inRow[0], s.state[0] = 0, r0, stBasic
	s.basis[r1], s.inRow[twin], s.state[twin] = twin, r1, stBasic
	if err := s.refactor(); err != nil {
		t.Fatal(err)
	}
	if s.state[0] == stBasic && s.state[twin] == stBasic {
		t.Fatal("singular basis kept both copies of the column")
	}
	slacks := 0
	for _, j := range s.basis {
		if j >= s.n {
			slacks++
		}
	}
	if slacks != s.m-1 {
		t.Fatalf("%d basic slacks after the repair, want %d", slacks, s.m-1)
	}
	checkSolvesMatchDense(t, s, rng, "repaired")
}

// TestLUStepsCountsReach checks the lp/lu_steps tally: the pivot-row
// solves of a large sparse basis visit on average well under the 2m
// steps a dense sweep counts.
func TestLUStepsCountsReach(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomBasis(t, randomSparseLP(rng, 320, 640, 8), rng, 0)
	before := s.luSteps
	for r := 0; r < s.m; r++ {
		s.btranUnit(r)
	}
	if avg := (s.luSteps - before) / s.m; avg <= 0 || avg > 2*8 {
		t.Fatalf("unit btran visited %d steps on average, want 0 < steps <= 16 (two passes over one block)", avg)
	}
	before = s.luSteps
	s.ftran(make([]float64, s.m))
	if d := s.luSteps - before; d != 2*s.m {
		t.Fatalf("dense ftran counted %d steps, want 2m = %d", d, 2*s.m)
	}
}
