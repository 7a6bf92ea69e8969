package lp

import (
	"errors"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Solver-effort counters (DESIGN.md §8). They are accumulated in plain
// simplex fields during a solve — the pivot loop pays nothing — and
// flushed with a handful of atomic adds when the solve returns.
// refactor_retries and drift_resolves count the recovery ladder's
// steps (DESIGN.md §10): crash-basis restarts after a repair conflict,
// and fresh-basis re-solves after residual drift was detected at an
// optimum. dual_iterations counts the subset of lp/iterations spent in
// the dual simplex, ft_updates the Forrest–Tomlin update etas stacked
// on factorizations, and refactor_cadence the update depth collapsed
// at each refactorization (cadence / refactorizations = average
// updates a factorization served before being rebuilt). lu_steps
// counts the elimination steps visited by the L, U, Lᵀ and Uᵀ solves:
// the work of the triangular solves, as a deterministic count.
var (
	cSolves          = obs.NewCounter("lp/solves")
	cIters           = obs.NewCounter("lp/iterations")
	cDualIters       = obs.NewCounter("lp/dual_iterations")
	cBoundFlips      = obs.NewCounter("lp/bound_flips")
	cDegen           = obs.NewCounter("lp/degenerate_pivots")
	cBland           = obs.NewCounter("lp/bland_activations")
	cRefactors       = obs.NewCounter("lp/refactorizations")
	cFTUpdates       = obs.NewCounter("lp/ft_updates")
	cCadence         = obs.NewCounter("lp/refactor_cadence")
	cRefactorRetries = obs.NewCounter("lp/refactor_retries")
	cDriftResolves   = obs.NewCounter("lp/drift_resolves")
	cLUSteps         = obs.NewCounter("lp/lu_steps")
)

// Fault-injection points (internal/fault; disarmed they cost one
// atomic load). refactor_fail simulates a basis repair conflict —
// fired both by refactorizations and by warm solves adopting a
// carried factorization, so the fault reaches solves that never
// refactor. perturb corrupts one basic value after phase 2 (payload =
// magnitude) to exercise the drift re-solve, and solve_latency sleeps
// at solve entry (payload = milliseconds) to exercise budget handling
// upstream.
var (
	fpRefactorFail = fault.NewPoint("lp/refactor_fail")
	fpPerturb      = fault.NewPoint("lp/perturb")
	fpLatency      = fault.NewPoint("lp/solve_latency")
)

// Variable states. Structural variables are 0..n-1; the slack of row r
// is variable n+r with bounds [rowLo, rowHi] and column -e_r.
type varState int8

const (
	stBasic varState = iota
	stLower
	stUpper
	stZero // nonbasic free variable held at zero
)

// Internal status sentinels threaded between the pivot loops; they
// never escape solveOnce.
const (
	blandSwitch Status = -1 // devex hands the phase to the Bland-guarded loop
	dualBail    Status = -2 // dual simplex defers to the primal phases
)

// eta is one Forrest–Tomlin-style product-form update stacked on the
// LU factorization: the basis changed by pivoting the column with
// (pre-pivot) ftran image v at row r. The pivot value v[r] is stored
// separately; idx/val hold only the off-pivot entries.
type eta struct {
	r   int
	piv float64
	idx []int32
	val []float64
}

type simplex struct {
	p    *Problem
	opts *Options
	m, n int // rows, structural columns

	state []varState
	basis []int     // basis[r] = variable occupying row slot r
	inRow []int     // inRow[var] = row slot, or -1
	xB    []float64 // value of basis[r]

	// Basis representation: a frozen sparse LU factorization plus the
	// update etas stacked on it since. fillBudget bounds the update
	// file's nonzeros (set from the factorization's own fill) so the
	// refactorization cadence tracks fill-in, not just a fixed count.
	lu         *luFactor
	updates    []eta
	updateNnz  int
	fillBudget int

	// scratch. w is a sparse accumulator: wTouch lists the indices
	// that may be nonzero and wIn marks membership, so hot loops never
	// scan all m rows.
	w       []float64 // ftran work (dense storage)
	wTouch  []int
	wIn     []bool
	y       []float64 // btran work
	yTouch  []int     // support of a sparse btran result in y
	ySparse bool      // the last btran took the sparse path
	reach   stepQueue // elimination steps reached by a sparse solve
	iter    int
	// pivot-row candidate columns (pivotRowCols): the sparse list and
	// its marks, and the list of every column for the dense case
	colMark []bool
	rowCols []int
	allCols []int
	// pricing state (allocated on first use): maintained phase-2
	// reduced costs, devex column weights, dual row weights, and the
	// pivot-row coefficients of the current dual iteration.
	d     []float64
	gamma []float64
	rowW  []float64
	alpha []float64
	// degeneracy handling
	degenerate int
	bland      bool
	// observability tallies, flushed to the package counters once per
	// solve (degenerate above is the *consecutive* count that triggers
	// Bland's rule; degenTotal never resets).
	degenTotal int
	dualIters  int
	boundFlips int
	ftUpdates  int
	cadence    int
	refactors  int
	luSteps    int
	// recovery-ladder state (DESIGN.md §10): each kind of restart is
	// attempted at most once per solve.
	retries      int // crash-basis restarts after a refactor repair conflict
	driftRetries int // fresh-basis re-solves after residual drift
}

func newSimplex(p *Problem, opts *Options) *simplex {
	m, n := p.NumRows(), p.NumCols()
	s := &simplex{
		p: p, opts: opts, m: m, n: n,
		state: make([]varState, n+m),
		basis: make([]int, m),
		inRow: make([]int, n+m),
		xB:    make([]float64, m),
		w:     make([]float64, m),
		wIn:   make([]bool, m),
		y:     make([]float64, m),
		reach: stepQueue{bits: make([]uint64, (m+63)/64)},
	}
	return s
}

// clearW resets the sparse accumulator.
func (s *simplex) clearW() {
	for _, i := range s.wTouch {
		s.w[i] = 0
		s.wIn[i] = false
	}
	s.wTouch = s.wTouch[:0]
}

// touchW adds index i to the accumulator's support.
func (s *simplex) touchW(i int) {
	if !s.wIn[i] {
		s.wIn[i] = true
		s.wTouch = append(s.wTouch, i)
	}
}

// scatterColumn loads variable j's column into the accumulator.
func (s *simplex) scatterColumn(j int) {
	s.column(j, func(row int, val float64) {
		s.w[row] = val
		s.touchW(row)
	})
}

// ftranW solves B z = w in place on the sparse accumulator: through
// the LU factors, then through the update etas in stacking order.
func (s *simplex) ftranW() {
	s.lu.lsolveW(s)
	s.lu.usolveW(s)
	for k := range s.updates {
		e := &s.updates[k]
		wr := s.w[e.r]
		if wr == 0 {
			continue
		}
		zr := wr / e.piv
		s.w[e.r] = zr
		for i, ix := range e.idx {
			if !s.wIn[ix] {
				s.wIn[ix] = true
				s.wTouch = append(s.wTouch, int(ix))
			}
			s.w[ix] -= e.val[i] * zr
		}
	}
}

// ftran solves B z = w in place (w dense).
func (s *simplex) ftran(w []float64) {
	s.lu.ftranDense(w)
	s.luSteps += 2 * s.m
	for k := range s.updates {
		e := &s.updates[k]
		wr := w[e.r]
		if wr == 0 {
			continue
		}
		zr := wr / e.piv
		w[e.r] = zr
		for i, ix := range e.idx {
			w[ix] -= e.val[i] * zr
		}
	}
}

// btran solves Bᵀ z = y in place on s.y: transposed update etas in
// reverse stacking order, then the transposed LU factors. The input's
// sparsity picks the LU path. An input with at most one nonzero per
// sparseRatio rows — a pivot row's unit vector, a phase-1 cost vector
// with few infeasible basics — takes the reach-driven btranSparse,
// sets s.ySparse and leaves the result's support in s.yTouch; anything
// denser takes the dense sweep. Both paths compute the same nonzeros
// bit for bit.
func (s *simplex) btran() {
	y := s.y
	s.yTouch = s.yTouch[:0]
	limit := s.m / sparseRatio
	s.ySparse = true
	for i, v := range y {
		if v == 0 {
			continue
		}
		if len(s.yTouch) == limit {
			s.ySparse = false
			break
		}
		s.yTouch = append(s.yTouch, i)
	}
	for k := len(s.updates) - 1; k >= 0; k-- {
		e := &s.updates[k]
		var sum float64
		for i, ix := range e.idx {
			sum += e.val[i] * y[ix]
		}
		v := (y[e.r] - sum) / e.piv
		y[e.r] = v
		if v != 0 && s.ySparse {
			s.yTouch = append(s.yTouch, e.r)
		}
	}
	if s.ySparse {
		s.lu.btranSparse(s)
		return
	}
	s.lu.btranDense(y)
	s.luSteps += 2 * s.m
}

// btranUnit computes the pivot row's multipliers ρ = B⁻ᵀ e_r into
// s.y.
func (s *simplex) btranUnit(r int) {
	clear(s.y)
	s.y[r] = 1
	s.btran()
}

// pushEtaW records the accumulator as a Forrest–Tomlin update eta
// with pivot row r.
func (s *simplex) pushEtaW(r int) {
	var idx []int32
	var val []float64
	piv := s.w[r]
	for _, i := range s.wTouch {
		if i == r {
			continue
		}
		if v := s.w[i]; v > 1e-12 || v < -1e-12 {
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	s.updates = append(s.updates, eta{r: r, piv: piv, idx: idx, val: val})
	s.updateNnz += len(idx) + 1
	s.ftUpdates++
}

// lob/hib return the bounds of any variable (structural or slack).
func (s *simplex) lob(j int) float64 {
	if j < s.n {
		return s.p.lo[j]
	}
	return s.p.rowLo[j-s.n]
}

func (s *simplex) hib(j int) float64 {
	if j < s.n {
		return s.p.hi[j]
	}
	return s.p.rowHi[j-s.n]
}

// column visits the nonzeros of any variable's column.
func (s *simplex) column(j int, f func(row int, val float64)) {
	if j < s.n {
		for _, nz := range s.p.cols[j] {
			f(nz.Row, nz.Val)
		}
		return
	}
	f(j-s.n, -1)
}

// nonbasicValue returns the value a nonbasic variable is held at.
func (s *simplex) nonbasicValue(j int) float64 {
	switch s.state[j] {
	case stLower:
		return s.lob(j)
	case stUpper:
		return s.hib(j)
	}
	return 0
}

// value returns the current value of any variable.
func (s *simplex) value(j int) float64 {
	if s.state[j] == stBasic {
		return s.xB[s.inRow[j]]
	}
	return s.nonbasicValue(j)
}

// flushStats publishes the solve's effort tallies to the package
// counters — a few atomic adds, once per solve.
func (s *simplex) flushStats() {
	cSolves.Inc()
	cIters.Add(int64(s.iter))
	cDualIters.Add(int64(s.dualIters))
	cBoundFlips.Add(int64(s.boundFlips))
	cDegen.Add(int64(s.degenTotal))
	cRefactors.Add(int64(s.refactors))
	cFTUpdates.Add(int64(s.ftUpdates))
	cCadence.Add(int64(s.cadence))
	cRefactorRetries.Add(int64(s.retries))
	cDriftResolves.Add(int64(s.driftRetries))
	cLUSteps.Add(int64(s.luSteps))
	if s.bland {
		cBland.Inc()
	}
}

// solve runs the simplex with the §10 recovery ladder around it: a
// refactorization repair conflict restarts the whole solve once from
// the all-slack crash basis (which cannot conflict), and an optimal
// point whose recomputed row activities have drifted from the
// incrementally maintained values is re-solved once from a fresh
// basis. Each recovery is attempted at most once per solve; a second
// failure surfaces as a *StabilityError.
func (s *simplex) solve() (*Solution, error) {
	defer s.flushStats()
	if ms, ok := fpLatency.Value(); ok {
		time.Sleep(time.Duration(ms * float64(time.Millisecond)))
	}
	if err := s.p.check(); err != nil {
		return &Solution{Status: Infeasible}, err
	}
	warm := s.opts.WarmBasis
	for {
		sol, err := s.solveOnce(warm)
		var se *StabilityError
		if err != nil && errors.As(err, &se) && s.retries == 0 {
			s.retries++
			warm = nil
			continue
		}
		if err == nil && sol.Status == Optimal && s.driftRetries == 0 {
			if mag, ok := fpPerturb.Value(); ok && s.m > 0 {
				// Corrupt one basic value so the residual check below
				// sees the drift this fault simulates.
				s.xB[0] += mag
			}
			if drift, scale := s.primalResidual(); drift > 1e-6*scale {
				s.driftRetries++
				warm = nil
				continue
			}
		}
		return sol, err
	}
}

// solveOnce is one pass from the given warm basis (nil for the crash
// basis); solve wraps it with the recovery ladder. The path through
// the kernel: load or crash the basis, adopt the carried
// factorization or compute a fresh one, run the dual simplex when the
// start is a warm re-solve (Options.Method), then the primal phases
// for whatever remains.
func (s *simplex) solveOnce(warm *Basis) (*Solution, error) {
	s.reset()
	warmLoaded := warm != nil && s.loadBasis(warm)
	if !warmLoaded {
		s.crashBasis()
	}
	adopted := false
	if warmLoaded {
		ok, err := s.adoptFactor(warm)
		if err != nil {
			return nil, err
		}
		adopted = ok
	}
	if adopted {
		s.recomputeXB()
	} else if err := s.refactor(); err != nil {
		return nil, err
	}
	// Dual simplex: after a bound change or an appended row the old
	// basis stays dual feasible while the point is primal infeasible —
	// the dual iterates from there instead of re-entering phase 1.
	tryDual := s.opts.Method == MethodDual ||
		(s.opts.Method == MethodAuto && warmLoaded)
	if tryDual && s.infeasibility() > s.opts.Tol {
		st, err := s.runDual()
		if err != nil {
			return nil, err
		}
		switch st {
		case Infeasible, IterLimit:
			return &Solution{Status: st, Iters: s.iter}, nil
		}
		// Optimal: the point is primal feasible now and phase 2 below
		// re-verifies optimality exactly (usually zero pivots).
		// dualBail: the primal phases take over from where it stopped.
	}
	// Phase 1: drive out infeasibility.
	if s.infeasibility() > s.opts.Tol {
		st, err := s.run(true)
		if err != nil {
			return nil, err
		}
		if st == Unbounded {
			// The phase-1 objective is bounded below by zero; an
			// unlimited ray here only means numerics gave up.
			st = Infeasible
		}
		if st != Optimal {
			return &Solution{Status: st, Iters: s.iter}, nil
		}
		if s.infeasibility() > 1e-5 {
			return &Solution{Status: Infeasible, Iters: s.iter}, nil
		}
	}
	// Phase 2: optimize.
	var st Status
	var err error
	if s.opts.Pricing == PricingDantzig {
		st, err = s.run(false)
	} else {
		st, err = s.runDevex()
		if err == nil && st == blandSwitch {
			st, err = s.run(false)
		}
	}
	if err != nil {
		return nil, err
	}
	sol := &Solution{Status: st, Iters: s.iter, X: make([]float64, s.n), Basis: s.snapshot()}
	for j := 0; j < s.n; j++ {
		sol.X[j] = s.value(j)
	}
	for j := 0; j < s.n; j++ {
		sol.Obj += s.p.obj[j] * sol.X[j]
	}
	return sol, nil
}

// reset clears the per-pass state so a recovery restart begins clean.
// The iteration count is kept: MaxIters bounds the total work of a
// solve including its restarts.
func (s *simplex) reset() {
	s.lu = nil
	s.updates = s.updates[:0]
	s.updateNnz = 0
	s.fillBudget = 0
	s.degenerate = 0
	s.bland = false
	for i := range s.xB {
		s.xB[i] = 0
	}
}

// primalResidual measures how far the incrementally maintained point
// drifted from the constraints: it recomputes every row activity from
// the structural values and compares against the slack variables
// (activity - slack = 0 holds exactly in exact arithmetic). It
// returns the largest violation and the activity scale to judge it
// against.
func (s *simplex) primalResidual() (drift, scale float64) {
	act := s.y // btran scratch, free once a phase has returned
	for i := range act {
		act[i] = 0
	}
	for j := 0; j < s.n; j++ {
		x := s.value(j)
		if x == 0 {
			continue
		}
		for _, nz := range s.p.cols[j] {
			act[nz.Row] += nz.Val * x
		}
	}
	scale = 1
	for r := 0; r < s.m; r++ {
		if a := math.Abs(act[r]); a > scale {
			scale = a
		}
		if d := math.Abs(act[r] - s.value(s.n+r)); d > drift {
			drift = d
		}
	}
	return drift, scale
}

// crashBasis installs the all-slack basis with structural variables at
// the finite bound nearest zero.
func (s *simplex) crashBasis() {
	for j := 0; j < s.n; j++ {
		lo, hi := s.lob(j), s.hib(j)
		switch {
		case lo > math.Inf(-1) && (math.Abs(lo) <= math.Abs(hi) || hi == Inf):
			s.state[j] = stLower
		case hi < Inf:
			s.state[j] = stUpper
		default:
			s.state[j] = stZero
		}
		s.inRow[j] = -1
	}
	for r := 0; r < s.m; r++ {
		j := s.n + r
		s.state[j] = stBasic
		s.basis[r] = j
		s.inRow[j] = r
	}
}

// loadBasis installs a snapshot taken from a structurally identical
// problem (typically the parent node in branch and bound, after a
// bound change). The snapshot may also come from the same problem
// *before* rows were appended (the cutting-plane case: AddRow then
// re-solve): the snapshot's rows must be a prefix of the current rows
// and the structural column count must match; the new rows' slacks
// enter the basis, so the re-solve restarts from the incumbent basis
// instead of a cold crash. It validates the snapshot and reports
// whether it was usable; the caller factorizes (or adopts the carried
// factorization) afterwards. Nonbasic states are re-sanitized against
// the (possibly changed) bounds so nonbasicValue never reads an
// infinite bound.
func (s *simplex) loadBasis(b *Basis) bool {
	m0 := len(b.Order)
	if m0 > s.m || len(b.State) != s.n+m0 {
		return false
	}
	// Snapshot variable ids are directly valid here: structurals are
	// 0..n-1 in both, and the slack of old row r is n+r in both.
	basics := 0
	for j := 0; j < s.n+m0; j++ {
		st := varState(b.State[j])
		if st < stBasic || st > stZero {
			return false
		}
		if st == stBasic {
			basics++
		}
		s.state[j] = st
		s.inRow[j] = -1
	}
	if basics != m0 {
		return false
	}
	for r, j := range b.Order {
		if j < 0 || j >= s.n+m0 || varState(b.State[j]) != stBasic || s.inRow[j] >= 0 {
			return false
		}
		s.basis[r] = j
		s.inRow[j] = r
	}
	// Rows appended since the snapshot: their slacks become basic.
	for r := m0; r < s.m; r++ {
		j := s.n + r
		s.state[j] = stBasic
		s.basis[r] = j
		s.inRow[j] = r
	}
	// Bounds may have moved since the snapshot: keep nonbasic variables
	// on a finite bound.
	for j := 0; j < s.n+s.m; j++ {
		lo, hi := s.lob(j), s.hib(j)
		switch s.state[j] {
		case stLower:
			if lo == math.Inf(-1) {
				if hi < Inf {
					s.state[j] = stUpper
				} else {
					s.state[j] = stZero
				}
			}
		case stUpper:
			if hi == Inf {
				if lo > math.Inf(-1) {
					s.state[j] = stLower
				} else {
					s.state[j] = stZero
				}
			}
		}
	}
	return true
}

// snapshot captures the current basis for warm-started re-solves,
// carrying the frozen factorization plus a private copy of the update
// file so an adopting solve can skip its refactorization.
func (s *simplex) snapshot() *Basis {
	b := &Basis{State: make([]int8, s.n+s.m), Order: make([]int, s.m)}
	for j, st := range s.state {
		b.State[j] = int8(st)
	}
	copy(b.Order, s.basis)
	if s.lu != nil && s.lu.m == s.m {
		b.factor = &warmFactor{
			lu:      s.lu,
			updates: append([]eta(nil), s.updates...),
			nnz:     s.updateNnz,
		}
	}
	return b
}

// infeasibility returns the total bound violation of basic variables.
func (s *simplex) infeasibility() float64 {
	sum := 0.0
	for r := 0; r < s.m; r++ {
		j := s.basis[r]
		x := s.xB[r]
		if lo := s.lob(j); x < lo {
			sum += lo - x
		} else if hi := s.hib(j); x > hi {
			sum += x - hi
		}
	}
	return sum
}

// costOf returns the effective cost of a variable in the current phase.
func (s *simplex) costOf(j int, phase1 bool) float64 {
	if phase1 {
		if s.state[j] != stBasic {
			return 0
		}
		x := s.xB[s.inRow[j]]
		if x < s.lob(j)-s.opts.Tol {
			return -1
		}
		if x > s.hib(j)+s.opts.Tol {
			return 1
		}
		return 0
	}
	if j < s.n {
		return s.p.obj[j]
	}
	return 0
}

// ratioTest finds the blocking basic variable for the entering column
// currently in the accumulator. It returns the leaving row slot (-1
// for a bound flip), which bound the leaving variable hits, the step
// limit, and the largest |w| seen (callers use it to judge the pivot
// magnitude). Tie-breaking among rows at the minimum ratio: normally
// the largest pivot (numerical stability), but under Bland's rule the
// smallest basis index — the anti-cycling guarantee needs the
// smallest-index rule on BOTH the entering and the leaving choice,
// and with only the entering side covered the search can stall on a
// degenerate face indefinitely (observed on a presolved allocator
// ILP: 85k+ zero-step pivots at the optimal objective without
// termination).
func (s *simplex) ratioTest(enter int, enterDir float64, phase1 bool, tol float64) (leave int, leaveToUpper bool, limit, maxAbsW float64) {
	limit = s.hib(enter) - s.lob(enter) // bound-to-bound flip distance
	if s.state[enter] == stZero {
		limit = Inf
	}
	leave = -1
	bestPiv := 0.0
	for _, r := range s.wTouch {
		wr := s.w[r]
		aw := math.Abs(wr)
		if aw > maxAbsW {
			maxAbsW = aw
		}
		if aw < 1e-9 {
			continue
		}
		j := s.basis[r]
		x := s.xB[r]
		lo, hi := s.lob(j), s.hib(j)
		// Basic j moves at rate -wr*enterDir per unit of entering.
		rate := -wr * enterDir
		var room float64
		var toUpper bool
		if phase1 {
			// Infeasible basics move to their violated bound;
			// feasible basics stay within their bounds.
			switch {
			case x < lo-tol:
				if rate > 0 {
					room, toUpper = (lo-x)/rate, false
				} else {
					continue
				}
			case x > hi+tol:
				if rate < 0 {
					room, toUpper = (hi-x)/rate, true
				} else {
					continue
				}
			default:
				if rate > 0 {
					if hi == Inf {
						continue
					}
					room, toUpper = (hi-x)/rate, true
				} else {
					if lo == math.Inf(-1) {
						continue
					}
					room, toUpper = (lo-x)/rate, false
				}
			}
		} else {
			if rate > 0 {
				if hi == Inf {
					continue
				}
				room, toUpper = (hi-x)/rate, true
			} else {
				if lo == math.Inf(-1) {
					continue
				}
				room, toUpper = (lo-x)/rate, false
			}
		}
		if room < 0 {
			room = 0
		}
		better := room < limit-1e-12
		if !better && room < limit+1e-12 {
			if s.bland {
				better = leave < 0 || s.basis[r] < s.basis[leave]
			} else {
				better = aw > bestPiv
			}
		}
		if better {
			limit = room
			leave = r
			leaveToUpper = toUpper
			bestPiv = aw
		}
	}
	return leave, leaveToUpper, limit, maxAbsW
}

// run iterates the primal simplex until optimality for the phase,
// with Dantzig pricing (most negative reduced cost) and Bland's rule
// after long degenerate runs. Phase 1 always uses this loop; phase 2
// only under PricingDantzig or after a devex Bland handoff. A
// non-nil error is a refactorization failure that already consumed
// the recovery retry (solve restarts on it); the Status is meaningful
// only when the error is nil. Options.Deadline, when set, is checked
// every 256 iterations and returns IterLimit once passed.
func (s *simplex) run(phase1 bool) (Status, error) {
	tol := s.opts.Tol
	checkClock := !s.opts.Deadline.IsZero()
	for ; s.iter < s.opts.MaxIters; s.iter++ {
		if checkClock && s.iter&255 == 0 && time.Now().After(s.opts.Deadline) {
			return IterLimit, nil
		}
		if phase1 && s.infeasibility() <= tol {
			return Optimal, nil
		}
		// y = Btran(cB)
		for r := 0; r < s.m; r++ {
			s.y[r] = s.costOf(s.basis[r], phase1)
		}
		s.btran()
		// Price nonbasics.
		enter := -1
		var enterDir float64
		best := tol
		for j := 0; j < s.n+s.m; j++ {
			if s.state[j] == stBasic {
				continue
			}
			d := s.costOf(j, phase1)
			s.column(j, func(row int, val float64) {
				d -= s.y[row] * val
			})
			var score float64
			var dir float64
			switch s.state[j] {
			case stLower:
				if d < -tol {
					score, dir = -d, 1
				}
			case stUpper:
				if d > tol {
					score, dir = d, -1
				}
			case stZero:
				if d < -tol {
					score, dir = -d, 1
				} else if d > tol {
					score, dir = d, -1
				}
			}
			if score > best {
				best, enter, enterDir = score, j, dir
				if s.bland {
					break // Bland: first eligible index
				}
			}
		}
		if enter < 0 {
			if phase1 && s.infeasibility() > tol {
				return Infeasible, nil
			}
			return Optimal, nil
		}
		// w = Ftran(column of entering variable)
		s.clearW()
		s.scatterColumn(enter)
		s.ftranW()

		leave, leaveToUpper, limit, maxAbsW := s.ratioTest(enter, enterDir, phase1, tol)
		if limit == Inf {
			return Unbounded, nil
		}
		if limit <= 1e-11 {
			s.degenerate++
			s.degenTotal++
			if s.degenerate > 1000 {
				s.bland = true
			}
		} else {
			s.degenerate = 0
		}
		step := enterDir * limit
		// Update basic values.
		for _, r := range s.wTouch {
			if s.w[r] != 0 {
				s.xB[r] -= s.w[r] * step
			}
		}
		if leave < 0 {
			// Bound flip of the entering variable.
			if s.state[enter] == stLower {
				s.state[enter] = stUpper
			} else {
				s.state[enter] = stLower
			}
			continue
		}
		// Pivot.
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
		if _, err := s.maybeRefactor(piv < 1e-8*maxAbsW); err != nil {
			return IterLimit, err
		}
	}
	return IterLimit, nil
}

// refactor collapses the update file into a fresh LU factorization of
// the current basis and recomputes the basic values. Singular bases
// are repaired by swapping in slacks; a repair conflict (a slack
// needed for an unpivoted row while basic elsewhere) returns a
// *StabilityError instead of guessing, and solve restarts once from
// the crash basis — which, starting from the identity, cannot
// conflict.
func (s *simplex) refactor() error {
	s.refactors++
	depth := len(s.updates)
	s.cadence += depth
	if fpRefactorFail.Fire() {
		return &StabilityError{Stage: "refactor", Detail: "injected repair conflict", FTDepth: depth}
	}
	s.updates = s.updates[:0]
	s.updateNnz = 0
	if err := s.factorize(); err != nil {
		var se *StabilityError
		if errors.As(err, &se) {
			se.FTDepth = depth
		}
		return err
	}
	s.recomputeXB()
	return nil
}

// maybeRefactor applies the refactorization cadence: rebuild when the
// update file reached Options.RefactorGap etas, when its fill passed
// the budget set from the factorization's own nonzeros, or when the
// caller saw a pivot bad enough to distrust the arithmetic (force).
// It reports whether a refactorization happened so callers can
// refresh state derived from the old factors.
func (s *simplex) maybeRefactor(force bool) (bool, error) {
	if !force && len(s.updates) < s.opts.RefactorGap && s.updateNnz <= s.fillBudget {
		return false, nil
	}
	return true, s.refactor()
}
