package lp

// Variable status codes reported by TableauView.VarInfo. They mirror
// the internal varState values (compile-time checked below).
const (
	VarBasic   int8 = int8(stBasic)
	VarAtLower int8 = int8(stLower)
	VarAtUpper int8 = int8(stUpper)
	VarAtZero  int8 = int8(stZero) // nonbasic free variable held at zero
)

// Static assertion that the exported codes track the internal order.
const (
	_ = uint(stBasic - 0)
	_ = uint(stLower - 1)
	_ = uint(stUpper - 2)
	_ = uint(stZero - 3)
)

// TableauView exposes rows of the simplex tableau B⁻¹A for a solved
// basis — what Gomory-style cut separators read. Constructing a view
// factorizes the basis once; each Row call then costs one btran plus a
// pass over the nonbasic columns. The view holds its own simplex state
// and does not alias the solve that produced the basis, so it may be
// used after further solves of p (as long as p itself is unchanged).
type TableauView struct {
	s *simplex
}

// NewTableauView factorizes basis b on p. It reports false when the
// snapshot does not fit p (wrong shape, internally inconsistent) — the
// same rejection rule as Options.WarmBasis. Note that a snapshot taken
// before rows were appended is accepted (the new rows' slacks enter the
// basis), and that factorization repairs singular bases by swapping in
// slacks: callers must read basic variables from the view, not from the
// Solution the snapshot came from.
func NewTableauView(p *Problem, b *Basis) (*TableauView, bool) {
	var o Options
	o.fill(p)
	s := newSimplex(p, &o)
	if b == nil || !s.loadBasis(b) {
		return nil, false
	}
	if s.refactor() != nil {
		return nil, false
	}
	return &TableauView{s: s}, true
}

// NumRows returns the number of constraint rows (and basis slots).
func (t *TableauView) NumRows() int { return t.s.m }

// NumCols returns the number of structural variables. Slack variables
// are indexed NumCols()..NumCols()+NumRows()-1, slack of row r at
// NumCols()+r.
func (t *TableauView) NumCols() int { return t.s.n }

// BasicVar returns the variable occupying basis row slot r and its
// current value.
func (t *TableauView) BasicVar(r int) (v int, value float64) {
	return t.s.basis[r], t.s.xB[r]
}

// VarInfo returns variable j's status (VarBasic / VarAtLower /
// VarAtUpper / VarAtZero) and bounds. j may be structural or slack.
func (t *TableauView) VarInfo(j int) (state int8, lo, hi float64) {
	return int8(t.s.state[j]), t.s.lob(j), t.s.hib(j)
}

// Row computes tableau row r: coef[j] = (B⁻¹A)ⱼ at row r for every
// nonbasic variable j (structural and slack); basic entries are set to
// zero. coef must have length NumCols()+NumRows(). It returns the basic
// variable's value — the row's right-hand side in the tableau equation
// x_B(r) + Σ_nonbasic coef[j]·x_j's deviation = value.
func (t *TableauView) Row(r int, coef []float64) float64 {
	s := t.s
	s.btranUnit(r)
	y := s.y
	for j := 0; j < s.n+s.m; j++ {
		if s.state[j] == stBasic {
			coef[j] = 0
			continue
		}
		d := 0.0
		s.column(j, func(row int, val float64) { d += y[row] * val })
		coef[j] = d
	}
	return s.xB[r]
}
