package mip

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// binaryProgram is a small dense 0-1 program: minimize obj·x subject
// to lo[r] <= A[r]·x <= hi[r], x binary.
type binaryProgram struct {
	obj    []float64
	A      [][]float64
	lo, hi []float64
}

// decodeBinaryProgram deterministically builds a 0-1 program from a
// fuzz byte string: two header bytes pick 1–12 binaries and 1–6 rows,
// then each byte feeds one objective coefficient (a quarter-integer),
// matrix entry (an integer in [-5, 5]), row sense or right-hand side.
// Right-hand sides land inside the row's attainable range, so
// equations and ranged rows make both feasible and infeasible programs
// common.
func decodeBinaryProgram(data []byte) *binaryProgram {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%12
	m := 1 + next()%6
	bp := &binaryProgram{obj: make([]float64, n)}
	for j := range bp.obj {
		bp.obj[j] = float64(int8(next())) / 4
	}
	for r := 0; r < m; r++ {
		row := make([]float64, n)
		minAct, maxAct := 0, 0
		for j := range row {
			v := next()%11 - 5
			row[j] = float64(v)
			if v < 0 {
				minAct += v
			} else {
				maxAct += v
			}
		}
		sense := next() % 4
		rhs := float64(minAct + next()%(maxAct-minAct+1))
		lo, hi := rhs, rhs // sense 2: equation
		switch sense {
		case 0:
			lo = math.Inf(-1)
		case 1:
			hi = math.Inf(1)
		case 3:
			hi = rhs + float64(next()%4)
		}
		bp.A = append(bp.A, row)
		bp.lo = append(bp.lo, lo)
		bp.hi = append(bp.hi, hi)
	}
	return bp
}

func (bp *binaryProgram) problem() *lp.Problem {
	p := lp.NewProblem()
	for _, c := range bp.obj {
		p.AddCol(c, 0, 1)
	}
	for r, row := range bp.A {
		var cols []int
		var vals []float64
		for j, v := range row {
			if v != 0 {
				cols = append(cols, j)
				vals = append(vals, v)
			}
		}
		p.AddRow(bp.lo[r], bp.hi[r], cols, vals)
	}
	return p
}

// enumerate is the brute-force oracle: it returns the best feasible
// 0-1 point and its objective, or nil when no point is feasible.
func (bp *binaryProgram) enumerate() ([]float64, float64) {
	var best []float64
	bestObj := math.Inf(1)
	for _, x := range feasiblePoints(len(bp.obj), bp.A, bp.lo, bp.hi) {
		obj := 0.0
		for j, v := range x {
			obj += bp.obj[j] * v
		}
		if obj < bestObj {
			best, bestObj = x, obj
		}
	}
	return best, bestObj
}

// FuzzMIPOptimal checks the solver's verdicts against brute-force
// enumeration on random 0-1 programs: an Optimal verdict must carry a
// feasible point whose objective matches the oracle's within the gap,
// and Infeasible must mean no 0-1 point is feasible. Each program is
// solved four ways — default options, Seed at the oracle's optimum,
// LowerBound at the oracle's objective (with the seed as well, the
// proof must transfer before the tree opens), and WarmBasis plus
// SeedCuts taken from the first solve's RootBasis and PoolCuts.
func FuzzMIPOptimal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 200, 220, 240, 250, 230, 9, 8, 7, 6, 5, 0, 20})
	f.Add([]byte{11, 5, 1, 255, 2, 254, 3, 253, 4, 252, 5, 251, 6, 250,
		10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("oversized input")
		}
		bp := decodeBinaryProgram(data)
		p := bp.problem()
		xOpt, objOpt := bp.enumerate()

		first := solveChecked(t, "default", p, nil, xOpt, objOpt)
		solveChecked(t, "warm", p, &Options{WarmBasis: first.RootBasis, SeedCuts: first.PoolCuts}, xOpt, objOpt)
		if xOpt == nil {
			return
		}
		solveChecked(t, "seed", p, &Options{Seed: xOpt}, xOpt, objOpt)
		bound := objOpt
		solveChecked(t, "lower-bound", p, &Options{LowerBound: &bound}, xOpt, objOpt)
		res := solveChecked(t, "seed+lower-bound", p, &Options{Seed: xOpt, LowerBound: &bound}, xOpt, objOpt)
		if res.Nodes != 0 {
			t.Fatalf("seed+lower-bound: searched %d nodes; the proof should transfer at the root", res.Nodes)
		}
	})
}

// solveChecked solves p under opts and checks the verdict against the
// oracle's optimum (xOpt nil: infeasible).
func solveChecked(t *testing.T, name string, p *lp.Problem, opts *Options, xOpt []float64, objOpt float64) *Result {
	t.Helper()
	res, err := Solve(p, nil, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if xOpt == nil {
		if res.Status != Infeasible {
			t.Fatalf("%s: status %v, obj %v at %v; the oracle finds no feasible point", name, res.Status, res.Obj, res.X)
		}
		return res
	}
	if res.Status != Optimal {
		t.Fatalf("%s: status %v; the oracle's optimum is %v at %v", name, res.Status, objOpt, xOpt)
	}
	if gap := 1e-4 * math.Max(1, math.Abs(objOpt)); math.Abs(res.Obj-objOpt) > gap {
		t.Fatalf("%s: optimal obj %v, oracle %v at %v", name, res.Obj, objOpt, xOpt)
	}
	if !Feasible(p, res.X, 1e-6) || math.Abs(objOf(p, res.X)-res.Obj) > 1e-9 {
		t.Fatalf("%s: optimal point %v (obj %v) is infeasible or misreports its objective", name, res.X, res.Obj)
	}
	for j, v := range res.X {
		if v != math.Round(v) {
			t.Fatalf("%s: x[%d] = %v is not integral", name, j, v)
		}
	}
	return res
}
