package workloads

import (
	"math"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/mip"
	"repro/internal/nova"
)

// TestFullCompileAll compiles the three paper workloads end to end. It
// pins each allocation's objective, move count and (where the search
// is a single root LP) simplex iteration count, and it requires the
// register assignment to be a pure function of the allocation:
// re-running AssignRegisters and the emitter must reproduce the
// assembly byte for byte.
func TestFullCompileAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full ILP compilation takes minutes")
	}
	for _, tc := range []struct {
		name, src string
		obj       float64
		iters     int // MIP.LPIters; 0 = not pinned
		moves     int
	}{
		{"aes.nova", AESSource, 5.19028789818, 6858, 13},
		{"kasumi.nova", KasumiSource, 0.503201826689, 8950, 5},
		{"nat.nova", NATSource, 1.71219398613, 0, 8},
	} {
		start := time.Now()
		opts := nova.DefaultOptions()
		opts.MIP = &mip.Options{Time: 120 * time.Second}
		comp, err := nova.Compile(tc.name, tc.src, opts)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		st := comp.Alloc.ModelStats
		t.Logf("%s: %v | mir instrs=%d temps=%d | model vars=%d cons=%d obj=%d | mip status=%v nodes=%d iters=%d root=%v total=%v | obj=%.12g moves=%d spills=%d | code=%d words",
			tc.name, time.Since(start).Round(time.Millisecond),
			comp.MIR.NumInstrs(), comp.MIR.NumTemps(),
			st.Vars, st.Constraints, st.ObjTerms,
			comp.Alloc.MIP.Status, comp.Alloc.MIP.Nodes, comp.Alloc.MIP.LPIters,
			comp.Alloc.MIP.RootTime.Round(time.Millisecond), comp.Alloc.MIP.Time.Round(time.Millisecond),
			comp.Alloc.MIP.Obj, comp.Alloc.NumMoves(), comp.Alloc.Spills, comp.Asm.CodeWords())
		if d := math.Abs(comp.Alloc.MIP.Obj - tc.obj); d > 1e-9 {
			t.Errorf("%s: objective %.12g, want %.12g", tc.name, comp.Alloc.MIP.Obj, tc.obj)
		}
		if tc.iters != 0 && comp.Alloc.MIP.LPIters != tc.iters {
			t.Errorf("%s: MIP.LPIters = %d, want %d", tc.name, comp.Alloc.MIP.LPIters, tc.iters)
		}
		if got := comp.Alloc.NumMoves(); got != tc.moves {
			t.Errorf("%s: %d moves, want %d", tc.name, got, tc.moves)
		}
		want := comp.Asm.String()
		for rep := 0; rep < 4; rep++ {
			asn, err := comp.Alloc.AssignRegisters()
			if err != nil {
				t.Fatalf("%s: re-assign %d: %v", tc.name, rep, err)
			}
			prog, err := asm.Emit(comp.MIR, comp.Alloc, asn, opts.SpillBase)
			if err != nil {
				t.Fatalf("%s: re-emit %d: %v", tc.name, rep, err)
			}
			if prog.String() != want {
				t.Fatalf("%s: re-assignment %d emitted different assembly", tc.name, rep)
			}
		}
	}
}
