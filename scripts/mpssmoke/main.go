// Mpssmoke is the CI smoke test for the MPS bridge: it compiles the
// NAT workload, exports the allocator's integer program in fixed MPS
// format, re-imports it, checks the canonical content hashes are
// identical, solves the imported model, maps the solution back through
// the canonical column order, and recompiles NAT serving that solution
// through a SolveHook. The recompile's simulator output must be
// bit-identical to the direct compile — proving that a solution
// produced by any external MPS solver would drive the code generator
// to the same machine code. Exit status 0 means the bridge is sound.
package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/ixp"
	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/nova"
	"repro/internal/pktgen"
	"repro/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpssmoke:", err)
		os.Exit(1)
	}
	fmt.Println("mpssmoke: ok")
}

// serveHook serves a pre-verified solution into the allocator solve.
type serveHook struct {
	x   []float64
	err error
}

func (h *serveHook) BeforeSolve(m *model.Model, opts *mip.Options) ([]float64, bool) {
	if err := m.CheckFeasible(h.x, 1e-6); err != nil {
		h.err = fmt.Errorf("imported solution infeasible on rebuilt model: %w", err)
		return nil, false
	}
	return h.x, true
}

func (h *serveHook) AfterSolve(m *model.Model, res *mip.Result) {}

// simulate runs one translated packet through the IXP simulator and
// returns the checksum result plus the rewritten SDRAM image.
func simulate(comp *nova.Compilation) (uint32, []uint32, error) {
	cfg := ixp.DefaultConfig()
	cfg.SRAMWords = 1 << 14
	cfg.SDRAMWords = 1 << 16
	cfg.Threads = 1
	m := ixp.New(cfg)
	m.Load(comp.Asm)
	regs, err := comp.EntryRegs()
	if err != nil {
		return 0, nil, err
	}
	words := pktgen.BuildIPv6TCP(7, 64)
	copy(m.SDRAM[0x100:], words)
	if err := m.SetArgs(0, regs, []uint32{0x100, 0x8000, 8}); err != nil {
		return 0, nil, err
	}
	st, err := m.Run(100_000_000)
	if err != nil {
		return 0, nil, err
	}
	return st.Results[0][0], append([]uint32(nil), m.SDRAM...), nil
}

func run() error {
	// Direct compile: the reference simulator digest.
	opts := nova.DefaultOptions()
	opts.MIP = &mip.Options{Time: 4 * time.Minute}
	comp, err := nova.Compile("nat.nova", workloads.NATSource, opts)
	if err != nil {
		return fmt.Errorf("direct compile: %w", err)
	}
	wantRet, wantMem, err := simulate(comp)
	if err != nil {
		return fmt.Errorf("direct simulate: %w", err)
	}

	// Export the allocator's integer program and re-import it.
	p, mask := comp.Alloc.ModelLP()
	if p == nil {
		return fmt.Errorf("allocation carries no model")
	}
	m := model.FromILP(p, mask)
	var buf bytes.Buffer
	if err := m.WriteMPS(&buf, model.MPSFixed); err != nil {
		return fmt.Errorf("WriteMPS: %w", err)
	}
	m2, err := model.ReadMPS(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("ReadMPS: %w", err)
	}
	c1, c2 := m.Canonicalize(), m2.Canonicalize()
	if c1.Structural != c2.Structural || c1.Region != c2.Region || c1.Exact != c2.Exact {
		return fmt.Errorf("round trip changed canonical hashes: %s/%s/%s -> %s/%s/%s",
			c1.Structural, c1.Region, c1.Exact, c2.Structural, c2.Region, c2.Exact)
	}
	fmt.Printf("mpssmoke: exported %d cols, %d rows, %d bytes, exact hash %s\n",
		m.LP().NumCols(), m.LP().NumRows(), buf.Len(), c1.Exact)

	// Solve the imported model — standing in for an external MPS
	// solver — and check it reaches the same optimum as the original.
	// Both solves close the gap to 1e-9 so the 1e-6 comparison is
	// between true optima, not between two incumbents that each stop
	// somewhere inside the default 1e-4 gap.
	ref, err := m.Solve(&mip.Options{Time: 4 * time.Minute, Gap: 1e-9})
	if err != nil {
		return fmt.Errorf("solve original: %w", err)
	}
	imp, err := m2.Solve(&mip.Options{Time: 4 * time.Minute, Gap: 1e-9})
	if err != nil {
		return fmt.Errorf("solve imported: %w", err)
	}
	if ref.Status != mip.Optimal || imp.Status != mip.Optimal {
		return fmt.Errorf("statuses %v / %v, want Optimal", ref.Status, imp.Status)
	}
	if math.Abs(ref.Obj-imp.Obj) > 1e-6 {
		return fmt.Errorf("imported optimum %g != original %g", imp.Obj, ref.Obj)
	}

	// Map the imported solution back to the original column order:
	// the MPS file declares columns in canonical order, so imported
	// column i is original column ColOrder[i].
	xOrig := make([]float64, len(imp.X))
	for i, v := range imp.X {
		xOrig[c1.ColOrder[i]] = v
	}
	if err := m.CheckFeasible(xOrig, 1e-6); err != nil {
		return fmt.Errorf("mapped solution infeasible: %w", err)
	}

	// Recompile NAT with the mapped solution served into the solve.
	hook := &serveHook{x: xOrig}
	opts2 := nova.DefaultOptions()
	opts2.MIP = &mip.Options{Time: 4 * time.Minute}
	opts2.Alloc.Hook = hook
	comp2, err := nova.Compile("nat.nova", workloads.NATSource, opts2)
	if err != nil {
		return fmt.Errorf("served compile: %w", err)
	}
	if hook.err != nil {
		return hook.err
	}
	gotRet, gotMem, err := simulate(comp2)
	if err != nil {
		return fmt.Errorf("served simulate: %w", err)
	}
	if gotRet != wantRet {
		return fmt.Errorf("served compile result %#x, direct result %#x", gotRet, wantRet)
	}
	for i := range wantMem {
		if gotMem[i] != wantMem[i] {
			return fmt.Errorf("served compile sdram[%#x] = %#x, direct %#x", i, gotMem[i], wantMem[i])
		}
	}
	return nil
}
