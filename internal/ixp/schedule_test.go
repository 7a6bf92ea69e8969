package ixp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
)

// referenceRun is the per-quantum global-clock interleaving Chip.Run
// must reproduce: before every quantum it picks the active engine with
// the smallest (clock, index) and executes exactly one quantum there.
// It returns how many of the executed quanta were shared references,
// the count Chip.Run's scheduler must handle.
func referenceRun(c *Chip, maxCycles int64) (*Stats, int64, error) {
	active := make([]bool, len(c.Engines))
	anyStarted := false
	for i, e := range c.Engines {
		if e.prog == nil {
			return nil, 0, c.attr(i, fmt.Errorf("no program loaded"))
		}
		active[i] = e.active()
		anyStarted = anyStarted || active[i]
	}
	if !anyStarted {
		return nil, 0, c.attr(-1, fmt.Errorf("no engine has running threads"))
	}
	var sync int64
	for {
		best := -1
		for i, e := range c.Engines {
			if active[i] && (best < 0 || e.clock < c.Engines[best].clock) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := c.Engines[best]
		if e.clock >= maxCycles {
			return nil, 0, c.attr(best, fmt.Errorf("cycle budget exhausted"))
		}
		if nextShared(e) {
			sync++
		}
		s, err := e.tick(false, e.clock+1)
		if err != nil {
			return nil, 0, c.attr(best, err)
		}
		if s == tickDone {
			active[best] = false
		}
	}
	st, err := c.collect()
	return st, sync, err
}

// nextShared reports whether m's next quantum executes a shared
// reference.
func nextShared(m *Machine) bool {
	if m.cur < 0 {
		return false
	}
	t := m.threads[m.cur]
	return t.running && !t.halted && t.wakeAt <= m.clock && shared(&m.prog.Instrs[t.pc])
}

// schedCase is one chip set-up: a program every engine runs, and the
// entry arguments of each started thread.
type schedCase struct {
	cfg     Config
	engines int
	started []bool // per engine*threads+thread slot
	budget  int64
	prog    *asm.Program
	regs    []asm.Reg
	args    func(engine, thread int) []uint32
}

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

func (r *byteReader) more() bool { return r.i < len(r.b) }

// Addresses the generated references draw from: a few words every
// engine shares (so one engine's write meets another's read), the last
// in-range words, and words past the end of each memory.
var schedAddrs = []uint32{0, 1, 2, 3, 4, 6, 8, 14, 30, 31, 62, 63, 64, 65, 1 << 20}

// decodeSchedCase builds a chip set-up from data. Registers A0 and A1
// hold the engine and thread index, so register-addressed references
// split across engines while immediate ones collide. Transfer operands
// use the first four registers of each bank: S and SD start with a
// per-thread tag, so writes say who made them, and the halt results
// expose the L and LD registers reads land in.
func decodeSchedCase(data []byte) schedCase {
	r := &byteReader{b: data}
	cfg := DefaultConfig()
	cfg.SRAMWords, cfg.SDRAMWords, cfg.ScratchWords = 64, 64, 32
	sc := schedCase{engines: 1 + r.next()%NumEngines}
	cfg.Threads = 1 + r.next()%4
	cfg.SwapCost = r.next() % 3
	cfg.SRAMOccupancy = r.next() % 4
	cfg.SDRAMLatency = 1 + r.next()%40
	switch b := r.next(); b % 4 {
	case 0:
		sc.budget = int64(1 + r.next()*4) // expires mid-run
	default:
		sc.budget = 20_000
	}
	mask := r.next() | r.next()<<8 | r.next()<<16
	for i := 0; i < sc.engines*cfg.Threads; i++ {
		sc.started = append(sc.started, mask>>i&1 == 0)
	}
	sc.cfg = cfg

	reg := func() asm.Reg {
		banks := []core.Bank{core.A, core.B, core.L, core.S, core.LD, core.SD}
		b := r.next()
		return asm.Reg{Bank: banks[b%len(banks)], Idx: b / len(banks) % 16}
	}
	operand := func() asm.Operand {
		b := r.next()
		if b%3 == 0 {
			return asm.Imm(uint32(r.next()))
		}
		return asm.R(asm.Reg{Bank: core.A, Idx: b % 4})
	}
	addr := func() asm.Operand {
		b := r.next()
		if b%2 == 0 {
			return asm.R(asm.Reg{Bank: core.A, Idx: b / 2 % 4})
		}
		return asm.Imm(schedAddrs[b/2%len(schedAddrs)])
	}
	mems := []cps.Space{cps.SpaceSRAM, cps.SpaceSDRAM, cps.SpaceScratch}
	var ins []asm.Instr
	for len(ins) < 64 && r.more() {
		pc := len(ins)
		var in asm.Instr
		switch r.next() % 14 {
		case 0, 1:
			in = asm.Instr{Op: asm.OpAlu, Alu: ast.BinOp(r.next() % 10), Dst: reg(), L: operand(), R: operand()}
		case 2:
			in = asm.Instr{Op: asm.OpImm, Dst: reg(), Val: uint32(r.next() << (r.next() % 24))}
		case 3, 4:
			in = asm.Instr{Op: asm.OpRead, Space: mems[r.next()%3], Addr: addr(), Count: 1 + r.next()%4, Base: r.next() % 4}
		case 5, 6:
			in = asm.Instr{Op: asm.OpWrite, Space: mems[r.next()%3], Addr: addr(), Count: 1 + r.next()%4, Base: r.next() % 4}
		case 7:
			in = asm.Instr{Op: asm.OpRead, Space: cps.SpaceRFIFO, Addr: asm.Imm(uint32(r.next() % 5)), Count: 1 + r.next()%2, Base: r.next() % 4}
		case 8:
			in = asm.Instr{Op: asm.OpWrite, Space: cps.SpaceTFIFO, Addr: asm.Imm(0), Count: 1 + r.next()%2, Base: r.next() % 4}
		case 9:
			b := r.next()
			if b%2 == 0 {
				in = asm.Instr{Op: asm.OpHash, Base: b / 2 % 4, Dst: asm.Reg{Bank: core.L, Idx: r.next() % 4}}
			} else {
				in = asm.Instr{Op: asm.OpBTS, Addr: addr(), Base: b / 2 % 4, Dst: asm.Reg{Bank: core.L, Idx: r.next() % 4}}
			}
		case 10:
			if r.next()%2 == 0 {
				in = asm.Instr{Op: asm.OpCSRRd, Addr: asm.Imm(uint32(r.next() % 2)), Dst: asm.Reg{Bank: core.L, Idx: r.next() % 4}}
			} else {
				in = asm.Instr{Op: asm.OpCSRWr, Addr: asm.Imm(uint32(r.next() % 2)), Base: r.next() % 4}
			}
		case 11:
			in = asm.Instr{Op: asm.OpCtxSwap}
		case 12:
			// Mostly forward; a backward branch may loop until the
			// budget runs out.
			t := pc + 1 + r.next()%8
			if b := r.next(); b%4 == 0 {
				t = b / 4 % (pc + 1)
			}
			in = asm.Instr{Op: asm.OpBr, Alu: ast.OpEq + ast.BinOp(r.next()%6), L: operand(), R: operand(), Target: t}
		case 13:
			in = asm.Instr{Op: asm.OpJmp, Target: pc + 1 + r.next()%4}
		}
		ins = append(ins, in)
	}
	halt := asm.Instr{Op: asm.OpHalt, Results: []asm.Operand{
		asm.R(asm.Reg{Bank: core.A, Idx: 2}), asm.R(asm.Reg{Bank: core.B, Idx: 0}),
		asm.R(asm.Reg{Bank: core.L, Idx: 0}), asm.R(asm.Reg{Bank: core.L, Idx: 1}),
		asm.R(asm.Reg{Bank: core.L, Idx: 2}), asm.R(asm.Reg{Bank: core.L, Idx: 3}),
		asm.R(asm.Reg{Bank: core.LD, Idx: 0}), asm.R(asm.Reg{Bank: core.LD, Idx: 1}),
	}}
	ins = append(ins, halt)
	for i := range ins {
		if (ins[i].Op == asm.OpBr || ins[i].Op == asm.OpJmp) && ins[i].Target >= len(ins) {
			ins[i].Target = len(ins) - 1
		}
	}
	sc.prog = &asm.Program{Instrs: ins}
	sc.regs = []asm.Reg{{Bank: core.A, Idx: 0}, {Bank: core.A, Idx: 1}}
	for i := 0; i < 4; i++ {
		sc.regs = append(sc.regs, asm.Reg{Bank: core.S, Idx: i}, asm.Reg{Bank: core.SD, Idx: i})
	}
	sc.args = func(e, th int) []uint32 {
		args := []uint32{uint32(e), uint32(th)}
		for i := uint32(0); i < 4; i++ {
			tag := uint32(e<<8|th)<<4 | i + 1
			args = append(args, tag, tag*0x9e3779b9)
		}
		return args
	}
	return sc
}

// build makes a fresh chip for the case, loaded and staged.
func (sc schedCase) build() *Chip {
	chip := NewChip(sc.cfg, sc.engines)
	chip.SetID(5)
	for i := range chip.SRAM() {
		chip.SRAM()[i] = uint32(i * 3)
	}
	chip.Load(sc.prog)
	for e, m := range chip.Engines {
		for th := 0; th < sc.cfg.Threads; th++ {
			m.SetRX(th, []uint32{uint32(e), uint32(th), 7})
			if sc.started[e*sc.cfg.Threads+th] {
				if err := m.SetArgs(th, sc.regs, sc.args(e, th)); err != nil {
					panic(err)
				}
			}
		}
	}
	return chip
}

// checkSchedule runs the case under Chip.Run and under referenceRun and
// requires identical observable outcomes.
func checkSchedule(t *testing.T, sc schedCase) {
	t.Helper()
	got, want := sc.build(), sc.build()
	gst, gerr := got.Run(sc.budget)
	wst, wsync, werr := referenceRun(want, sc.budget)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("error %v, reference %v\n%s", gerr, werr, sc.prog)
	}
	if werr != nil {
		var gre, wre *RunError
		if !errors.As(gerr, &gre) || !errors.As(werr, &wre) || gre.Chip != wre.Chip || gre.Engine != wre.Engine {
			t.Fatalf("attribution %#v, reference %#v", gerr, werr)
		}
	}
	if !reflect.DeepEqual(gst, wst) {
		t.Fatalf("stats\n%+v\nreference\n%+v\n%s", gst, wst, sc.prog)
	}
	for _, mem := range []struct {
		name      string
		got, want []uint32
	}{
		{"sram", got.SRAM(), want.SRAM()},
		{"sdram", got.SDRAM(), want.SDRAM()},
		{"scratch", got.Scratch(), want.Scratch()},
	} {
		if !reflect.DeepEqual(mem.got, mem.want) {
			t.Fatalf("%s image differs from the reference\n%s", mem.name, sc.prog)
		}
	}
	if !reflect.DeepEqual(got.Engines[0].CSR, want.Engines[0].CSR) {
		t.Fatalf("csr %v, reference %v", got.Engines[0].CSR, want.Engines[0].CSR)
	}
	var gsync int64
	for i := range got.Engines {
		if !reflect.DeepEqual(got.Engines[i].TX, want.Engines[i].TX) {
			t.Fatalf("engine %d tx %v, reference %v\n%s", i, got.Engines[i].TX, want.Engines[i].TX, sc.prog)
		}
		gsync += got.Engines[i].syncQuanta
	}
	if werr == nil && gsync != wsync {
		t.Fatalf("scheduler handled %d quanta, reference ran %d shared ones", gsync, wsync)
	}
}

// FuzzChipSchedule: the run-ahead scheduler in Chip.Run is
// observationally identical to the per-quantum global-clock
// interleaving on random programs — memory references at shared,
// private and out-of-range addresses, hash, BTS, CSR, FIFO traffic,
// faulting ALU ops, zero-cost swaps (same-clock ties) and budgets that
// expire mid-run.
func FuzzChipSchedule(f *testing.F) {
	f.Add([]byte{5, 3, 0, 2, 20, 1, 0, 0, 0, 4, 5, 0, 1, 9, 3, 5, 0, 0, 7, 1, 0, 4, 0, 0, 0, 3, 1, 7})
	f.Add([]byte{2, 1, 1, 0, 5, 0, 9, 255, 255, 255, 5, 2, 1, 6, 0, 12, 4, 0, 3, 0, 0, 2, 6, 2, 1, 3, 10, 1, 2, 3})
	f.Add([]byte{3, 2, 0, 3, 36, 2, 0, 0, 0, 0, 0, 3, 1, 4, 3, 1, 5, 0, 8, 2, 3, 0, 4, 0, 1, 1, 3, 1, 4, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSchedule(t, decodeSchedCase(data))
	})
}

// TestChipScheduleOrdering: hand-built two-engine races where running
// ahead past the other engine would show. Register A0 holds the engine
// index, so engine 0 takes the branch (three cycles) and engine 1
// falls through one cycle at a time.
func TestChipScheduleOrdering(t *testing.T) {
	a := func(i int) asm.Operand { return asm.R(asm.Reg{Bank: core.A, Idx: i}) }
	l0 := asm.Reg{Bank: core.L, Idx: 0}
	inc := asm.Instr{Op: asm.OpAlu, Alu: ast.OpAdd, Dst: asm.Reg{Bank: core.A, Idx: 2}, L: a(2), R: asm.Imm(1)}
	div := asm.Instr{Op: asm.OpAlu, Alu: ast.OpDiv, Dst: asm.Reg{Bank: core.A, Idx: 2}, L: a(1), R: asm.Imm(0)}
	branch := func(target int) asm.Instr {
		return asm.Instr{Op: asm.OpBr, Alu: ast.OpEq, L: a(0), R: asm.Imm(0), Target: target}
	}
	halt := asm.Instr{Op: asm.OpHalt, Results: []asm.Operand{asm.R(l0)}}
	for _, tc := range []struct {
		name  string
		prog  []asm.Instr
		check func(chip *Chip, st *Stats, err error, tag uint32) string
	}{{
		// Engine 1 fails at cycle 4, after engine 0's SRAM write at
		// cycle 3: the local failure waits for its turn.
		name: "parked error",
		prog: []asm.Instr{branch(5), inc, inc, inc, div,
			{Op: asm.OpWrite, Space: cps.SpaceSRAM, Addr: asm.Imm(0), Count: 1}, halt},
		check: func(chip *Chip, _ *Stats, err error, tag uint32) string {
			var re *RunError
			if !errors.As(err, &re) || re.Engine != 1 || chip.SRAM()[0] != tag {
				return fmt.Sprintf("error %v, sram[0] %#x", err, chip.SRAM()[0])
			}
			return ""
		},
	}, {
		// Engine 1 reads CSR 0 at cycle 4, after engine 0 wrote it at
		// cycle 3.
		name: "csr read after write",
		prog: []asm.Instr{branch(6), inc, inc, inc,
			{Op: asm.OpCSRRd, Addr: asm.Imm(0), Dst: l0}, halt,
			{Op: asm.OpCSRWr, Addr: asm.Imm(0)}, halt},
		check: func(_ *Chip, st *Stats, err error, tag uint32) string {
			if err != nil || st.Results[1][0] != tag {
				return fmt.Sprintf("error %v, results %v", err, st)
			}
			return ""
		},
	}, {
		// Engine 0 fails at cycle 3, before engine 1's TFIFO write at
		// cycle 3 (same clock, higher index): TX stays empty.
		name: "tx after failure",
		prog: []asm.Instr{branch(4), inc, inc,
			{Op: asm.OpWrite, Space: cps.SpaceTFIFO, Addr: asm.Imm(0), Count: 1}, div, halt},
		check: func(chip *Chip, _ *Stats, err error, _ uint32) string {
			var re *RunError
			if !errors.As(err, &re) || re.Engine != 0 || len(chip.Engines[1].TX) != 0 {
				return fmt.Sprintf("error %v, engine 1 tx %v", err, chip.Engines[1].TX)
			}
			return ""
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			sc := decodeSchedCase(nil)
			sc.cfg.Threads, sc.engines, sc.budget = 1, 2, 1000
			sc.started = []bool{true, true}
			sc.prog = &asm.Program{Instrs: tc.prog}
			checkSchedule(t, sc)
			chip := sc.build()
			st, err := chip.Run(sc.budget)
			if msg := tc.check(chip, st, err, sc.args(0, 0)[2]); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// TestChipScheduleMemoryKernel: on the memory-bound chip kernel every
// engine count gives the reference interleaving's exact outcome.
func TestChipScheduleMemoryKernel(t *testing.T) {
	comp, _ := compileChipProgram(t)
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	for engines := 1; engines <= NumEngines; engines++ {
		cfg := DefaultConfig()
		cfg.SRAMWords = 1 << 12
		cfg.SDRAMWords = 1 << 10
		sc := schedCase{cfg: cfg, engines: engines, budget: 10_000_000, prog: comp.Asm, regs: regs,
			args: func(e, th int) []uint32 { return []uint32{uint32((e*cfg.Threads + th) * 32)} }}
		for i := 0; i < engines*cfg.Threads; i++ {
			sc.started = append(sc.started, true)
		}
		checkSchedule(t, sc)
	}
}

// chipRunAllocs bounds the allocations of one six-engine, four-thread
// batch of the chip kernel: the chip's and each engine's Stats, their
// Results slices and the 24 threads' halt results. The scheduler's
// scratch lives on the Chip and is reused.
const chipRunAllocs = 53

// TestChipRunAllocs pins the allocations of one batch (Load + Run) on a
// six-engine chip.
func TestChipRunAllocs(t *testing.T) {
	comp, _ := compileChipProgram(t)
	cfg := DefaultConfig()
	cfg.SRAMWords = 1 << 12
	chip := NewChip(cfg, NumEngines)
	regs, err := comp.EntryRegs()
	if err != nil {
		t.Fatal(err)
	}
	batch := func() {
		chip.Load(comp.Asm)
		for e, m := range chip.Engines {
			for th := 0; th < cfg.Threads; th++ {
				if err := m.SetArgs(th, regs, []uint32{uint32((e*cfg.Threads + th) * 32)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := chip.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	if got := testing.AllocsPerRun(20, batch); got > chipRunAllocs {
		t.Fatalf("Load+Run allocates %v times per batch, want <= %d", got, chipRunAllocs)
	}
}
