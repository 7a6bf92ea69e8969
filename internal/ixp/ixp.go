package ixp

import (
	"fmt"
	"math"

	"repro/internal/asm"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/cps"
	"repro/internal/obs"
	"repro/internal/types"
)

// Simulator counters (DESIGN.md §8): tallied in plain Machine fields
// while an engine runs (each engine ticks on one goroutine) and flushed
// with atomic adds when a run's statistics are collected, so the
// cycle-accurate loop carries no instrumentation cost.
var (
	cIxpCycles    = obs.NewCounter("ixp/cycles")
	cIxpInstrs    = obs.NewCounter("ixp/instrs")
	cIxpSwaps     = obs.NewCounter("ixp/swaps")
	cIxpSRAMRefs  = obs.NewCounter("ixp/sram_refs")
	cIxpSDRAMRefs = obs.NewCounter("ixp/sdram_refs")
	cIxpScratch   = obs.NewCounter("ixp/scratch_refs")
	cIxpHashRefs  = obs.NewCounter("ixp/hash_refs")
	cIxpFIFORefs  = obs.NewCounter("ixp/fifo_refs")
	cIxpStalls    = obs.NewCounter("ixp/stall_cycles")
	cIxpPortWait  = obs.NewCounter("ixp/port_wait_cycles")
	cIxpSync      = obs.NewCounter("ixp/sync_quanta")
)

// Config sets the machine parameters.
type Config struct {
	ClockMHz       float64
	SRAMWords      int
	SDRAMWords     int
	ScratchWords   int
	Threads        int // hardware threads running the program
	SRAMLatency    int // cycles until a read completes
	SDRAMLatency   int
	ScratchLatency int
	HashLatency    int
	FIFOLatency    int
	BranchPenalty  int // extra cycles for a taken branch (pipeline refill)
	SwapCost       int // context-switch cost in cycles

	// Per-access port occupancies: how long each memory unit is busy
	// per reference (bandwidth, as opposed to latency).
	SRAMOccupancy    int
	SDRAMOccupancy   int
	ScratchOccupancy int
	HashOccupancy    int
}

// DefaultConfig approximates the paper's 233 MHz IXP1200.
func DefaultConfig() Config {
	return Config{
		ClockMHz:       233,
		SRAMWords:      1 << 20,
		SDRAMWords:     1 << 22,
		ScratchWords:   1024,
		Threads:        4,
		SRAMLatency:    20,
		SDRAMLatency:   36,
		ScratchLatency: 14,
		HashLatency:    18,
		FIFOLatency:    10,
		BranchPenalty:  2,
		SwapCost:       1,

		SRAMOccupancy:    2,
		SDRAMOccupancy:   4,
		ScratchOccupancy: 2,
		HashOccupancy:    6,
	}
}

// RunError attributes a simulator failure to the chip and engine it
// happened on, so concurrent runners (the fleet harness runs many
// chips at once) surface failures that name their origin. Engine is
// -1 for chip-level failures not tied to one engine; Chip is -1 for a
// standalone Machine. Unwrap exposes the underlying cause.
type RunError struct {
	Chip   int
	Engine int
	Err    error
}

// Error renders the failure with its chip/engine attribution.
func (e *RunError) Error() string {
	switch {
	case e.Chip >= 0 && e.Engine >= 0:
		return fmt.Sprintf("ixp: chip %d engine %d: %v", e.Chip, e.Engine, e.Err)
	case e.Chip >= 0:
		return fmt.Sprintf("ixp: chip %d: %v", e.Chip, e.Err)
	default:
		return fmt.Sprintf("ixp: engine %d: %v", e.Engine, e.Err)
	}
}

// Unwrap returns the underlying cause.
func (e *RunError) Unwrap() error { return e.Err }

// Machine is one micro-engine plus its attached memories.
type Machine struct {
	Cfg     Config
	SRAM    []uint32
	SDRAM   []uint32
	Scratch []uint32
	CSR     map[uint32]uint32
	TX      []uint32 // transmit FIFO contents, in write order

	// EngineID and ChipID attribute this machine's errors when many
	// engines or chips run concurrently. New sets ChipID to -1
	// (standalone); NewChip and Chip.SetID fill both in.
	EngineID int
	ChipID   int

	prog    *asm.Program
	threads []*thread

	// Engine-local scheduling state (tick-based so several engines of
	// one chip can interleave on a global clock).
	clock int64
	cur   int
	swaps int64

	// Per-run telemetry, reset by Load and flushed to the ixp/ obs
	// counters by stats. Plain fields: an engine ticks on one
	// goroutine, so the hot loop pays no synchronization.
	sramRefs    int64
	sdramRefs   int64
	scratchRefs int64
	hashRefs    int64
	fifoRefs    int64
	stallCycles int64 // cycles every thread slept (latency not hidden)
	portWait    int64 // cycles references waited for a busy memory port
	syncQuanta  int64 // shared-reference quanta Chip.Run scheduled

	// Memory units shared across the engines of a chip; accesses
	// occupy a unit for a few cycles, so engines contend for
	// bandwidth (the paper: "All tables reside in SRAM, resulting in
	// contention").
	units    [cps.SpaceScratch + 1]*memUnit // SRAM, SDRAM, scratch
	hashUnit *memUnit
}

// memUnit models one memory port's bandwidth.
type memUnit struct {
	nextFree  int64
	occupancy int64
}

// grant arbitrates an access issued at the given cycle and returns the
// cycle at which the unit accepted it.
func (u *memUnit) grant(cycle int64) int64 {
	g := cycle
	if u.nextFree > g {
		g = u.nextFree
	}
	u.nextFree = g + u.occupancy
	return g
}

type thread struct {
	id      int
	regs    [int(core.NumBanks)][16]uint32
	pc      int
	running bool
	halted  bool
	wakeAt  int64
	results []uint32
	rx      []uint32 // receive-FIFO contents for this thread

	instrs  int64
	memRefs int64
}

// New builds a machine.
func New(cfg Config) *Machine {
	m := &Machine{
		Cfg:     cfg,
		SRAM:    make([]uint32, cfg.SRAMWords),
		SDRAM:   make([]uint32, cfg.SDRAMWords),
		Scratch: make([]uint32, cfg.ScratchWords),
		CSR:     map[uint32]uint32{},
		ChipID:  -1,
	}
	for i := 0; i < cfg.Threads; i++ {
		m.threads = append(m.threads, &thread{id: i})
	}
	m.units = [...]*memUnit{
		cps.SpaceSRAM:    {occupancy: int64(cfg.SRAMOccupancy)},
		cps.SpaceSDRAM:   {occupancy: int64(cfg.SDRAMOccupancy)},
		cps.SpaceScratch: {occupancy: int64(cfg.ScratchOccupancy)},
	}
	m.hashUnit = &memUnit{occupancy: int64(cfg.HashOccupancy)}
	return m
}

// Load installs a program on every thread.
func (m *Machine) Load(p *asm.Program) {
	m.prog = p
	for _, t := range m.threads {
		t.pc = 0
		t.halted = false
		t.running = false
		t.results = nil
		t.wakeAt = 0
		t.instrs, t.memRefs = 0, 0
	}
	m.clock = 0
	m.cur = -1
	m.swaps = 0
	m.sramRefs, m.sdramRefs, m.scratchRefs = 0, 0, 0
	m.hashRefs, m.fifoRefs = 0, 0
	m.stallCycles, m.portWait, m.syncQuanta = 0, 0, 0
	for _, u := range m.units {
		u.nextFree = 0
	}
	m.hashUnit.nextFree = 0
}

// SetArgs places entry argument values into a thread's registers.
func (m *Machine) SetArgs(threadID int, regs []asm.Reg, args []uint32) error {
	if len(regs) != len(args) {
		return fmt.Errorf("ixp: %d regs for %d args", len(regs), len(args))
	}
	t := m.threads[threadID]
	for i, r := range regs {
		t.regs[r.Bank][r.Idx] = args[i]
	}
	t.running = true
	return nil
}

// SetRX fills a thread's receive FIFO.
func (m *Machine) SetRX(threadID int, words []uint32) {
	m.threads[threadID].rx = append([]uint32(nil), words...)
}

// Stats reports a run's outcome. The reference counts split MemRefs by
// memory space, and the two cycle-accounting fields attribute lost
// time: StallCycles is time no thread was runnable (memory latency the
// thread swapping could not hide), PortWaitCycles is time references
// queued behind a busy memory port (bandwidth contention).
type Stats struct {
	Cycles  int64
	Instrs  int64
	MemRefs int64
	Swaps   int64
	Results [][]uint32 // per running thread, halt results

	SRAMRefs       int64
	SDRAMRefs      int64
	ScratchRefs    int64
	HashRefs       int64
	FIFORefs       int64
	StallCycles    int64
	PortWaitCycles int64
}

// Seconds converts cycles to wall-clock time at the configured clock.
func (m *Machine) Seconds(cycles int64) float64 {
	return float64(cycles) / (m.Cfg.ClockMHz * 1e6)
}

// tickStatus is what one call of tick did.
type tickStatus uint8

const (
	tickRan    tickStatus = iota // executed one quantum or more
	tickShared                   // next quantum is a shared reference; not executed
	tickDone                     // no started thread can ever run again
)

// shared reports whether executing in can see or change state outside
// its engine. The memories, their ports, the hash unit and the CSRs
// are chip-wide. A TFIFO write only appends to the engine's own TX,
// but TX is the engine's output, so it is ordered too: after a failed
// run every engine's TX then holds exactly what the (clock, engine)
// interleaving wrote before the failure.
func shared(in *asm.Instr) bool {
	switch in.Op {
	case asm.OpRead:
		return in.Space != cps.SpaceRFIFO
	case asm.OpWrite, asm.OpHash, asm.OpBTS, asm.OpCSRRd, asm.OpCSRWr:
		return true
	}
	return false
}

// tick advances the engine by scheduling quanta at its local clock.
// While the current thread is runnable it executes that thread's
// instructions, one quantum each, until the clock reaches until, the
// thread blocks or halts, or a shared reference has executed; with
// until = clock+1 that is exactly one quantum, since every instruction
// costs at least a cycle. Otherwise it runs one swap quantum. With sync
// set, a shared reference is left unexecuted and reported as
// tickShared.
func (m *Machine) tick(sync bool, until int64) (tickStatus, error) {
	// Prefer the current thread while it is runnable (context switches
	// are not free).
	if m.cur >= 0 {
		t := m.threads[m.cur]
		if t.running && !t.halted && t.wakeAt <= m.clock {
			for {
				sh := shared(&m.prog.Instrs[t.pc])
				if sync && sh {
					return tickShared, nil
				}
				c, err := m.step(t, m.clock)
				if err != nil {
					return tickRan, fmt.Errorf("thread %d pc %d: %w", t.id, t.pc, err)
				}
				m.clock += int64(c)
				if sh || m.clock >= until || t.halted || t.wakeAt > m.clock {
					return tickRan, nil
				}
			}
		}
	}
	return m.swap()
}

// swap is tick's quantum when the current thread cannot run: a switch
// to the next runnable thread, an idle skip to the earliest wake-up, or
// tickDone once no started thread is left.
func (m *Machine) swap() (tickStatus, error) {
	// Pick the next runnable thread (round-robin from cur+1).
	next := -1
	for i := 1; i <= len(m.threads); i++ {
		c := (m.cur + i) % len(m.threads)
		t := m.threads[c]
		if t.running && !t.halted && t.wakeAt <= m.clock {
			next = c
			break
		}
	}
	if next < 0 {
		// Advance to the earliest wake-up.
		var minWake int64 = -1
		for _, t := range m.threads {
			if t.running && !t.halted {
				if minWake < 0 || t.wakeAt < minWake {
					minWake = t.wakeAt
				}
			}
		}
		if minWake < 0 {
			return tickDone, nil
		}
		if minWake <= m.clock {
			return tickRan, fmt.Errorf("scheduler stuck at cycle %d", m.clock)
		}
		m.stallCycles += minWake - m.clock
		m.clock = minWake
		return tickRan, nil
	}
	if m.cur >= 0 && next != m.cur {
		m.clock += int64(m.Cfg.SwapCost)
		m.swaps++
	}
	m.cur = next
	return tickRan, nil
}

// run executes quanta while the local clock is below maxCycles. It
// stops when every started thread has halted (done), and — with sync
// set — just before a shared reference, which it leaves for the chip
// scheduler. A failing quantum leaves the clock where the quantum
// started, so the error is raised at that simulated time.
func (m *Machine) run(maxCycles int64, sync bool) (done bool, err error) {
	for m.clock < maxCycles {
		s, err := m.tick(sync, maxCycles)
		if err != nil {
			return false, err
		}
		switch s {
		case tickShared:
			return false, nil
		case tickDone:
			return true, nil
		}
	}
	return false, nil
}

// park runs the engine ahead to its next shared reference, its
// budget, a failure or the end of its threads, and returns its
// scheduling key for Chip.Run: its clock, or math.MaxInt64 once done.
func (m *Machine) park(maxCycles int64) (int64, error) {
	done, err := m.run(maxCycles, true)
	if done {
		return math.MaxInt64, nil
	}
	return m.clock, err
}

// active reports whether any started thread is still running.
func (m *Machine) active() bool {
	for _, t := range m.threads {
		if t.running && !t.halted {
			return true
		}
	}
	return false
}

// attr wraps err with this machine's chip/engine attribution, leaving
// already-attributed errors alone.
func (m *Machine) attr(err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*RunError); ok {
		return err
	}
	return &RunError{Chip: m.ChipID, Engine: m.EngineID, Err: err}
}

// Run executes until every started thread halts or the cycle budget is
// exhausted. Failures are returned as *RunError carrying the machine's
// chip/engine identity.
func (m *Machine) Run(maxCycles int64) (*Stats, error) {
	if m.prog == nil {
		return nil, m.attr(fmt.Errorf("no program loaded"))
	}
	if _, err := m.run(maxCycles, false); err != nil {
		return nil, m.attr(err)
	}
	st, err := m.stats()
	if err != nil {
		return st, m.attr(err)
	}
	return st, nil
}

func (m *Machine) stats() (*Stats, error) {
	st := &Stats{
		Cycles: m.clock, Swaps: m.swaps,
		SRAMRefs: m.sramRefs, SDRAMRefs: m.sdramRefs, ScratchRefs: m.scratchRefs,
		HashRefs: m.hashRefs, FIFORefs: m.fifoRefs,
		StallCycles: m.stallCycles, PortWaitCycles: m.portWait,
	}
	for _, t := range m.threads {
		st.Instrs += t.instrs
		st.MemRefs += t.memRefs
		if t.running {
			st.Results = append(st.Results, t.results)
		}
		if t.running && !t.halted {
			return st, fmt.Errorf("cycle budget exhausted (thread %d at pc %d)", t.id, t.pc)
		}
	}
	m.flushCounters(st)
	return st, nil
}

// flushCounters publishes a run's tallies to the process-wide ixp/
// counters, once per collection.
func (m *Machine) flushCounters(st *Stats) {
	cIxpCycles.Add(st.Cycles)
	cIxpInstrs.Add(st.Instrs)
	cIxpSwaps.Add(st.Swaps)
	cIxpSRAMRefs.Add(st.SRAMRefs)
	cIxpSDRAMRefs.Add(st.SDRAMRefs)
	cIxpScratch.Add(st.ScratchRefs)
	cIxpHashRefs.Add(st.HashRefs)
	cIxpFIFORefs.Add(st.FIFORefs)
	cIxpStalls.Add(st.StallCycles)
	cIxpPortWait.Add(st.PortWaitCycles)
	cIxpSync.Add(m.syncQuanta)
}

// noteRef tallies one memory reference against its space.
func (m *Machine) noteRef(space cps.Space) {
	switch space {
	case cps.SpaceSRAM:
		m.sramRefs++
	case cps.SpaceSDRAM:
		m.sdramRefs++
	case cps.SpaceScratch:
		m.scratchRefs++
	case cps.SpaceRFIFO, cps.SpaceTFIFO:
		m.fifoRefs++
	}
}

func (t *thread) get(o asm.Operand) uint32 {
	if o.IsImm {
		return o.Imm
	}
	return t.regs[o.Reg.Bank][o.Reg.Idx]
}

func (m *Machine) mem(space cps.Space) ([]uint32, int, error) {
	switch space {
	case cps.SpaceSRAM:
		return m.SRAM, m.Cfg.SRAMLatency, nil
	case cps.SpaceSDRAM:
		return m.SDRAM, m.Cfg.SDRAMLatency, nil
	case cps.SpaceScratch:
		return m.Scratch, m.Cfg.ScratchLatency, nil
	}
	return nil, 0, fmt.Errorf("bad space %v", space)
}

// step executes one instruction at the given cycle, returning its
// issue cost. Blocking references set the thread's wake-up time; the
// scheduler switches to another thread to hide the latency.
func (m *Machine) step(t *thread, cycle int64) (int, error) {
	in := &m.prog.Instrs[t.pc]
	t.instrs++
	cost := 1
	switch in.Op {
	case asm.OpAlu:
		l, r := t.get(in.L), t.get(in.R)
		v, ok := types.EvalBinop(in.Alu, l, r)
		if !ok {
			return 0, fmt.Errorf("alu %v %d %d", in.Alu, l, r)
		}
		t.regs[in.Dst.Bank][in.Dst.Idx] = v
		t.pc++
	case asm.OpImm:
		t.regs[in.Dst.Bank][in.Dst.Idx] = in.Val
		cost = in.Words()
		t.pc++
	case asm.OpRead:
		t.memRefs++
		m.noteRef(in.Space)
		addr := t.get(in.Addr)
		var lat int
		if in.Space == cps.SpaceRFIFO {
			lat = m.Cfg.FIFOLatency
			for i := 0; i < in.Count; i++ {
				idx := int(addr) + i
				if idx >= len(t.rx) {
					return 0, fmt.Errorf("rfifo read %d beyond %d", idx, len(t.rx))
				}
				t.regs[core.L][in.Base+i] = t.rx[idx]
			}
		} else {
			mem, l, err := m.mem(in.Space)
			if err != nil {
				return 0, err
			}
			lat = l
			if in.Space == cps.SpaceSDRAM && addr%2 != 0 {
				return 0, fmt.Errorf("unaligned sdram read at %d", addr)
			}
			dstBank := core.L
			if in.Space == cps.SpaceSDRAM {
				dstBank = core.LD
			}
			for i := 0; i < in.Count; i++ {
				idx := int(addr) + i
				if idx >= len(mem) {
					return 0, fmt.Errorf("%v read at %d out of range", in.Space, idx)
				}
				t.regs[dstBank][in.Base+i] = mem[idx]
			}
		}
		// The thread blocks until the data arrives; other threads (and
		// other engines) contend for the memory port.
		t.pc++
		if in.Space == cps.SpaceRFIFO {
			t.wakeAt = cycle + 1 + int64(lat)
			return 1, nil
		}
		g := m.units[in.Space].grant(cycle + 1)
		m.portWait += g - (cycle + 1)
		t.wakeAt = g + int64(lat)
		return 1, nil
	case asm.OpWrite:
		t.memRefs++
		m.noteRef(in.Space)
		addr := t.get(in.Addr)
		if in.Space == cps.SpaceTFIFO {
			for i := 0; i < in.Count; i++ {
				m.TX = append(m.TX, t.regs[core.S][in.Base+i])
			}
			t.pc++
			return 1, nil
		}
		mem, _, err := m.mem(in.Space)
		if err != nil {
			return 0, err
		}
		if in.Space == cps.SpaceSDRAM && addr%2 != 0 {
			return 0, fmt.Errorf("unaligned sdram write at %d", addr)
		}
		srcBank := core.S
		if in.Space == cps.SpaceSDRAM {
			srcBank = core.SD
		}
		for i := 0; i < in.Count; i++ {
			idx := int(addr) + i
			if idx >= len(mem) {
				return 0, fmt.Errorf("%v write at %d out of range", in.Space, idx)
			}
			mem[idx] = t.regs[srcBank][in.Base+i]
		}
		// Writes retire asynchronously; the thread keeps running, but
		// the reference still consumes port bandwidth.
		g := m.units[in.Space].grant(cycle + 1)
		m.portWait += g - (cycle + 1)
		t.pc++
	case asm.OpHash:
		t.memRefs++
		m.hashRefs++
		v := t.regs[core.S][in.Base]
		t.regs[core.L][in.Dst.Idx] = cps.DefaultHash(v)
		t.pc++
		g := m.hashUnit.grant(cycle + 1)
		m.portWait += g - (cycle + 1)
		t.wakeAt = g + int64(m.Cfg.HashLatency)
		return 1, nil
	case asm.OpBTS:
		t.memRefs++
		m.sramRefs++
		addr := t.get(in.Addr)
		if int(addr) >= len(m.SRAM) {
			return 0, fmt.Errorf("bts address %d out of range", addr)
		}
		old := m.SRAM[addr]
		m.SRAM[addr] |= t.regs[core.S][in.Base]
		t.regs[core.L][in.Dst.Idx] = old
		t.pc++
		u := m.units[cps.SpaceSRAM]
		g := u.grant(cycle + 1)
		m.portWait += g - (cycle + 1)
		u.grant(g) // read-modify-write holds the port twice
		t.wakeAt = g + int64(m.Cfg.SRAMLatency)
		return 1, nil
	case asm.OpCSRRd:
		t.regs[core.L][in.Dst.Idx] = m.CSR[t.get(in.Addr)]
		t.pc++
		cost = 2
	case asm.OpCSRWr:
		m.CSR[t.get(in.Addr)] = t.regs[core.S][in.Base]
		t.pc++
		cost = 2
	case asm.OpCtxSwap:
		t.pc++
		t.wakeAt = cycle + 2 // one cycle of latency
		return 1, nil
	case asm.OpBr:
		l, r := t.get(in.L), t.get(in.R)
		if cmpOp(in.Alu, l, r) {
			t.pc = in.Target
			cost = 1 + m.Cfg.BranchPenalty
		} else {
			t.pc++
		}
	case asm.OpJmp:
		t.pc = in.Target
		cost = 1 + m.Cfg.BranchPenalty
	case asm.OpHalt:
		for _, r := range in.Results {
			t.results = append(t.results, t.get(r))
		}
		t.halted = true
	default:
		return 0, fmt.Errorf("bad opcode %v", in.Op)
	}
	return cost, nil
}

func cmpOp(op ast.BinOp, l, r uint32) bool {
	switch op {
	case ast.OpEq:
		return l == r
	case ast.OpNe:
		return l != r
	case ast.OpLt:
		return l < r
	case ast.OpGt:
		return l > r
	case ast.OpLe:
		return l <= r
	case ast.OpGe:
		return l >= r
	}
	return false
}
