package ixp

import (
	"fmt"
	"math"

	"repro/internal/asm"
)

// Chip is a full IXP1200: several micro-engines sharing the SRAM,
// SDRAM, and scratch memories and their ports, plus the hash unit.
// Engines run on one global clock; memory references from different
// engines contend for port bandwidth, which is what bounds the
// chip-level scaling (the paper keeps all AES tables in SRAM and notes
// the resulting contention).
type Chip struct {
	Cfg     Config
	Engines []*Machine

	// ID names the chip in attributed errors and fleet telemetry
	// (fleet/chipN/*). NewChip sets 0; SetID renames chip and engines
	// together.
	ID int

	// Scheduler scratch, reused across runs: each engine's parking
	// clock (done engines park at math.MaxInt64) and the error it
	// parked with, if any.
	keys   []int64
	parked []error
}

// NumEngines on a real IXP1200.
const NumEngines = 6

// NewChip builds a chip with n engines sharing one memory system.
func NewChip(cfg Config, n int) *Chip {
	c := &Chip{Cfg: cfg}
	first := New(cfg)
	c.Engines = append(c.Engines, first)
	for i := 1; i < n; i++ {
		e := New(cfg)
		// Share the memory system and the arbitration state.
		e.SRAM = first.SRAM
		e.SDRAM = first.SDRAM
		e.Scratch = first.Scratch
		e.CSR = first.CSR
		e.units = first.units
		e.hashUnit = first.hashUnit
		c.Engines = append(c.Engines, e)
	}
	c.SetID(0)
	return c
}

// SetID renames the chip and stamps the chip/engine identity onto its
// engines, so every error out of Run is attributable (fleet harness
// chips are numbered 0..N-1).
func (c *Chip) SetID(id int) {
	c.ID = id
	for i, e := range c.Engines {
		e.ChipID = id
		e.EngineID = i
	}
}

// attr wraps err with chip/engine attribution (engine -1 for failures
// not tied to one engine), leaving already-attributed errors alone.
func (c *Chip) attr(engine int, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*RunError); ok {
		return err
	}
	return &RunError{Chip: c.ID, Engine: engine, Err: err}
}

// SRAM returns the shared SRAM image.
func (c *Chip) SRAM() []uint32 { return c.Engines[0].SRAM }

// SDRAM returns the shared SDRAM image.
func (c *Chip) SDRAM() []uint32 { return c.Engines[0].SDRAM }

// Scratch returns the shared scratch image.
func (c *Chip) Scratch() []uint32 { return c.Engines[0].Scratch }

// Load installs a program on every engine and resets the clocks.
func (c *Chip) Load(p *asm.Program) {
	for _, e := range c.Engines {
		e.Load(p)
	}
}

// Run advances all engines on a single global clock until every
// started thread halts. Engines synchronize only at shared references
// (memory, hash-unit, bit-test-set, CSR and TFIFO quanta; see
// shared): each engine runs its local quanta ahead on its own clock
// and parks before its next shared reference, and the parked engine
// with the smallest (clock, index) executes that reference and runs
// ahead again. Shared references therefore happen in exactly the order
// a per-quantum global-clock interleaving gives them, so memory-port
// grants are issued in true time order. Failures are returned as
// *RunError naming the chip and engine they happened on; a failure is
// raised at its engine's turn, so the first one in simulated time
// wins.
func (c *Chip) Run(maxCycles int64) (*Stats, error) {
	n := len(c.Engines)
	if len(c.keys) != n {
		c.keys, c.parked = make([]int64, n), make([]error, n)
	}
	keys, parked := c.keys, c.parked
	anyStarted := false
	for i, e := range c.Engines {
		if e.prog == nil {
			return nil, c.attr(i, fmt.Errorf("no program loaded"))
		}
		anyStarted = anyStarted || e.active()
	}
	if !anyStarted {
		return nil, c.attr(-1, fmt.Errorf("no engine has running threads"))
	}
	for i, e := range c.Engines {
		keys[i] = math.MaxInt64
		if e.active() {
			keys[i], parked[i] = e.park(maxCycles)
		}
	}
	for {
		// The parked engine with the smallest (clock, index).
		best, key := -1, int64(math.MaxInt64)
		for i, k := range keys {
			if k < key {
				best, key = i, k
			}
		}
		if best < 0 {
			break // all done
		}
		e := c.Engines[best]
		if key >= maxCycles {
			return nil, c.attr(best, fmt.Errorf("cycle budget exhausted"))
		}
		if parked[best] != nil {
			return nil, c.attr(best, parked[best])
		}
		if _, err := e.tick(false, key+1); err != nil {
			return nil, c.attr(best, err)
		}
		e.syncQuanta++
		keys[best], parked[best] = e.park(maxCycles)
	}
	return c.collect()
}

// collect aggregates the engines' statistics after a completed run;
// the chip's cycle count is the slowest engine's clock.
func (c *Chip) collect() (*Stats, error) {
	total := &Stats{}
	for i, e := range c.Engines {
		st, err := e.stats()
		if err != nil {
			return nil, c.attr(i, err)
		}
		if st.Cycles > total.Cycles {
			total.Cycles = st.Cycles
		}
		total.Instrs += st.Instrs
		total.MemRefs += st.MemRefs
		total.Swaps += st.Swaps
		total.SRAMRefs += st.SRAMRefs
		total.SDRAMRefs += st.SDRAMRefs
		total.ScratchRefs += st.ScratchRefs
		total.HashRefs += st.HashRefs
		total.FIFORefs += st.FIFORefs
		total.StallCycles += st.StallCycles
		total.PortWaitCycles += st.PortWaitCycles
		total.Results = append(total.Results, st.Results...)
	}
	return total, nil
}

// Seconds converts chip cycles to wall-clock seconds.
func (c *Chip) Seconds(cycles int64) float64 {
	return float64(cycles) / (c.Cfg.ClockMHz * 1e6)
}
