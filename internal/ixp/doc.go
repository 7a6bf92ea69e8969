// Package ixp is a cycle-level simulator of an IXP1200 micro-engine as
// seen by compiled Nova programs (Figure 1 of the paper): per-thread
// A/B general-purpose banks, SRAM-side (L/S) and SDRAM-side (LD/SD)
// transfer banks, shared scratch/SRAM/SDRAM memory, the hash unit, and
// hardware multi-threading that swaps contexts to hide memory latency.
//
// The clock and latency parameters approximate the 233 MHz IXP1200 the
// paper measures (§11): what the simulator preserves is the relative
// cost structure — single-cycle ALU operations against tens-of-cycles
// memory references — which determines the shape of the throughput
// results.
//
// # Usage
//
// A single engine runs a compiled program on its hardware threads:
//
//	m := ixp.New(ixp.DefaultConfig())
//	m.Load(comp.Asm)                               // *asm.Program
//	regs, _ := comp.EntryRegs()
//	m.SetArgs(0, regs, []uint32{addr, n})          // start thread 0
//	st, err := m.Run(10_000_000)                   // cycle budget
//	if err == nil {
//		_ = st.Cycles                          // plus Instrs, MemRefs,
//	}                                              // SRAMRefs, StallCycles, ...
//
// NewChip builds several engines sharing one memory system and its
// port-arbitration state; Chip.Run interleaves them on a global clock
// so cross-engine bandwidth contention is simulated faithfully.
//
// Chip.Run synchronizes the engines only where they can affect each
// other (conservative lookahead, DESIGN.md §13). A quantum is shared
// when it references SRAM, SDRAM or scratch, the hash unit, a
// bit-test-set or a CSR, or writes the TFIFO; ALU, immediate and
// branch instructions, RFIFO reads, context swaps, halts and idle skips
// are local to the engine. Each engine runs its local quanta ahead on
// its own clock and parks just before its next shared one, keyed by
// its clock. The chip then executes the shared quantum of the parked
// engine with the smallest (clock, engine index) and lets that engine
// run ahead again. That is exactly the order in which a per-quantum
// global-clock interleaving, which always advances the engine with the
// smallest (clock, index), would execute the shared quanta: local
// quanta neither read nor write anything another engine sees, and an
// engine's next shared quantum, with its clock, depends only on its
// own state. Port grants, stalls, memory images, results and Stats are
// therefore bit-identical to that interleaving. An engine that reaches
// the cycle budget parks there, and one whose local quantum fails
// parks with the error at the failing quantum's clock; both are
// raised only at the engine's turn, so the first failure in simulated
// time wins and names its engine. The ixp/sync_quanta counter tallies
// the shared quanta the scheduler executed.
//
// Stats splits memory traffic by space (SRAMRefs, SDRAMRefs,
// ScratchRefs, HashRefs, FIFORefs) and attributes lost cycles:
// StallCycles is time no thread was runnable (latency the thread
// swapping could not hide) and PortWaitCycles is time references
// queued behind a busy memory port (bandwidth). The same figures are
// published on the always-on ixp/ obs counters — see DESIGN.md §8.
package ixp
