package main

import (
	"fmt"
	"slices"

	"repro/internal/fleet"
	"repro/internal/ixp"
	"repro/internal/nova"
	"repro/internal/pktgen"
	"repro/internal/workloads"
)

// program is one of the paper's benchmark programs together with what
// the benchmark knows about it independently of the compiler: its
// exact Go oracle and the allocation quality of a cold compile.
type program struct {
	name string
	src  string
	kind pktgen.Kind
	// moves is the move count of an optimal cold allocation. Spills
	// are 0 for every program.
	moves int
	// lpItersRepeat marks programs whose compile is one cold root LP,
	// so its iteration count must repeat exactly. NAT's branch and
	// bound runs on every core and may take a different path.
	lpItersRepeat bool
	// fleetPackets sizes one fleet stream so it takes a few tenths of
	// a second on either program.
	fleetPackets int64
	// oracle computes one packet's observable output: the words the
	// program leaves behind and its halt results.
	oracle func(p *pktgen.Packet) (out []uint32, results []uint32)
}

// The two workloads. NAT's compile is a presolve-shrunk model with
// about 90 branch-and-bound nodes of warm dual re-solves and its fleet
// stream is bound by packet generation; AES's compile is almost all one
// cold root LP and its fleet stream is bound by the simulator.
var programs = map[string]*program{
	"nat": {
		name: "nat", src: workloads.NATSource, kind: pktgen.KindIPv6,
		moves: 8, fleetPackets: 8192,
		oracle: func(p *pktgen.Packet) ([]uint32, []uint32) {
			chunks := uint32((p.PayloadBytes + 7) / 8)
			dst := uint32(len(p.Words))
			mem := make([]uint32, int(dst)+6+2*int(chunks))
			copy(mem, p.Words)
			ck := workloads.NATOracle(mem, 0, dst, chunks)
			return mem[dst:], []uint32{ck}
		},
	},
	"aes": {
		name: "aes", src: workloads.AESSource, kind: pktgen.KindTCP4,
		moves: 13, lpItersRepeat: true, fleetPackets: 1024,
		oracle: func(p *pktgen.Packet) ([]uint32, []uint32) {
			mem := slices.Clone(p.Words)
			ret := workloads.AESOracle(mem, 0, uint32(p.PayloadBytes/16))
			return mem, []uint32{ret}
		},
	},
}

// Fleet stream shape shared by both workloads.
const (
	streamFlows   = 256
	streamPayload = 64
	fleetChips    = 2
)

// mix64 is the splitmix64 finalizer the fleet digests with.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// oracleDigest is the digest a fleet workload's Collect must return for
// p, computed from the oracle alone.
func (pr *program) oracleDigest(p *pktgen.Packet) uint64 {
	out, res := pr.oracle(p)
	return fleet.Digest(fleet.Digest(fleet.DigestSeed, out), res)
}

// foldDigest adds one packet's digest to its flow the way the fleet
// does: an order-independent sum keyed by the in-flow sequence number.
func foldDigest(flows map[uint64]uint64, p *pktgen.Packet, d uint64) {
	flows[p.Flow] += mix64(d ^ mix64(uint64(p.Seq)+0x51ed270b))
}

// oracleDigests recomputes, from the oracle alone, the per-flow digests
// fleet.Run must report for the first n packets of the stream.
func (pr *program) oracleDigests(g *pktgen.FlowGen, n int64) map[uint64]uint64 {
	d := map[uint64]uint64{}
	src := g.Take(n)
	for p := src(); p != nil; p = src() {
		foldDigest(d, p, pr.oracleDigest(p))
	}
	g.Reset()
	return d
}

// codeProbe runs a compiled program on one engine with four threads,
// one 64-byte packet of the stream each, staged and collected by the
// fleet workload's adapter. It checks every packet's output against the
// oracle and returns the run's statistics.
func (pr *program) codeProbe(c *nova.Compilation, fw *fleet.Workload, g *pktgen.FlowGen) (*ixp.Stats, error) {
	const threads = 4
	if fw == nil {
		return nil, fmt.Errorf("no fleet workload to stage packets with")
	}
	o := fleet.Options{Engines: 1, Threads: threads}.Normalize()
	chip := ixp.NewChip(o.MachineConfig(), 1)
	if fw.Init != nil {
		fw.Init(chip)
	}
	chip.Load(c.Asm)
	regs, err := c.EntryRegs()
	if err != nil {
		return nil, err
	}
	pkts := make([]*pktgen.Packet, threads)
	for th := range pkts {
		pkts[th] = g.Packet(uint64(th), 0)
		if err := chip.Engines[0].SetArgs(th, regs, fw.Stage(chip, th, pkts[th])); err != nil {
			return nil, err
		}
	}
	st, err := chip.Run(o.BatchBudget)
	if err != nil {
		return nil, err
	}
	if len(st.Results) != threads {
		return nil, fmt.Errorf("%d results for %d packets", len(st.Results), threads)
	}
	for th, p := range pkts {
		if fw.Collect(chip, th, p, st.Results[th]) != pr.oracleDigest(p) {
			return nil, fmt.Errorf("packet %d: simulator output differs from the oracle", th)
		}
	}
	return st, nil
}
