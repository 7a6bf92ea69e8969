package repro

import (
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/ixp"
	"repro/internal/obs"
	"repro/internal/pktgen"
)

// goldenBatch is one full-chip batch of a paper workload — the fleet's
// default six engines × four threads, each slot a 64 B packet staged
// and digested by the workload's fleet adapter — with its statistics,
// output digest and the quanta the chip scheduler handled
// (ixp/sync_quanta).
func goldenBatch(tb testing.TB, w workload) (*ixp.Stats, uint64, int64) {
	tb.Helper()
	fw, err := fleet.Adapt(w.name, compileWorkload(tb, w))
	if err != nil {
		tb.Fatal(err)
	}
	o := fleet.Options{}.Normalize()
	chip := ixp.NewChip(o.MachineConfig(), o.Engines)
	if fw.Init != nil {
		fw.Init(chip)
	}
	chip.Load(fw.Prog)
	slots := o.Engines * o.Threads
	pkts := make([]*pktgen.Packet, slots)
	for i := range pkts {
		p := &pktgen.Packet{Flow: uint64(i), PayloadBytes: 64, Kind: fw.Kind}
		if fw.Kind == pktgen.KindIPv6 {
			p.Words = pktgen.BuildIPv6TCP(int64(i+33), 64)
		} else {
			p.Words = pktgen.BuildTCP(int64(i+1), 64).Words
		}
		pkts[i] = p
		args := fw.Stage(chip, i, p)
		if err := chip.Engines[i/o.Threads].SetArgs(i%o.Threads, fw.EntryRegs, args); err != nil {
			tb.Fatal(err)
		}
	}
	base := obs.TakeSnapshot()
	st, err := chip.Run(o.BatchBudget)
	sync := obs.Since(base)["ixp/sync_quanta"]
	if err != nil {
		tb.Fatalf("%s: %v", w.name, err)
	}
	h := uint64(fleet.DigestSeed)
	for i, p := range pkts {
		d := fw.Collect(chip, i, p, st.Results[i])
		h = fleet.Digest(h, []uint32{uint32(d), uint32(d >> 32)})
	}
	return st, h, sync
}

// TestWorkloadBatchGolden pins the simulated outcome of one full-chip
// batch of each paper workload: every Stats counter and the digest of
// all the packets' outputs, recorded under the per-quantum global-clock
// interleaving that Chip.Run's run-ahead scheduler must reproduce. The
// fleet's own determinism gates compare two runs through one
// scheduler, so only a pin like this one catches a change in the
// engines' interleaving. The sync-quanta pin holds the scheduler to
// one synchronization per shared reference.
func TestWorkloadBatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full ILP compilation takes minutes")
	}
	for _, tc := range []struct {
		w      workload
		want   ixp.Stats
		digest uint64
		sync   int64
	}{
		{workloadTable[0], ixp.Stats{Cycles: 34445, Instrs: 122256, MemRefs: 16704, Swaps: 16602,
			SRAMRefs: 16416, SDRAMRefs: 288, StallCycles: 61898, PortWaitCycles: 292685}, 0xd8a77c806739b43e, 16704},
		{workloadTable[1], ixp.Stats{Cycles: 44610, Instrs: 221232, MemRefs: 20448, Swaps: 20249,
			SRAMRefs: 9216, SDRAMRefs: 480, ScratchRefs: 10752, StallCycles: 13107, PortWaitCycles: 19436}, 0xc5f1e3c00f26447d, 20448},
		{workloadTable[2], ixp.Stats{Cycles: 2138, Instrs: 4872, MemRefs: 504, Swaps: 306,
			SDRAMRefs: 456, HashRefs: 48, StallCycles: 6066, PortWaitCycles: 49689}, 0xb0cda63476e2b566, 504},
	} {
		st, digest, sync := goldenBatch(t, tc.w)
		got := *st
		got.Results = nil
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: stats\n%+v\nwant\n%+v", tc.w.name, got, tc.want)
		}
		if digest != tc.digest {
			t.Errorf("%s: output digest %#x, want %#x", tc.w.name, digest, tc.digest)
		}
		if sync != tc.sync {
			t.Errorf("%s: ixp/sync_quanta moved by %d, want %d", tc.w.name, sync, tc.sync)
		}
	}
}
