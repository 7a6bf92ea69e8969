package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ixp"
	"repro/internal/nova"
	"repro/internal/obs"
	"repro/internal/pktgen"
)

// traceSet records one obs.Recorder window per phase of the traced
// pass and writes each as a Chrome trace.
type traceSet struct {
	prefix string
	recs   map[string]*obs.Recorder
}

// traceDir holds the Chrome traces of traced runs.
var traceDir = filepath.Join(".bench_build", "traces")

func newTraceSet(workload string, seed int64) *traceSet {
	return &traceSet{prefix: fmt.Sprintf("%s-seed%d", workload, seed), recs: map[string]*obs.Recorder{}}
}

func (t *traceSet) begin(phase string) { obs.Start("perfbench " + phase) }

func (t *traceSet) end(phase string) {
	r := obs.Stop()
	t.recs[phase] = r
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
		return
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-%s.json", t.prefix, phase))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
		return
	}
	werr := r.WriteTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trace %s: %v\n", path, werr)
		return
	}
	fmt.Printf("perfbench: wrote %s\n", path)
}

// span sums the recorded time of the named spans in one phase.
func (t *traceSet) span(phase string, names ...string) time.Duration {
	var d time.Duration
	for _, st := range t.recs[phase].SpanTotals() {
		for _, n := range names {
			if st.Name == n {
				d += st.Total
			}
		}
	}
	return d
}

// counter is how much a counter moved during one phase (a gauge's
// value at the phase's end).
func (t *traceSet) counter(phase, name string) float64 {
	return float64(t.recs[phase].CounterDeltas()[name])
}

// Span groups of the compile pipeline (internal/nova, internal/core).
var (
	frontendSpans = []string{"phase/parse", "phase/typecheck", "phase/cps", "phase/opt", "phase/ssu", "phase/isel"}
	modelSpans    = []string{"phase/alloc/graph", "phase/alloc/model"}
	backendSpans  = []string{"phase/alloc/extract", "phase/verify", "phase/assign", "phase/emit"}
)

// report sets the per-layer metrics from the traced pass and the
// layer probes, and the tracing overhead against the untraced pass.
func (t *traceSet) report(l *ledger, b *bench, plain, traced *pass) {
	// compile: per cold compile of the traced pass.
	if n := float64(len(traced.compileS)); len(traced.comps) > 0 {
		per := func(d time.Duration) float64 { return ms(d) / n }
		l.set("frontend.ms", "ms", per(t.span("compile", frontendSpans...)))
		l.set("core.model_ms", "ms", per(t.span("compile", modelSpans...)))
		l.set("model.presolve_ms", "ms", per(t.span("compile", "mip/presolve")))
		l.set("mip.root_lp_ms", "ms", per(t.span("compile", "mip/root_lp")))
		l.set("mip.search_ms", "ms", per(t.span("compile", "mip/search")))
		l.set("asm.backend_ms", "ms", per(t.span("compile", backendSpans...)))
		l.set("mip.nodes", "count", t.counter("compile", "mip/nodes")/n)
		l.set("lp.iterations", "count", t.counter("compile", "lp/iterations")/n)
		l.set("lp.refactorizations", "count", t.counter("compile", "lp/refactorizations")/n)
		l.set("lp.dual_iterations", "count", t.counter("compile", "lp/dual_iterations")/n)
		c := traced.comps[0]
		l.set("core.vars", "count", float64(c.Alloc.ModelStats.Vars))
		l.set("core.moves", "count", float64(c.Alloc.NumMoves()))
		l.set("asm.instrs", "count", float64(len(c.Asm.Instrs)))
		b.lpProbe(c)
		b.cacheProbe(c)
	}

	// serve: per reply of the traced pass.
	hits, renamed, tierMatch := 0, 0, 0
	var hitServer, srcServer, nodes, iters, waits []float64
	for i, r := range traced.replies {
		waits = append(waits, ms(r.wait))
		if r.err != nil {
			continue
		}
		tierMatch++
		switch traced.reqs[i].tier {
		case tierHit:
			hits++
			if r.renamed {
				renamed++
			}
			hitServer = append(hitServer, r.elapsedMS)
		case tierSource:
			srcServer = append(srcServer, r.elapsedMS)
		case tierNear:
			nodes = append(nodes, float64(r.nodes))
			iters = append(iters, float64(r.lpIters))
		}
	}
	if hits > 0 {
		per := func(d time.Duration) float64 { return ms(d) / float64(hits) }
		l.set("frontend.hit_ms", "ms", per(t.span("serve", frontendSpans...)))
		l.set("core.model_hit_ms", "ms", per(t.span("serve", modelSpans...)))
		l.set("cache.hook_ms", "ms", per(t.span("serve", "phase/alloc/cache")))
		l.set("asm.backend_hit_ms", "ms", per(t.span("serve", backendSpans...)))
	}
	l.set("server.hit_ms", "ms", median(hitServer))
	l.set("server.source_hit_ms", "ms", median(srcServer))
	l.set("serve.client_wait_p90_ms", "ms", quantile(waits, 0.9))
	l.set("mip.near_miss_nodes", "count", median(nodes))
	l.set("lp.near_miss_iterations", "count", median(iters))
	l.set("mip.bound_proofs", "count", t.counter("serve", "mip/bound_proofs"))
	l.set("serve.miss_ms", "ms", b.missMS)
	l.set("cache.populate_lps", "count", float64(b.populateLPs))
	for _, c := range []string{"hits", "near_misses", "source_hits", "misses", "validation_drops", "evictions", "entries"} {
		l.set("cache."+c, "count", t.counter("serve", "cache/"+c))
	}
	l.set("cache.renamed_hits", "count", float64(renamed))
	l.set("cache.tier_match_ratio", "ratio", float64(tierMatch)/float64(max(1, len(traced.replies))))

	// fleet: the traced pass's streams plus solo probes of the
	// generator and the simulator.
	if res := traced.fleetRes; res != nil {
		d := float64(res.Delivered)
		l.set("fleet.ns_per_packet", "ns", median(traced.fleetNS))
		l.set("fleet.allocs_per_packet", "count", median(traced.fleetAllocs))
		l.set("fleet.bytes_per_packet", "B", median(traced.fleetBytes))
		l.set("fleet.batches", "count", float64(batches(res)))
		l.set("fleet.chip_skew", "ratio", float64(busiestCycles(res))*float64(len(res.Chips))/float64(res.Agg.Cycles))
		l.set("ixp.instrs_per_packet", "count", float64(res.Agg.Instrs)/d)
		l.set("ixp.cycles_per_packet", "cycles", float64(res.Agg.Cycles)/d)
		l.set("ixp.stall_cycles_per_packet", "cycles", float64(res.Agg.StallCycles)/d)
	}
	b.pktgenProbe()
	b.ixpProbe()

	l.set("trace.overhead_pct", "%", traceOverheadPct(plain, traced))
}

// lpProbe times a cold (*lp.Problem).Solve of the compile's full,
// unpresolved model from outside and divides by its iterations.
func (b *bench) lpProbe(c *nova.Compilation) {
	p, _ := c.Alloc.ModelLP()
	t := time.Now()
	sol, err := p.Solve(nil)
	d := time.Since(t)
	if b.l.op("cold LP solve of the allocation model", err) && sol.Iters > 0 {
		b.l.set("lp.us_per_iteration", "us", float64(d.Microseconds())/float64(sol.Iters))
	}
}

// cacheProbe times the model cache's two per-request checks on the
// model core.BuildModel makes: canonicalization, and feasibility of the
// compile's solution.
func (b *bench) cacheProbe(c *nova.Compilation) {
	m, err := core.BuildModel(c.MIR, c.Alloc.Opts)
	if !b.l.op("rebuild the allocation model", err) {
		return
	}
	var canon, feas []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		m.Canonicalize()
		canon = append(canon, ms(time.Since(t)))
		t = time.Now()
		err = m.CheckFeasible(c.Alloc.MIP.X, 1e-6)
		feas = append(feas, ms(time.Since(t)))
		if !b.l.op("compile solution feasible for the rebuilt model", err) {
			return
		}
	}
	b.l.set("cache.canonicalize_ms", "ms", median(canon))
	b.l.set("cache.check_feasible_ms", "ms", median(feas))
}

// pktgenProbe times the seeded stream's generation alone.
func (b *bench) pktgenProbe() {
	var ns []float64
	for i := 0; i < 3; i++ {
		src := b.gen.Take(b.prog.fleetPackets)
		t := time.Now()
		for p := src(); p != nil; p = src() {
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(b.prog.fleetPackets))
		b.gen.Reset()
	}
	b.l.set("pktgen.ns_per_packet", "ns", median(ns))
}

// ixpProbe runs the fleet workload's stage, Chip.Run and collect loop
// on one chip over pre-generated packets — the simulator without the
// fleet's dispatch — and checks its digests against the oracle too.
func (b *bench) ixpProbe() {
	o := fleet.Options{}.Normalize()
	chip := ixp.NewChip(o.MachineConfig(), o.Engines)
	if b.fw.Init != nil {
		b.fw.Init(chip)
	}
	var pkts []*pktgen.Packet
	src := b.gen.Take(b.prog.fleetPackets)
	for p := src(); p != nil; p = src() {
		pkts = append(pkts, p)
	}
	b.gen.Reset()
	slots := o.Engines * o.Threads
	digests := map[uint64]uint64{}
	var instrs int64
	var err error
	t := time.Now()
	for lo := 0; lo < len(pkts) && err == nil; lo += slots {
		batch := pkts[lo:min(lo+slots, len(pkts))]
		chip.Load(b.fw.Prog)
		for i, p := range batch {
			args := b.fw.Stage(chip, i, p)
			if err = chip.Engines[i/o.Threads].SetArgs(i%o.Threads, b.fw.EntryRegs, args); err != nil {
				break
			}
		}
		var st *ixp.Stats
		if err == nil {
			st, err = chip.Run(o.BatchBudget)
		}
		if err != nil {
			break
		}
		instrs += st.Instrs
		for i, p := range batch {
			foldDigest(digests, p, b.fw.Collect(chip, i, p, st.Results[i]))
		}
	}
	d := time.Since(t)
	if err == nil {
		for flow, want := range b.digests {
			if digests[flow] != want {
				err = fmt.Errorf("flow %d: solo-chip digest differs from the oracle", flow)
				break
			}
		}
	}
	if !b.l.op("solo-chip simulator loop against the oracle", err) {
		return
	}
	n := float64(len(pkts))
	b.l.set("ixp.ns_per_packet", "ns", float64(d.Nanoseconds())/n)
	b.l.set("ixp.ns_per_instr", "ns", float64(d.Nanoseconds())/float64(instrs))
}
