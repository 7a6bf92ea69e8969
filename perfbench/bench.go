package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/fleet"
	"repro/internal/nova"
	"repro/internal/obs"
	"repro/internal/pktgen"
	"repro/internal/server"
)

// bench is one run's state: the inputs made from the seed and what
// set-up built from them.
type bench struct {
	prog *program
	seed int64
	args string // the remaining arguments, which also shape a run
	l    *ledger

	svc       *service
	knap      *knapsack
	usedFixes map[string]bool
	coldAsm   string  // the set-up compile's assembly
	coldCanon string  // and its canonicalRegs form, which every hit must equal
	coldObj   float64 // and its objective

	fw      *fleet.Workload
	gen     *pktgen.FlowGen
	digests map[uint64]uint64 // oracle per-flow digests of one stream

	setupSeconds float64
	missMS       float64 // set-up cold compile through the server
	populateLPs  int64   // cache/populate_lps during set-up

	print *fingerprint // deterministic values of this run
}

// setUp starts novad, cold-compiles the program and cold-solves the
// knapsack through it (the miss tier, which populates the cache), and
// makes the seeded packet stream and its oracle digests.
func setUp(prog *program, seed int64, args string, l *ledger) (*bench, error) {
	start := time.Now()
	base := obs.TakeSnapshot()
	b := &bench{
		prog: prog, seed: seed, args: args, l: l,
		knap: newKnapsack(), usedFixes: map[string]bool{}, print: &fingerprint{},
	}
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	b.svc = svc

	body, err := json.Marshal(server.CompileRequest{Name: prog.name + ".nova", Source: prog.src})
	if err != nil {
		return nil, err
	}
	var cr server.CompileResponse
	t := time.Now()
	if err := svc.post(svc.clients[0], "/compile", body, &cr); err != nil {
		return nil, fmt.Errorf("cold compile: %w", err)
	}
	b.missMS = ms(time.Since(t))
	b.coldAsm, b.coldCanon, b.coldObj = cr.Asm, canonicalRegs(cr.Asm), cr.Obj
	switch {
	case cr.Outcome != "miss":
		err = fmt.Errorf("outcome %q, want miss", cr.Outcome)
	case cr.Moves != prog.moves || cr.Spills != 0:
		err = fmt.Errorf("moves %d spills %d, want %d and 0", cr.Moves, cr.Spills, prog.moves)
	}
	l.op("set-up cold compile through novad", err)

	body, err = json.Marshal(b.knap.solveRequest(nil))
	if err != nil {
		return nil, err
	}
	var sr server.SolveResponse
	if err := svc.post(svc.clients[0], "/solve", body, &sr); err != nil {
		return nil, fmt.Errorf("cold solve: %w", err)
	}
	b.knap.obj = sr.Obj
	for j, v := range sr.X {
		if v < 0.5 {
			b.knap.zeros = append(b.knap.zeros, j)
		}
	}
	err = nil
	switch {
	case sr.Outcome != "miss" || sr.Status != "optimal":
		err = fmt.Errorf("outcome %q status %q, want miss and optimal", sr.Outcome, sr.Status)
	case len(b.knap.zeros) < 8:
		err = fmt.Errorf("only %d zero columns to fix", len(b.knap.zeros))
	}
	if !l.op("set-up cold knapsack solve through novad", err) {
		return nil, err
	}
	b.populateLPs = obs.Since(base)["cache/populate_lps"]

	b.gen = pktgen.NewFlowGen(prog.kind, seed, streamFlows, streamPayload)
	b.digests = prog.oracleDigests(b.gen, prog.fleetPackets)
	b.setupSeconds = time.Since(start).Seconds()
	return b, nil
}

// close stops novad; safe to call twice.
func (b *bench) close() {
	if b.svc != nil {
		b.svc.close()
		b.svc = nil
	}
}

// pass is what one pass over the three phases saw.
type pass struct {
	id     int  // 1, or 2 for the traced pass of a traced run
	traced bool // phases ran under an obs.Recorder

	compileS   []float64 // every cold compile, fleet.Compile's included
	codeCycles float64
	comps      []*nova.Compilation // traced pass only: for the layer probes

	reqs    []request
	replies []reply

	fleetNS     []float64 // host ns per packet of each fleet.Run
	fleetRes    *fleet.Result
	fleetAllocs []float64 // traced pass only: mallocs per packet
	fleetBytes  []float64 // traced pass only: bytes allocated per packet
}

// measure runs the compile, serve and fleet phases, splitting budget
// between them, and returns what the untraced pass saw. With tr
// non-nil every phase runs twice on half the budget, first untraced
// and then under an obs.Recorder, and the traced pass is returned too.
// Running the twins back to back keeps the process in the same state
// for both, so their difference is the tracing overhead.
func (b *bench) measure(budget time.Duration, tr *traceSet) (plain, traced *pass) {
	passes := []*pass{{id: 1}}
	if tr != nil {
		budget /= 2
		passes = append(passes, &pass{id: 2, traced: true})
	}
	phases := []struct {
		name string
		run  func(*pass, time.Duration)
	}{
		{"compile", b.compilePhase},
		{"serve", b.servePhase},
		{"fleet", b.fleetPhase},
	}
	for _, ph := range phases {
		for _, ps := range passes {
			// Collect the previous phase's garbage now, not on this
			// phase's clock.
			runtime.GC()
			if ps.traced {
				tr.begin(ph.name)
			}
			ph.run(ps, budget)
			if ps.traced {
				tr.end(ph.name)
			}
		}
	}
	for _, ps := range passes {
		fmt.Printf("perfbench: pass %d: %s; %s\n", ps.id, spread("compile s", ps.compileS), spread("fleet ns/packet", ps.fleetNS))
	}
	if tr != nil {
		traced = passes[1]
	}
	return passes[0], traced
}

// share is the deadline of a phase given its share of the budget.
func share(budget time.Duration, f float64) time.Time {
	return time.Now().Add(time.Duration(f * float64(budget)))
}

// compilePhase cold-compiles the program. The first compile goes
// through fleet.Compile, which also builds the fleet phase's workload;
// the fleet phase checks its code. Then at least one nova.Compile, and
// another only if it should end within the phase's share, judged by
// the last one.
func (b *bench) compilePhase(ps *pass, budget time.Duration) {
	deadline := share(budget, compileShare)
	t := time.Now()
	fw, err := fleet.Compile(b.prog.name, nil)
	if b.l.op("cold compile through fleet.Compile", err) {
		ps.compileS = append(ps.compileS, time.Since(t).Seconds())
		b.fw = fw
	}
	for last := time.Duration(0); last == 0 || time.Now().Add(last).Before(deadline); {
		t := time.Now()
		b.compileOnce(ps)
		last = time.Since(t)
	}
}

// servePhase runs the open loop of the seeded schedule.
func (b *bench) servePhase(ps *pass, budget time.Duration) {
	n := int(math.Round(serveShare * budget.Seconds() * serveRate))
	reqs, err := b.schedule(n, ps.id)
	if !b.l.op("build serve schedule", err) {
		return
	}
	ps.reqs, ps.replies = reqs, b.openLoop(reqs)
	for i, r := range ps.replies {
		b.l.op(fmt.Sprintf("serve request %d (%s)", i, tierOutcome[reqs[i].tier]), r.err)
	}
}

// fleetPhase repeats the fleet stream until the phase's share is spent,
// at least twice.
func (b *bench) fleetPhase(ps *pass, budget time.Duration) {
	deadline := share(budget, fleetShare)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		b.fleetOnce(ps)
	}
}

// spread summarizes the samples behind one median for the log.
func spread(what string, xs []float64) string {
	if len(xs) == 0 {
		return what + ": no samples"
	}
	return fmt.Sprintf("%s: n=%d min=%.4g median=%.4g max=%.4g", what, len(xs), slices.Min(xs), median(xs), slices.Max(xs))
}

// compileOnce cold-compiles the program with the default options and
// no cache, and checks the allocation and the emitted code.
func (b *bench) compileOnce(ps *pass) {
	t := time.Now()
	c, err := nova.Compile(b.prog.name+".nova", b.prog.src, nova.DefaultOptions())
	d := time.Since(t)
	if !b.l.op("cold compile", err) {
		return
	}
	ps.compileS = append(ps.compileS, d.Seconds())
	if ps.traced {
		ps.comps = append(ps.comps, c)
	}
	a := c.Alloc
	obj := a.MIP.Obj + a.ObjConst
	switch {
	case a.NumMoves() != b.prog.moves || a.Spills != 0:
		err = fmt.Errorf("moves %d spills %d, want %d and 0", a.NumMoves(), a.Spills, b.prog.moves)
	case !sameObj(obj, b.coldObj):
		err = fmt.Errorf("objective %v, the set-up compile's %v", obj, b.coldObj)
	}
	b.l.op("cold compile allocation", err)

	st, err := b.prog.codeProbe(c, b.fw, b.gen)
	if !b.l.op("cold compile code against the oracle", err) {
		return
	}
	ps.codeCycles = float64(st.Cycles) / float64(len(st.Results))
	fp := compilePrint{
		Obj: fmt.Sprintf("%.9g", obj), Moves: a.NumMoves(), Spills: a.Spills,
		Instrs: len(c.Asm.Instrs), CodeCycles: st.Cycles, CodeInstrs: st.Instrs,
	}
	if b.prog.lpItersRepeat {
		fp.LPIters = a.MIP.LPIters
	}
	b.l.op("cold compile repeats exactly", b.print.sameCompile(fp))
}

// fleetOnce pushes one seeded stream through fleet.Run on two chips and
// checks accounting and every flow's digest against the oracle.
func (b *bench) fleetOnce(ps *pass) {
	if b.fw == nil {
		b.l.op("fleet run", fmt.Errorf("no fleet workload: fleet.Compile failed"))
		return
	}
	n := b.prog.fleetPackets
	var m0, m1 runtime.MemStats
	if ps.traced {
		runtime.ReadMemStats(&m0)
	}
	t := time.Now()
	res, err := fleet.Run(b.fw, b.gen.Take(n), fleet.Options{Chips: fleetChips})
	d := time.Since(t)
	if ps.traced {
		runtime.ReadMemStats(&m1)
	}
	b.gen.Reset()
	if !b.l.op("fleet run", err) {
		return
	}
	switch {
	case res.Status != fleet.StatusOK || res.Generated != n || res.Delivered != n:
		err = fmt.Errorf("status %v: generated %d delivered %d of %d", res.Status, res.Generated, res.Delivered, n)
	default:
		err = res.Reconcile()
	}
	if err == nil && len(res.FlowDigests) != len(b.digests) {
		err = fmt.Errorf("%d flows delivered, oracle has %d", len(res.FlowDigests), len(b.digests))
	}
	for flow, want := range b.digests {
		if err == nil && res.FlowDigests[flow] != want {
			err = fmt.Errorf("flow %d digest differs from the oracle", flow)
		}
	}
	if !b.l.op("fleet run reconciles with the oracle", err) {
		return
	}
	ps.fleetNS = append(ps.fleetNS, float64(d.Nanoseconds())/float64(n))
	ps.fleetRes = res
	if ps.traced {
		ps.fleetAllocs = append(ps.fleetAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		ps.fleetBytes = append(ps.fleetBytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	}
	fp := fleetPrint{Cycles: res.Agg.Cycles, Instrs: res.Agg.Instrs, Stalls: res.Agg.StallCycles, Batches: batches(res)}
	for i, c := range res.Chips {
		fp.ChipCycles[i] = c.Stats.Cycles
	}
	b.l.op("fleet run repeats exactly", b.print.sameFleet(fp))
}

func batches(res *fleet.Result) int64 {
	var n int64
	for _, c := range res.Chips {
		n += c.Batches
	}
	return n
}

// sameObj compares two allocation objectives up to the rounding a
// different summation order leaves.
func sameObj(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// busiestCycles is the largest per-chip simulated cycle count.
func busiestCycles(res *fleet.Result) int64 {
	var m int64
	for _, c := range res.Chips {
		m = max(m, c.Stats.Cycles)
	}
	return m
}

// tierLatencies returns the due-to-reply latencies, in ms, of the
// successful replies of one tier.
func (ps *pass) tierLatencies(t tier) []float64 {
	var out []float64
	for i, r := range ps.replies {
		if ps.reqs[i].tier == t && r.err == nil {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

// report sets the end-to-end metrics of an untraced pass.
func (ps *pass) report(l *ledger) {
	l.set("compile_s", "s", median(ps.compileS))
	l.set("code_cycles_per_packet", "cycles", ps.codeCycles)
	hit, near := ps.tierLatencies(tierHit), ps.tierLatencies(tierNear)
	l.set("serve_hit_p50_ms", "ms", quantile(hit, 0.5))
	l.set("serve_hit_p90_ms", "ms", quantile(hit, 0.9))
	l.set("serve_near_miss_p50_ms", "ms", quantile(near, 0.5))
	l.set("serve_near_miss_p90_ms", "ms", quantile(near, 0.9))
	good := 0
	for _, r := range ps.replies {
		if r.err == nil && r.lat <= goodputLimit {
			good++
		}
	}
	l.set("serve_goodput_frac", "frac", float64(good)/float64(max(1, len(ps.replies))))
	if len(ps.fleetNS) > 0 {
		l.set("fleet_pps", "1/s", 1e9/median(ps.fleetNS))
		res := ps.fleetRes
		hz := fleet.Options{}.Normalize().MachineConfig().ClockMHz * 1e6
		l.set("fleet_sim_mpps", "Mpps", float64(res.Delivered)/(float64(busiestCycles(res))/hz)/1e6)
	}
}

// endToEnd lists the timed end-to-end values of a pass that the
// tracing overhead compares, all as "lower is better" times.
func (ps *pass) endToEnd() []float64 {
	return []float64{
		median(ps.compileS),
		quantile(ps.tierLatencies(tierHit), 0.5),
		quantile(ps.tierLatencies(tierNear), 0.5),
		median(ps.fleetNS),
	}
}

// traceOverheadPct is the geometric-mean slowdown of the traced pass's
// end-to-end medians over the untraced pass's, in percent.
func traceOverheadPct(plain, traced *pass) float64 {
	a, t := plain.endToEnd(), traced.endToEnd()
	s, n := 0.0, 0
	for i := range a {
		if a[i] > 0 && t[i] > 0 {
			s += math.Log(t[i] / a[i])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * (math.Exp(s/float64(n)) - 1)
}
