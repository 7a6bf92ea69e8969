// Command perfbench is the repository's end-to-end benchmark. One run
// takes one of the paper's programs (NAT or AES) down all three paths
// a user of the system sees:
//
//   - compile: cold nova.Compile of the program, no cache;
//   - serve:   an open loop of /compile and /solve requests into an
//     in-process novad (server.New(...).Handler() on loopback HTTP);
//   - fleet:   a seeded pktgen.FlowGen stream through fleet.Run on 2
//     simulated chips.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload nat|aes --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 the same phases run a
// second time with an obs.Recorder installed and the line holds the
// per-layer metrics instead, plus the tracing overhead. README.md in
// this directory lists every metric, the layer it belongs to and the
// end-to-end metric it is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value; the unit travels with it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts operations and collects metrics for one run.
type ledger struct {
	attempted, failed int
	metrics           map[string]metric
}

func newLedger() *ledger { return &ledger{metrics: map[string]metric{}} }

// op records one operation; a non-nil err counts it as failed and is
// reported on standard error.
func (l *ledger) op(what string, err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

func (l *ledger) set(name, unit string, v float64) { l.metrics[name] = metric{v, unit} }

// The --seconds budget is split between the three timed phases.
// Serving gets most of it: at serveRate its two p90 tiers need 30
// seconds for 100 samples each.
const (
	compileShare = 0.175
	serveShare   = 0.75
	fleetShare   = 0.075
)

func main() {
	workload := flag.String("workload", "", "program to run down all three paths: nat or aes")
	seed := flag.Int64("seed", 1, "input seed (packet stream, request order, tier draw, near-miss columns)")
	seconds := flag.Float64("seconds", 40, "measured seconds, split between the compile, serve and fleet phases")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced second pass")
	flag.Parse()

	prog, ok := programs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want nat or aes)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d; host nproc %d GOMAXPROCS %d %s\n",
		prog.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	total0, steal0 := cpuTicks()
	l := newLedger()
	b, err := setUp(prog, *seed, fmt.Sprintf("s%g-t%d", *seconds, *trace), l)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		os.Exit(1)
	}
	defer b.close()

	budget := time.Duration(*seconds * float64(time.Second))
	var tr *traceSet
	if *trace != 0 {
		tr = newTraceSet(prog.name, *seed)
	}
	plain, traced := b.measure(budget, tr)
	if tr == nil {
		plain.report(l)
		l.set("setup_s", "s", b.setupSeconds)
		l.set("peak_rss_mb", "MB", peakRSSMB())
	} else {
		tr.report(l, b, plain, traced)
	}
	b.checkRepeat(plain)

	out := result{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   l.metrics,
	}
	b.close()
	if total1, steal1 := cpuTicks(); total1 > total0 {
		fmt.Printf("perfbench: host CPU stolen by the hypervisor during the run: %.1f%%\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
