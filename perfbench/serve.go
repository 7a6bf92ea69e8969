package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/lp"
	"repro/internal/mip"
	"repro/internal/model"
	"repro/internal/server"
)

// service is an in-process novad with novad's default configuration,
// served on a loopback listener and driven over two client
// connections.
type service struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	clients [2]*http.Client
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{
		Cache:   cache.New(cache.Config{MaxEntries: 512, MaxBytes: 256 << 20}),
		Workers: 2,
	})
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the HTTP server down, waits for its serve loop to
// return and stops the daemon's workers.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	_ = s.hs.Shutdown(ctx) // a timeout leaves nothing to clean up beyond Close
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("perfbench: http server: %v\n", err)
	}
	s.srv.Close()
}

// post sends one JSON request on client c and decodes the 200 reply.
func (s *service) post(c *http.Client, path string, body []byte, out any) error {
	resp, err := c.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// tier is the cache tier a request is built to land in.
type tier int

const (
	tierSource tier = iota // identical resubmit: output tier
	tierHit                // trailing-comment edit: verified model hit
	tierNear               // knapsack with extra columns fixed to 0
	numTiers
)

var tierOutcome = [numTiers]string{"source_hit", "hit", "near_miss"}

// request is one scheduled request with its pre-encoded body.
type request struct {
	tier  tier
	body  []byte
	fixed []int // tierNear: the columns fixed to 0
}

// reply is what the client saw for one request. lat runs from the
// request's due time to the end of the reply, wait from the due time
// to the moment a connection was free to send it.
type reply struct {
	lat, wait time.Duration
	elapsedMS float64 // server-side elapsed_ms
	nodes     int
	lpIters   int
	outcome   string
	renamed   bool // asm equals the cold compile's only up to register names
	err       error
}

// knapsack is the /solve instance and its cold optimum.
type knapsack struct {
	p     *lp.Problem
	obj   float64
	zeros []int // columns the cold optimum leaves at 0
}

// The knapsack is the one BENCH_server.json and BenchmarkMIPScaling's
// neighbour use: large enough that a cold solve opens a real tree.
func newKnapsack() *knapsack { return &knapsack{p: mip.MultiKnapsack(34, 12, 7)} }

// solveRequest encodes the knapsack with the given columns fixed to 0.
func (k *knapsack) solveRequest(fixed []int) server.SolveRequest {
	p := k.p
	req := server.SolveRequest{Cols: make([]server.SolveCol, p.NumCols()), Rows: make([]server.SolveRow, p.NumRows())}
	finite := func(v float64) *float64 {
		if math.IsInf(v, 0) {
			return nil
		}
		return &v
	}
	for j := 0; j < p.NumCols(); j++ {
		lo, hi := p.Bounds(j)
		if slices.Contains(fixed, j) {
			hi = 0
		}
		req.Cols[j] = server.SolveCol{Lo: finite(lo), Hi: finite(hi), Obj: p.Obj(j), Integer: true}
		for _, nz := range p.Col(j) {
			req.Rows[nz.Row].Cols = append(req.Rows[nz.Row].Cols, j)
			req.Rows[nz.Row].Vals = append(req.Rows[nz.Row].Vals, nz.Val)
		}
	}
	for r := range req.Rows {
		lo, hi := p.RowBounds(r)
		req.Rows[r].Lo, req.Rows[r].Hi = finite(lo), finite(hi)
	}
	return req
}

// checkNear verifies a near-miss reply: proven optimal, the cold
// optimum's objective, and a point feasible for the edited bounds.
func (k *knapsack) checkNear(r *server.SolveResponse, fixed []int) error {
	if r.Status != mip.Optimal.String() {
		return fmt.Errorf("status %s", r.Status)
	}
	if math.Abs(r.Obj-k.obj) > 1e-6*math.Max(1, math.Abs(k.obj)) {
		return fmt.Errorf("objective %g, cold optimum %g", r.Obj, k.obj)
	}
	p := k.p.Clone()
	for _, j := range fixed {
		lo, _ := p.Bounds(j)
		p.SetBounds(j, lo, 0)
	}
	mask := make([]bool, p.NumCols())
	for j := range mask {
		mask[j] = true
	}
	if err := model.FromILP(p, mask).CheckFeasible(r.X, 1e-6); err != nil {
		return fmt.Errorf("point violates the edited model: %w", err)
	}
	return nil
}

// serveBlock is the tier mix of every five consecutive requests: one
// identical resubmit, two model hits and two near misses, in an order
// drawn from the seed. Mixing within short blocks keeps the seed from
// drawing long bursts of one tier, which would make the latency of a
// run depend more on its seed than on the program.
var serveBlock = [...]tier{tierSource, tierHit, tierHit, tierNear, tierNear}

// serveRate is the fixed arrival rate of the open loop, in requests per
// second. At this rate the two solve slots of novad are busy about a
// third of the time on NAT and half of it on AES.
const serveRate = 8.5

// goodputLimit is the latency, from the due time, within which a
// correct reply counts toward serve_goodput_frac.
const goodputLimit = 500 * time.Millisecond

// schedule builds n requests in an order drawn from the seed, block
// by block as serveBlock says. Every hit carries a trailing comment no
// earlier request carried and every near miss fixes a column set no
// earlier request fixed. A traced second pass keeps the order and
// draws fresh comments and column sets.
func (b *bench) schedule(n, pass int) ([]request, error) {
	rng := rand.New(rand.NewSource(b.seed))
	tiers := make([]tier, 0, n+len(serveBlock))
	for len(tiers) < n {
		block := serveBlock
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		tiers = append(tiers, block[:]...)
	}
	tiers = tiers[:n]

	src, err := json.Marshal(server.CompileRequest{Name: b.prog.name + ".nova", Source: b.prog.src})
	if err != nil {
		return nil, err
	}
	reqs := make([]request, n)
	for i, t := range tiers {
		r := request{tier: t}
		switch t {
		case tierSource:
			r.body = src
		case tierHit:
			edited := fmt.Sprintf("%s\n// perfbench seed %d pass %d request %d\n", b.prog.src, b.seed, pass, i)
			r.body, err = json.Marshal(server.CompileRequest{Name: b.prog.name + ".nova", Source: edited})
		case tierNear:
			r.fixed = b.nearMissColumns(rng)
			sr := b.knap.solveRequest(r.fixed)
			// One MIP worker: a request then never holds more than one
			// of the two cores, so concurrent requests do not contend.
			sr.Workers = 1
			r.body, err = json.Marshal(sr)
		}
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// nearMissColumns draws three zero-valued columns of the cold optimum
// that no earlier near miss of this run fixed together.
func (b *bench) nearMissColumns(rng *rand.Rand) []int {
	z := b.knap.zeros
	for {
		perm := rng.Perm(len(z))[:3]
		cols := []int{z[perm[0]], z[perm[1]], z[perm[2]]}
		slices.Sort(cols)
		key := fmt.Sprint(cols)
		if !b.usedFixes[key] {
			b.usedFixes[key] = true
			return cols
		}
	}
}

// openLoop sends reqs at serveRate over the two connections, each
// request due at its slot in the schedule whether or not an earlier
// one has been answered, and checks every reply.
func (b *bench) openLoop(reqs []request) []reply {
	out := make([]reply, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
	}
	for _, c := range b.svc.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range next {
				sent := time.Now()
				r := b.send(c, &reqs[i])
				r.wait = sent.Sub(due(i))
				r.lat = time.Since(due(i))
				out[i] = r
			}
		}(c)
	}
	for i := range reqs {
		time.Sleep(time.Until(due(i)))
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// send issues one request and checks the reply against what its tier
// must return.
func (b *bench) send(c *http.Client, rq *request) reply {
	var r reply
	if rq.tier == tierNear {
		var sr server.SolveResponse
		if r.err = b.svc.post(c, "/solve", rq.body, &sr); r.err != nil {
			return r
		}
		r.outcome, r.elapsedMS, r.nodes, r.lpIters = sr.Outcome, sr.ElapsedMS, sr.Nodes, sr.LPIters
		if r.outcome != tierOutcome[rq.tier] {
			r.err = fmt.Errorf("near miss served as %q", r.outcome)
		} else {
			r.err = b.knap.checkNear(&sr, rq.fixed)
		}
		return r
	}
	var cr server.CompileResponse
	if r.err = b.svc.post(c, "/compile", rq.body, &cr); r.err != nil {
		return r
	}
	r.outcome, r.elapsedMS = cr.Outcome, cr.ElapsedMS
	switch {
	case r.outcome != tierOutcome[rq.tier]:
		r.err = fmt.Errorf("%s request served as %q", tierOutcome[rq.tier], r.outcome)
	case cr.Moves != b.prog.moves || cr.Spills != 0 || !sameObj(cr.Obj, b.coldObj):
		r.err = fmt.Errorf("%s allocation: moves %d spills %d obj %v, cold %d/0/%v",
			r.outcome, cr.Moves, cr.Spills, cr.Obj, b.prog.moves, b.coldObj)
	case cr.Asm == b.coldAsm:
	case rq.tier == tierSource:
		r.err = fmt.Errorf("source hit asm differs from the cold compile")
	case canonicalRegs(cr.Asm) != b.coldCanon:
		r.err = fmt.Errorf("hit asm differs from the cold compile beyond register names")
	default:
		r.renamed = true
	}
	return r
}

// regToken matches a register operand in novad's assembly listing:
// a bank name followed by an index, as in A9, B0 or LD3.
var regToken = regexp.MustCompile(`\b([A-Z]+)([0-9]+)\b`)

// canonicalRegs renames every register to its bank and the order in
// which it first appears in that bank. Two listings with equal
// canonical forms are the same code up to a bank-preserving renaming
// of registers, which is all the model tier promises: it translates
// the cached optimum through canonical orders that may pair truly
// symmetric registers differently from the cold compile.
func canonicalRegs(listing string) string {
	seen := map[string]string{}
	next := map[string]int{}
	return regToken.ReplaceAllStringFunc(listing, func(reg string) string {
		if c, ok := seen[reg]; ok {
			return c
		}
		bank := regToken.FindStringSubmatch(reg)[1]
		c := bank + "_" + strconv.Itoa(next[bank])
		next[bank]++
		seen[reg] = c
		return c
	})
}
