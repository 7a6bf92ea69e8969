package core

import (
	"fmt"
	"sort"

	"repro/internal/mir"
)

// Assignment completes an allocation with physical register numbers
// for the A and B banks and spill-slot addresses for values parked in
// scratch memory M.
//
// Following the paper (§9), A/B register numbers are chosen by a
// coloring phase with optimistic coalescing in the style of Park-Moon:
// value-preserving links — jump-argument renamings and clones — are
// coalesced whenever the interference graph allows it; links that
// cannot be coalesced cost a real copy (emitted at the edge or at the
// clone), with one A register reserved for breaking parallel-copy
// cycles (§6).
type Assignment struct {
	res *Result

	// nodes: union-find over locations. Locations of the same temp
	// that provably stay in one register (same-bank arcs, same-web
	// carries) are pre-merged; cross-temp links are coalesced
	// optimistically.
	parent map[locID]locID

	// reg[group root] = register index within its bank (A/B only).
	reg map[locID]int

	// spillSlot[web root] = scratch word offset of a spilled value.
	spillSlot map[locID]int
	// NumSpillSlots is the number of scratch words used for spills.
	NumSpillSlots int
	// transitSlot, lazily allocated, stages composite moves that pass
	// through memory without residing there (e.g. S -> B).
	transitSlot int

	// Coalesced reports how many value links merged; Copies lists the
	// links that could not be coalesced and need real code.
	Coalesced int
	edgeCopy  map[[2]mir.BlockID][]EdgeCopy
	cloneCopy map[cloneCopyKey]bool
}

type cloneCopyKey struct {
	d, s mir.Temp
}

// EdgeCopy is a parameter-passing copy on a control edge that
// coalescing could not eliminate.
type EdgeCopy struct {
	Arg, Param mir.Temp
	Src, Dst   Loc
}

// ReservedA is the A-bank register index reserved for parallel-copy
// cycle breaking.
const ReservedA = 15

func (a *Assignment) find(l locID) locID {
	for a.parent[l] != l {
		a.parent[l] = a.parent[a.parent[l]]
		l = a.parent[l]
	}
	return l
}

func (a *Assignment) union(x, y locID) {
	rx, ry := a.find(x), a.find(y)
	if rx != ry {
		a.parent[rx] = ry
	}
}

// AssignRegisters colors the A and B occupants, coalesces value links,
// numbers spill slots, and computes the residual copies.
func (r *Result) AssignRegisters() (*Assignment, error) {
	g := r.graph
	a := &Assignment{
		res:       r,
		parent:    map[locID]locID{},
		reg:       map[locID]int{},
		spillSlot: map[locID]int{},
		edgeCopy:  map[[2]mir.BlockID][]EdgeCopy{},
		cloneCopy: map[cloneCopyKey]bool{},
	}
	for l := range g.locTemp {
		a.parent[locID(l)] = locID(l)
	}
	bankOfLoc := func(l locID) Bank { return r.bankOf[g.find(l)] }

	// 1. Pre-merge locations of one temp that keep their register:
	//    same-bank arcs, and web-carried locations (entry/exit of the
	//    same temp across an edge always share bank and value).
	for _, arc := range g.arcs {
		if g.locTemp[arc.from] == g.locTemp[arc.to] &&
			bankOfLoc(arc.from) == bankOfLoc(arc.to) {
			a.union(arc.from, arc.to)
		}
	}
	byTempRoot := map[[2]int][]locID{}
	for l := range g.locTemp {
		key := [2]int{int(g.locTemp[l]), int(g.find(locID(l)))}
		byTempRoot[key] = append(byTempRoot[key], locID(l))
	}
	// Map order would pick the union-find representatives, and the
	// coloring breaks ties on node ID: visit the keys sorted so the
	// register names are the same in every process.
	keys := make([][2]int, 0, len(byTempRoot))
	for k := range byTempRoot {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		locs := byTempRoot[k]
		for i := 1; i < len(locs); i++ {
			a.union(locs[0], locs[i])
		}
	}

	// 2. Interference between A/B nodes: distinct nodes co-live in the
	//    same bank at some point, except when they provably hold the
	//    same value (same web, or clones of each other).
	adj := map[locID]map[locID]bool{}
	nodesOf := map[Bank]map[locID]bool{}
	nodesOf[A] = map[locID]bool{}
	nodesOf[B] = map[locID]bool{}
	addInterf := func(x, y locID) {
		if adj[x] == nil {
			adj[x] = map[locID]bool{}
		}
		if adj[y] == nil {
			adj[y] = map[locID]bool{}
		}
		adj[x][y] = true
		adj[y][x] = true
	}
	type occ struct {
		node locID
		v    mir.Temp
		root locID
	}
	for p := 0; p < g.npoints; p++ {
		for _, list := range [][]locEntry{g.beforeLocs[p], g.afterLocs[p]} {
			var ab []occ
			for _, le := range list {
				root := g.find(le.loc)
				bk := r.bankOf[root]
				if bk != A && bk != B {
					continue
				}
				node := a.find(le.loc)
				nodesOf[bk][node] = true
				ab = append(ab, occ{node: node, v: le.v, root: root})
			}
			for i := 0; i < len(ab); i++ {
				for j := i + 1; j < len(ab); j++ {
					x, y := ab[i], ab[j]
					if x.node == y.node {
						continue // same register by construction
					}
					if g.cloneSet[x.v] >= 0 && g.cloneSet[x.v] == g.cloneSet[y.v] {
						continue // clones never interfere (§10)
					}
					if bankOfLoc(x.node) != bankOfLoc(y.node) {
						continue
					}
					addInterf(x.node, y.node)
				}
			}
		}
	}

	// 3. Optimistic coalescing of value links in A/B.
	type link struct{ x, y locID }
	var links []link
	for _, rn := range g.renames {
		if bk := bankOfLoc(rn.argLoc); bk == A || bk == B || bk == M {
			links = append(links, link{rn.argLoc, rn.paramLoc})
		}
	}
	for _, cl := range g.cloneLinks {
		if bk := bankOfLoc(cl.dLoc); bk == A || bk == B || bk == M {
			links = append(links, link{cl.dLoc, cl.sLoc})
		}
	}
	interferes := func(x, y locID) bool { return adj[x] != nil && adj[x][y] }
	for _, lk := range links {
		x, y := a.find(lk.x), a.find(lk.y)
		if x == y {
			a.Coalesced++
			continue
		}
		if interferes(x, y) {
			continue // a real copy will be emitted
		}
		// Merge y into x, folding adjacency.
		for n := range adj[y] {
			delete(adj[n], y)
			addInterf(x, n)
		}
		delete(adj, y)
		bk := bankOfLoc(x)
		delete(nodesOf[bk], y)
		a.parent[y] = x
		a.Coalesced++
	}

	// 4. Greedy coloring in smallest-last order per bank.
	for _, b := range []Bank{A, B} {
		limit := 16
		if b == A {
			limit = ReservedA // register 15 stays reserved
		}
		var nodes []locID
		for n := range nodesOf[b] {
			nodes = append(nodes, a.find(n))
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		nodes = dedupe(nodes)
		order := smallestLast(nodes, adj)
		for _, n := range order {
			used := map[int]bool{}
			for m := range adj[n] {
				if c, ok := a.reg[a.find(m)]; ok {
					used[c] = true
				}
			}
			c := 0
			for used[c] {
				c++
			}
			if c >= limit {
				return nil, fmt.Errorf("core assign: bank %v needs %d registers (limit %d)",
					b, c+1, limit)
			}
			a.reg[n] = c
		}
	}

	// 5. Spill slots: one scratch word per spilled value chain. The
	// key is the coalesced node (same-temp, same-bank chains merged in
	// step 1), so a value that stays in M across several webs keeps a
	// single slot.
	for _, m := range r.Moves {
		if m.To != M {
			continue
		}
		node := a.find(g.activeLocAt(m.V, pointID(m.Point)))
		if _, ok := a.spillSlot[node]; !ok {
			a.spillSlot[node] = a.NumSpillSlots
			a.NumSpillSlots++
		}
	}

	// 6. Residual copies for uncoalesced links.
	for _, rn := range g.renames {
		src, ok1 := a.locOf(rn.arg, rn.argLoc)
		dst, ok2 := a.locOf(rn.param, rn.paramLoc)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("core assign: rename %s->%s has no locations",
				g.mp.TempName(rn.arg), g.mp.TempName(rn.param))
		}
		if src == dst {
			continue
		}
		key := [2]mir.BlockID{rn.pred, rn.succ}
		a.edgeCopy[key] = append(a.edgeCopy[key], EdgeCopy{
			Arg: rn.arg, Param: rn.param, Src: src, Dst: dst,
		})
	}
	for _, cl := range g.cloneLinks {
		src, ok1 := a.locOf(cl.s, cl.sLoc)
		dst, ok2 := a.locOf(cl.d, cl.dLoc)
		if ok1 && ok2 && src != dst {
			a.cloneCopy[cloneCopyKey{d: cl.d, s: cl.s}] = true
		}
	}
	return a, nil
}

func dedupe(in []locID) []locID {
	out := in[:0]
	for i, x := range in {
		if i == 0 || x != in[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// TransitSlot returns a scratch slot reserved for composite moves that
// pass through memory without a resident spill value.
func (a *Assignment) TransitSlot() int {
	if a.transitSlot == 0 {
		a.NumSpillSlots++
		a.transitSlot = a.NumSpillSlots // slot index NumSpillSlots-1
	}
	return a.transitSlot - 1
}

// EdgeCopies returns the parameter-passing copies needed on the given
// control edge (a parallel copy group; the emitter sequentializes it).
func (a *Assignment) EdgeCopies(pred, succ mir.BlockID) []EdgeCopy {
	return a.edgeCopy[[2]mir.BlockID{pred, succ}]
}

// CloneNeedsCopy reports whether the clone instruction d = clone(s)
// requires a physical copy (the paper's "not always are all copies
// required" — coalescing removed the rest).
func (a *Assignment) CloneNeedsCopy(d, s mir.Temp) bool {
	return a.cloneCopy[cloneCopyKey{d: d, s: s}]
}

// NumEdgeCopies counts residual parameter-passing copies.
func (a *Assignment) NumEdgeCopies() int {
	n := 0
	for _, cs := range a.edgeCopy {
		n += len(cs)
	}
	return n
}

// FreeXferReg finds a transfer-bank register unoccupied at point p —
// the spare register the §9 needsSpill constraint guaranteed for spill
// traffic through L or S.
func (a *Assignment) FreeXferReg(p int, bank Bank) (int, bool) {
	g := a.res.graph
	used := map[int]bool{}
	for _, list := range [][]locEntry{g.beforeLocs[p], g.afterLocs[p]} {
		for _, le := range list {
			root := g.find(le.loc)
			if a.res.bankOf[root] != bank {
				continue
			}
			if c, ok := a.res.ColorOf[le.v][bank]; ok {
				used[c] = true
			}
		}
	}
	for r := 0; r < XRegs; r++ {
		if !used[r] {
			return r, true
		}
	}
	return 0, false
}

// smallestLast orders nodes by repeatedly removing a minimum-degree
// node; reversing gives a good greedy coloring order.
func smallestLast(nodes []locID, adj map[locID]map[locID]bool) []locID {
	inSet := map[locID]bool{}
	for _, n := range nodes {
		inSet[n] = true
	}
	deg := map[locID]int{}
	removed := map[locID]bool{}
	for _, n := range nodes {
		d := 0
		for m := range adj[n] {
			if inSet[m] {
				d++
			}
		}
		deg[n] = d
	}
	var order []locID
	for len(order) < len(nodes) {
		best := locID(-1)
		bestDeg := 1 << 30
		for _, n := range nodes {
			if !removed[n] && deg[n] < bestDeg {
				best, bestDeg = n, deg[n]
			}
		}
		removed[best] = true
		order = append(order, best)
		for m := range adj[best] {
			if inSet[m] && !removed[m] {
				deg[m]--
			}
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Loc is a fully physical location.
type Loc struct {
	Bank Bank
	Reg  int // register index, or spill-slot offset when Bank == M
}

// LocAfter returns v's physical location immediately after any move at
// point p.
func (a *Assignment) LocAfter(v mir.Temp, p int) (Loc, bool) {
	g := a.res.graph
	l := g.activeLocAt(v, pointID(p))
	if l < 0 {
		return Loc{}, false
	}
	return a.locOf(v, l)
}

// LocBefore returns v's physical location just before any move at p.
func (a *Assignment) LocBefore(v mir.Temp, p int) (Loc, bool) {
	g := a.res.graph
	l := g.beforeLocAt(v, pointID(p))
	if l < 0 {
		return Loc{}, false
	}
	return a.locOf(v, l)
}

func (a *Assignment) locOf(v mir.Temp, l locID) (Loc, bool) {
	g := a.res.graph
	root := g.find(l)
	b := a.res.bankOf[root]
	switch {
	case b == A || b == B:
		return Loc{Bank: b, Reg: a.reg[a.find(l)]}, true
	case b.IsXfer():
		c, ok := a.res.ColorOf[v][b]
		if !ok {
			return Loc{}, false
		}
		return Loc{Bank: b, Reg: c}, true
	case b == M:
		node := a.find(l)
		slot, ok := a.spillSlot[node]
		if !ok {
			// A value that starts life spilled (rare); allocate lazily.
			slot = a.NumSpillSlots
			a.NumSpillSlots++
			a.spillSlot[node] = slot
		}
		return Loc{Bank: M, Reg: slot}, true
	case b == C:
		return Loc{Bank: C}, true
	}
	return Loc{}, false
}
