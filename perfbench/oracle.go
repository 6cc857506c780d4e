package main

// The reference oracle: concrete verdicts for every requirement, computed
// without SRE. Tolerance, waypoint and loadbalance verdicts come from
// per-scenario concrete simulation (internal/sim), the method of the
// Batfish substitute in internal/baselines: enumerate failure sets, run
// the control plane to a fixed point, and walk the forwarding state.
// Probability verdicts on a seeded sample come from the NetDice
// substitute. Each prefix is simulated on a slice of the network that
// originates only that prefix (the generated networks have disjoint,
// unaggregated prefixes, so each prefix routes independently); one such
// simulation costs 20 to 50 times less than one of the whole network.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"sre"
	"sre/internal/baselines"
	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/sim"
	"sre/internal/topology"
)

// prefixTable holds the concrete verdicts of one prefix for every
// source (and every waypoint), from all failure sets of size <= Depth.
type prefixTable struct {
	Depth int `json:"depth"`
	// BreakReach[s] is the size of the smallest failure set that stops
	// s reaching the prefix, or -1 when none of size <= Depth does.
	BreakReach []int `json:"break_reach"`
	// BreakVia[s][w] is the same for "reaches the prefix through w".
	BreakVia [][]int `json:"break_via"`
	// Paths[s] counts the delivering forwarding paths with all links up.
	Paths       []int `json:"paths"`
	Simulations int   `json:"simulations"`
}

// want is the reference verdict of one requirement.
type want struct {
	Kind string `json:"kind"`
	// Tolerance kinds: when Exact, SRE must report Tol; otherwise no
	// failure set of size <= AtLeast breaks the property and SRE must
	// report at least AtLeast.
	Exact   bool `json:"exact,omitempty"`
	Tol     int  `json:"tol,omitempty"`
	AtLeast int  `json:"at_least,omitempty"`
	// Loadbalance.
	Paths int `json:"paths,omitempty"`
	// Probability: when Checked, the value must lie in [PLo, PHi].
	Checked bool    `json:"checked,omitempty"`
	PLo     float64 `json:"p_lo,omitempty"`
	PHi     float64 `json:"p_hi,omitempty"`
}

// reference is the oracle's output for one (workload, seed).
type reference struct {
	Key  string   `json:"key"`
	Jobs [][]want `json:"jobs"` // per job input, per requirement
	// Coverage counts what was checked, for the report.
	Simulations    int `json:"simulations"`
	Prefixes       int `json:"prefixes"`
	NetDiceChecked int `json:"netdice_checked"`
}

// oracleVersion changes whenever the reference logic does, so cached
// references from an older oracle are recomputed.
const oracleVersion = 3

// inputKey fingerprints the inputs a reference was computed for, so a
// cached reference is never applied to other inputs.
func inputKey(in *inputs) string {
	h := sha256.New()
	fmt.Fprintf(h, "oracle v%d %s %d k=%d\n", oracleVersion, in.spec.name, in.seed, in.spec.k)
	for _, j := range in.jobs {
		fmt.Fprintf(h, "%s\n%s\n%s\n%v\n", j.label, j.text, j.reqs, j.probSample)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadOrBuildReference returns the cached reference for the inputs, or
// computes and caches it.
func loadOrBuildReference(in *inputs, dir string) (*reference, error) {
	key := inputKey(in)
	path := filepath.Join(dir, "ref", fmt.Sprintf("%s-%d.json", in.spec.name, in.seed))
	if b, err := os.ReadFile(path); err == nil {
		var ref reference
		if json.Unmarshal(b, &ref) == nil && ref.Key == key {
			return &ref, nil
		}
	}
	ref, err := buildReference(in, filepath.Join(dir, "ref", "tables"))
	if err != nil {
		return nil, err
	}
	ref.Key = key
	if err := writeJSON(path, ref); err != nil {
		return nil, err
	}
	return ref, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// buildReference computes every job's reference verdicts, running the
// per-prefix simulations and NetDice queries on two goroutines.
func buildReference(in *inputs, tableDir string) (*reference, error) {
	type tableKey struct {
		job int
		pfx route.Prefix
	}
	type ndKey struct{ job, pair int }
	tables := make(map[tableKey]*prefixTable)
	nd := make(map[ndKey][2]float64)
	var tasks []func() error
	var mu sync.Mutex
	ref := &reference{}
	for ji, j := range in.jobs {
		ji, j := ji, j
		seen := map[route.Prefix]bool{}
		for _, p := range j.pairs {
			if seen[p.prefix] {
				continue
			}
			seen[p.prefix] = true
			pfx := p.prefix
			ref.Prefixes++
			tasks = append(tasks, func() error {
				tab, err := cachedTable(j.net, pfx, in.spec.k, tableDir)
				if err != nil {
					return err
				}
				mu.Lock()
				tables[tableKey{ji, pfx}] = tab
				ref.Simulations += tab.Simulations
				mu.Unlock()
				return nil
			})
		}
		for _, pi := range j.probSample {
			pi := pi
			p := j.pairs[pi]
			tasks = append(tasks, func() error {
				d := &baselines.NetDice{Net: sliceNet(j.net, p.prefix), PLinkDown: pLink}
				total, left := d.ReachabilityWithNodes(p.src, p.prefix, pNode)
				if d.Err != nil {
					return fmt.Errorf("netdice %s -> %s: %w", j.net.Topology.Name(p.src), p.prefix, d.Err)
				}
				mu.Lock()
				nd[ndKey{ji, pi}] = [2]float64{total, left}
				ref.Simulations += d.Explorations
				mu.Unlock()
				return nil
			})
		}
	}
	if err := runParallel(tasks, 2); err != nil {
		return nil, err
	}
	for ji, j := range in.jobs {
		t := j.net.Topology
		// Mass the NetDice substitute leaves out of its reported
		// imprecision: node-failure classes it did not enumerate.
		nodeMass := 1 - math.Pow(1-pNode, float64(t.NumRouters()))
		// SRE's probability is a lower bound; its error is below the
		// chance of more than k failed links (§7.1). A failed node takes
		// its links down with it, so add the node mass.
		sreTail := binomTail(t.NumLinks(), in.spec.k, pLink) + nodeMass
		// The substitute counts a scenario class whose packet is dropped
		// with its free links up as contributing nothing. With an ACL on
		// the path, failing a further link can reroute around it, so
		// such a class can still deliver, but only when another link
		// fails: bound its share by that chance.
		anyFailure := 1 - math.Pow(1-pLink, float64(t.NumLinks()))
		var ws []want
		for pi, p := range j.pairs {
			tab := tables[tableKey{ji, p.prefix}]
			for _, kind := range kinds {
				w := want{Kind: kind}
				switch kind {
				case "reach":
					w.setTolerance(tab.BreakReach[p.src], tab.Depth)
				case "waypoint":
					w.setTolerance(tab.BreakVia[p.src][p.via], tab.Depth)
				case "loadbalance":
					w.Paths = tab.Paths[p.src]
				case "probability":
					if v, ok := nd[ndKey{ji, pi}]; ok {
						w.Checked = true
						w.PLo = v[0] - sreTail
						w.PHi = v[0] + v[1] + nodeMass + math.Max(0, 1-v[0]-v[1])*anyFailure
						ref.NetDiceChecked++
					}
				}
				ws = append(ws, w)
			}
		}
		ref.Jobs = append(ref.Jobs, ws)
	}
	return ref, nil
}

func (w *want) setTolerance(breakAt, depth int) {
	if breakAt >= 0 {
		w.Exact, w.Tol = true, breakAt-1
	} else {
		w.AtLeast = depth
	}
}

// runParallel runs tasks on n goroutines and returns the first error.
func runParallel(tasks []func() error, n int) error {
	ch := make(chan func() error)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for t := range ch {
				if err := t(); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cachedTable returns the prefix table for the prefix's slice of net,
// from the table cache when an identical slice was simulated before
// (the fabric is the same for every seed).
func cachedTable(net *config.Network, pfx route.Prefix, depth int, dir string) (*prefixTable, error) {
	slice := sliceNet(net, pfx)
	h := sha256.Sum256([]byte(fmt.Sprintf("table v1 %s depth=%d\n%s", pfx, depth, config.Format(slice))))
	path := filepath.Join(dir, hex.EncodeToString(h[:])+".json")
	if b, err := os.ReadFile(path); err == nil {
		var tab prefixTable
		if json.Unmarshal(b, &tab) == nil && tab.Depth == depth {
			return &tab, nil
		}
	}
	tab, err := simulateTable(slice, pfx, depth)
	if err != nil {
		return nil, err
	}
	return tab, writeJSON(path, tab)
}

// sliceNet clones net keeping only pfx's origination (and statics and
// aggregates overlapping it); policy and topology stay whole.
func sliceNet(net *config.Network, pfx route.Prefix) *config.Network {
	eq := func(ps []route.Prefix) []route.Prefix {
		var out []route.Prefix
		for _, p := range ps {
			if p == pfx {
				out = append(out, p)
			}
		}
		return out
	}
	cp := net.Clone()
	for _, rc := range cp.Routers {
		if rc.BGP != nil {
			rc.BGP.Networks = eq(rc.BGP.Networks)
			var aggs []route.Prefix
			for _, a := range rc.BGP.Aggregates {
				if a.Overlaps(pfx) {
					aggs = append(aggs, a)
				}
			}
			rc.BGP.Aggregates = aggs
		}
		if rc.OSPF != nil {
			rc.OSPF.Networks = eq(rc.OSPF.Networks)
		}
		var statics []config.StaticRoute
		for _, s := range rc.Static {
			if s.Prefix.Overlaps(pfx) {
				statics = append(statics, s)
			}
		}
		rc.Static = statics
	}
	return cp
}

// simulateTable simulates every failure set of size <= depth, smallest
// first, so the first failure set that breaks a property is a smallest.
func simulateTable(net *config.Network, pfx route.Prefix, depth int) (*prefixTable, error) {
	t := net.Topology
	n := t.NumRouters()
	origins := make(map[topology.RouterID]bool)
	for _, o := range net.OriginsOf(pfx) {
		origins[o] = true
	}
	tab := &prefixTable{Depth: depth, BreakReach: make([]int, n), BreakVia: make([][]int, n), Paths: make([]int, n)}
	for s := range tab.BreakReach {
		tab.BreakReach[s] = -1
		tab.BreakVia[s] = make([]int, n)
		for w := range tab.BreakVia[s] {
			tab.BreakVia[s][w] = -1
		}
	}
	var down []topology.LinkID
	visit := func() error {
		res, err := sim.Simulate(net, sim.NewScenario(down...))
		if err != nil {
			return fmt.Errorf("simulating %s with %d links down: %w", pfx, len(down), err)
		}
		tab.Simulations++
		size := len(down)
		for s := 0; s < n; s++ {
			src := topology.RouterID(s)
			if size == 0 {
				tab.Paths[s] = countPaths(res, pfx, src, origins, map[topology.RouterID]bool{})
			}
			hot, ok := res.HotLinks(src, pfx.Addr, origins)
			if !ok {
				if tab.BreakReach[s] < 0 {
					tab.BreakReach[s] = size
				}
			}
			// A router lies on a delivering branch exactly when it is
			// the source or an endpoint of a hot link.
			on := map[topology.RouterID]bool{src: ok}
			for l := range hot {
				on[t.Link(l).A], on[t.Link(l).B] = true, true
			}
			for w := 0; w < n; w++ {
				if !on[topology.RouterID(w)] && tab.BreakVia[s][w] < 0 {
					tab.BreakVia[s][w] = size
				}
			}
		}
		return nil
	}
	var comb func(start, left int) error
	comb = func(start, left int) error {
		if left == 0 {
			return visit()
		}
		for l := start; l < t.NumLinks(); l++ {
			down = append(down, topology.LinkID(l))
			if err := comb(l+1, left-1); err != nil {
				return err
			}
			down = down[:len(down)-1]
		}
		return nil
	}
	for size := 0; size <= depth; size++ {
		if err := comb(0, size); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// countPaths counts the loop-free forwarding paths from r that deliver
// a packet for pfx at an origin, following every ECMP next hop and the
// interface ACLs, like sim's own forwarding walk.
func countPaths(res *sim.Result, pfx route.Prefix, r topology.RouterID, dst map[topology.RouterID]bool, onPath map[topology.RouterID]bool) int {
	if onPath[r] {
		return 0
	}
	tier := res.RIB(r, pfx)
	for _, rt := range tier {
		if rt.EgressLink < 0 && !rt.Aggregate && dst[r] {
			return 1
		}
	}
	onPath[r] = true
	defer delete(onPath, r)
	net := res.Net
	rc := net.Router(r)
	seen := map[topology.LinkID]bool{}
	total := 0
	for _, rt := range tier {
		if rt.EgressLink < 0 {
			continue
		}
		lid := topology.LinkID(rt.EgressLink)
		if seen[lid] || !res.Sc.Up(lid) {
			continue
		}
		seen[lid] = true
		if itf, ok := rc.Interfaces[lid]; ok && itf.ACLOut != nil && !itf.ACLOut.PermitsAddr(pfx.Addr) {
			continue
		}
		nbr := net.Topology.Link(lid).Other(r)
		if itf, ok := net.Router(nbr).Interfaces[lid]; ok && itf.ACLIn != nil && !itf.ACLIn.PermitsAddr(pfx.Addr) {
			continue
		}
		total += countPaths(res, pfx, nbr, dst, onPath)
	}
	return total
}

// binomTail is P(X > k) for X ~ Binomial(n, p).
func binomTail(n, k int, p float64) float64 {
	cum, c := 0.0, 1.0
	for m := 0; m <= k && m <= n; m++ {
		if m > 0 {
			c = c * float64(n-m+1) / float64(m)
		}
		cum += c * math.Pow(p, float64(m)) * math.Pow(1-p, float64(n-m))
	}
	return math.Max(0, 1-cum)
}

// probSlack absorbs the six decimals RequirementResult.Got prints.
const probSlack = 1e-6

// wrong reports whether a requirement result disagrees with the
// reference. A result carrying Err is a failed operation, not a wrong
// verdict; the caller counts it separately.
func (w want) wrong(res sre.RequirementResult) bool {
	if res.Err != nil {
		return false
	}
	req := res.Req
	switch w.Kind {
	case "reach", "waypoint":
		k := sre.InfiniteTolerance
		if res.Got != "inf" {
			v, err := strconv.Atoi(res.Got)
			if err != nil {
				return true
			}
			k = v
		}
		if w.Exact && k != w.Tol || !w.Exact && k < w.AtLeast {
			return true
		}
		return res.Holds != (k >= req.MinK)
	case "loadbalance":
		n, err := strconv.Atoi(res.Got)
		return err != nil || n != w.Paths || res.Holds != (n >= req.MinPaths)
	case "probability":
		p, err := strconv.ParseFloat(res.Got, 64)
		if err != nil || p < -probSlack || p > 1+probSlack {
			return true
		}
		if w.Checked && (p < w.PLo-probSlack || p > w.PHi+probSlack) {
			return true
		}
		// Holds compares the unrounded value; only check it away from
		// the rounding band.
		if math.Abs(p-req.MinP) > probSlack && res.Holds != (p >= req.MinP) {
			return true
		}
		return false
	}
	return true
}

// flipped returns a copy of w whose expected verdict differs from any
// result w accepts; the self-check uses it.
func (w want) flipped() want {
	switch w.Kind {
	case "reach", "waypoint":
		if w.Exact {
			w.Tol++
		} else {
			w.Exact, w.Tol = true, -1
		}
	case "loadbalance":
		w.Paths++
	case "probability":
		w.Checked, w.PLo, w.PHi = true, 2, 3
	}
	return w
}

// countWrong compares one job's results with its reference verdicts.
func countWrong(ws []want, results []sre.RequirementResult) int {
	if len(ws) != len(results) {
		return len(results) + 1
	}
	n := 0
	for i, res := range results {
		if ws[i].wrong(res) {
			n++
		}
	}
	return n
}

// selfCheck flips one expected verdict of every kind in turn and
// confirms the comparison then reports exactly one more wrong verdict.
func selfCheck(ws []want, results []sre.RequirementResult) error {
	base := countWrong(ws, results)
	done := map[string]bool{}
	for i := range ws {
		if done[ws[i].Kind] || results[i].Err != nil {
			continue
		}
		done[ws[i].Kind] = true
		cp := append([]want(nil), ws...)
		cp[i] = cp[i].flipped()
		if got := countWrong(cp, results); got != base+1 {
			return fmt.Errorf("self-check: flipping the expected %s verdict of requirement %d gave %d wrong verdicts, want %d", ws[i].Kind, i, got, base+1)
		}
	}
	return nil
}
