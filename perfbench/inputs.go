package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sre/internal/config"
	"sre/internal/route"
	"sre/internal/topology"
	"sre/internal/workload"
)

// Probability requirements use one failure model everywhere. The node
// failure probability is small enough that the NetDice substitute's
// node enumeration stops at the no-node-failure class (its tail over
// 45 routers is below half its 1e-4 imprecision), yet every query still
// takes SRE's node-composition path (ProbabilityWithNodes).
const (
	pLink = 0.0001
	pNode = 0.000001
)

// spec is one workload's fixed shape: the failure budget, how the
// verifier runs, and how its inputs are drawn from the seed.
type spec struct {
	name        string
	k           int
	parallelism int // in-process Options.Parallelism
	workers     int // Options.Workers (0 = in-process)
	store       bool
}

var specs = []spec{
	{name: "wan-reverify", k: 1, parallelism: 2, store: true},
	{name: "fabric-fleet", k: 1, parallelism: 2, workers: 2},
}

func specFor(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// jobInput is the text one verification job receives, plus the parsed
// network and pairs the reference oracle works from. The program under
// test only ever sees text and reqs.
type jobInput struct {
	label string // "base" or the edit kind
	net   *config.Network
	text  string
	reqs  string
	pairs []pair
	// probSample indexes the pairs whose probability is checked against
	// the NetDice substitute.
	probSample []int
}

// pair is one (source, prefix) pair with its seeded waypoint; it
// expands to four requirements, in kinds order.
type pair struct {
	src, via topology.RouterID
	prefix   route.Prefix
}

var kinds = []string{"reach", "waypoint", "probability", "loadbalance"}

// inputs is everything a run needs, drawn from the seed.
type inputs struct {
	spec spec
	seed int64
	// base is the unedited network (for wan-reverify, the network the
	// store is warmed with).
	base     *config.Network
	baseText string
	// jobs is the cycle of job inputs: one for the verify workloads,
	// one per edit for wan-reverify.
	jobs []jobInput
}

const probSampleSize = 16

// generate draws a workload's inputs from the seed.
func generate(sp spec, seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{spec: sp, seed: seed}
	switch sp.name {
	case "fabric-fleet":
		// FatTree(6): 45 routers, 108 links, 18 edge prefixes, the same
		// for every seed, with every (source, prefix) pair checked. The
		// seed draws the waypoints and the oracle's samples. A seeded
		// sample of pairs would move the query percentiles from seed to
		// seed: latencies differ by pair, and the p90 falls where few
		// queries lie.
		net := workload.FatTree(6, workload.BGP)
		var pairs []pair
		for _, pfx := range net.AllPrefixes() {
			for s := 0; s < net.Topology.NumRouters(); s++ {
				pairs = append(pairs, pair{src: topology.RouterID(s), prefix: pfx})
			}
		}
		in.base = net
		in.jobs = []jobInput{newJob(r, "base", net, pairs, sp.k)}
	case "wan-reverify":
		// The Bics-shaped WAN (33 routers, 48 links, 33 prefixes) is the
		// same for every seed: WANs drawn per seed differ so much in
		// difficulty that job time spread ±35% between seeds. The seed
		// draws the edits. Each job checks every source towards three
		// prefixes: the edit's own (while it is still originated) and
		// seeded others.
		net := workload.WAN(workload.Bics, workload.BGP)
		in.base = net
		for _, e := range seededEdits(r, net) {
			edited := net.Clone()
			e.apply(edited)
			prefixes := edited.AllPrefixes()
			var focus []route.Prefix
			for _, p := range e.prefixes {
				if len(edited.OriginsOf(p)) > 0 {
					focus = append(focus, p)
				}
			}
			for _, p := range samplePrefixes(r, prefixes, 3) {
				if len(focus) < 3 && !containsPrefix(focus, p) {
					focus = append(focus, p)
				}
			}
			var pairs []pair
			for _, pfx := range focus {
				for s := 0; s < edited.Topology.NumRouters(); s++ {
					pairs = append(pairs, pair{src: topology.RouterID(s), prefix: pfx})
				}
			}
			in.jobs = append(in.jobs, newJob(r, e.kind, edited, pairs, sp.k))
		}
	}
	in.baseText = config.Format(in.base)
	return in
}

// newJob assigns seeded waypoints and the probability sample, and
// renders the config and requirement text.
func newJob(r *rand.Rand, label string, net *config.Network, pairs []pair, k int) jobInput {
	n := net.Topology.NumRouters()
	for i := range pairs {
		pairs[i].via = topology.RouterID(r.Intn(n))
	}
	j := jobInput{label: label, net: net, text: config.Format(net), pairs: pairs}
	perm := r.Perm(len(pairs))
	if len(perm) > probSampleSize {
		perm = perm[:probSampleSize]
	}
	sort.Ints(perm)
	j.probSample = perm
	var b strings.Builder
	name := net.Topology.Name
	for _, p := range pairs {
		s := name(p.src)
		fmt.Fprintf(&b, "reach %s %s tolerance>=%d\n", s, p.prefix, k)
		fmt.Fprintf(&b, "waypoint %s %s via %s tolerance>=0\n", s, p.prefix, name(p.via))
		fmt.Fprintf(&b, "probability %s %s >=0.999 plink=%g pnode=%g\n", s, p.prefix, pLink, pNode)
		fmt.Fprintf(&b, "loadbalance %s %s paths>=2\n", s, p.prefix)
	}
	j.reqs = b.String()
	return j
}

func samplePrefixes(r *rand.Rand, prefixes []route.Prefix, n int) []route.Prefix {
	perm := r.Perm(len(prefixes))
	var out []route.Prefix
	for _, i := range perm {
		if len(out) == n {
			break
		}
		out = append(out, prefixes[i])
	}
	return out
}

func containsPrefix(ps []route.Prefix, p route.Prefix) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// edit is one atomic configuration change of the §8.3 experiment,
// with seeded participants and values.
type edit struct {
	kind  string
	apply func(n *config.Network)
	// prefixes are the prefixes the edit is about; the job's
	// requirements always cover those still originated.
	prefixes []route.Prefix
}

// seededEdits returns one edit of each of nine of the ten change kinds,
// in a seeded order. Each draws its own router pair (r0, r1 adjacent
// over link l, r0 with a second "backup" link) and values. Seven kinds
// change policy (ACLs, route-maps), which every prefix's cache key
// covers; withdraw and announce change one prefix's origin.
//
// add-static-route is left out: the concrete simulator the oracle runs
// drops a configured static route once the static's next hop
// advertises the same prefix over BGP (sim's removeStale matches
// candidates by next hop, link and protocol name only), so its verdicts
// disagree with SRE's on that edit. raise-local-pref raises the
// preference of r1's own prefix only: raising it for every route from
// r1 can give the network two stable BGP states (a dispute wheel), and
// SRE and the simulator may then settle in different ones.
func seededEdits(r *rand.Rand, net *config.Network) []edit {
	t := net.Topology
	pick := func() (r0, r1 topology.RouterID, l, backup topology.LinkID, pfx1 route.Prefix) {
		r0 = topology.RouterID(r.Intn(t.NumRouters()))
		links := t.Router(r0).Links
		i := r.Intn(len(links))
		l = links[i]
		backup = links[(i+1)%len(links)]
		r1 = t.Link(l).Other(r0)
		return r0, r1, l, backup, workload.RouterPrefix(int(r1))
	}
	denyPrefix := func(p route.Prefix) *config.RouteMap {
		return &config.RouteMap{Clauses: []*config.Clause{
			{Seq: 10, Action: config.Deny, MatchPrefix: &config.PrefixMatch{Prefix: p}},
			{Seq: 20, Action: config.Permit},
		}}
	}
	aclDeny := func(p route.Prefix) *config.ACL {
		return &config.ACL{Entries: []config.ACLEntry{
			{Action: config.Deny, Prefix: p},
			{Action: config.Permit, Any: true},
		}}
	}
	var out []edit
	for _, kind := range []string{
		"add-acl-deny", "add-acl-backup-path", "export-deny-prefix", "import-deny-prefix",
		"raise-local-pref", "prepend-as-path", "withdraw-network",
		"announce-new-network", "add-community-filter",
	} {
		r0, r1, l, backup, pfx1 := pick()
		n0, n1 := t.Name(r0), t.Name(r1)
		e := edit{kind: kind, prefixes: []route.Prefix{pfx1}}
		switch kind {
		case "add-acl-deny":
			e.apply = func(n *config.Network) { n.Router(r1).Interface(l).ACLIn = aclDeny(pfx1) }
		case "add-acl-backup-path":
			e.apply = func(n *config.Network) { n.Router(r0).Interface(backup).ACLOut = aclDeny(pfx1) }
		case "export-deny-prefix":
			e.apply = func(n *config.Network) {
				rc := n.Router(r1)
				rc.RouteMaps["DENY0"] = denyPrefix(pfx1)
				rc.BGP.ExportPolicy[n0] = "DENY0"
			}
		case "import-deny-prefix":
			e.apply = func(n *config.Network) {
				rc := n.Router(r0)
				rc.RouteMaps["IDENY"] = denyPrefix(pfx1)
				rc.BGP.ImportPolicy[n1] = "IDENY"
			}
		case "raise-local-pref":
			lp := 150 + 50*r.Intn(4)
			e.apply = func(n *config.Network) {
				rc := n.Router(r0)
				rc.RouteMaps["LP"] = &config.RouteMap{Clauses: []*config.Clause{
					{Seq: 10, Action: config.Permit, MatchPrefix: &config.PrefixMatch{Prefix: pfx1}, SetLocalPref: lp},
					{Seq: 20, Action: config.Permit}}}
				rc.BGP.ImportPolicy[n1] = "LP"
			}
		case "prepend-as-path":
			times := 1 + r.Intn(3)
			e.apply = func(n *config.Network) {
				rc := n.Router(r1)
				rc.RouteMaps["PREP"] = &config.RouteMap{Clauses: []*config.Clause{
					{Seq: 10, Action: config.Permit, PrependAS: times}}}
				rc.BGP.ExportPolicy[n0] = "PREP"
			}
		case "withdraw-network":
			e.apply = func(n *config.Network) { n.Router(r1).BGP.Networks = nil }
		case "announce-new-network":
			fresh := route.Prefix{Addr: 172<<24 | uint32(16+r.Intn(16))<<16, Len: 16}
			e.prefixes = []route.Prefix{fresh}
			e.apply = func(n *config.Network) {
				rc := n.Router(r1)
				rc.BGP.Networks = append(rc.BGP.Networks, fresh)
			}
		case "add-community-filter":
			tag := uint64(100 + r.Intn(900))
			e.apply = func(n *config.Network) {
				src := n.Router(r1)
				src.RouteMaps["TAG"] = &config.RouteMap{Clauses: []*config.Clause{
					{Seq: 10, Action: config.Permit, AddCommunity: tag}}}
				src.BGP.ExportPolicy[n0] = "TAG"
				dst := n.Router(r0)
				dst.RouteMaps["DROPTAG"] = &config.RouteMap{Clauses: []*config.Clause{
					{Seq: 10, Action: config.Deny, MatchCommunity: tag},
					{Seq: 20, Action: config.Permit}}}
				dst.BGP.ImportPolicy[n1] = "DROPTAG"
			}
		}
		out = append(out, e)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
