package main

// The traced replay: each job again, as calls from this file into each
// layer's public functions, with a span around every call. Spans stay in
// memory and are written out when the run ends. At every span boundary
// the tracer also samples runtime/metrics, so allocation and GC CPU can
// be attributed to the innermost spans open at the time.

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"time"

	"sre"
	"sre/internal/analysis"
	"sre/internal/bdd"
	"sre/internal/config"
	"sre/internal/coord"
	"sre/internal/prob"
	"sre/internal/route"
	"sre/internal/spf"
	"sre/internal/src"
	"sre/internal/store"
	"sre/internal/symbol"
	"sre/internal/topology"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer's epoch; Alloc (bytes) and GCCPU (seconds) are the runtime
// deltas attributed to the span while it was innermost.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for roots
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Alloc  float64 `json:"alloc_bytes"`
	GCCPU  float64 `json:"gc_cpu_s"`
}

type boundary struct {
	t     int64
	id    int
	open  bool
	alloc float64
	gc    float64
}

type tracer struct {
	mu         sync.Mutex
	epoch      time.Time
	spans      []span
	boundaries []boundary
	samples    []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}}
}

func (tr *tracer) mark(id int, open bool) int64 {
	metrics.Read(tr.samples)
	b := boundary{t: time.Since(tr.epoch).Nanoseconds(), id: id, open: open}
	if tr.samples[0].Value.Kind() == metrics.KindUint64 {
		b.alloc = float64(tr.samples[0].Value.Uint64())
	}
	if tr.samples[1].Value.Kind() == metrics.KindFloat64 {
		b.gc = tr.samples[1].Value.Float64()
	}
	tr.boundaries = append(tr.boundaries, b)
	return b.t
}

// begin opens a span and returns its id.
func (tr *tracer) begin(name string, job, parent int) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Job: job, Name: name})
	tr.spans[id].Start = tr.mark(id, true)
	return id
}

func (tr *tracer) end(id int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = tr.mark(id, false)
}

// do runs f inside a span.
func (tr *tracer) do(name string, job, parent int, f func()) int {
	id := tr.begin(name, job, parent)
	f()
	tr.end(id)
	return id
}

// attribute splits the runtime deltas between consecutive boundaries
// evenly over the spans innermost at the time (open, with no open
// child). Deltas while no span is open belong to no job and are dropped.
func (tr *tracer) attribute() {
	open := map[int]bool{}
	openKids := map[int]int{}
	for i := 0; i+1 < len(tr.boundaries); i++ {
		b := tr.boundaries[i]
		p := tr.spans[b.id].Parent
		if b.open {
			open[b.id] = true
			if p >= 0 {
				openKids[p]++
			}
		} else {
			delete(open, b.id)
			if p >= 0 {
				openKids[p]--
			}
		}
		next := tr.boundaries[i+1]
		da, dg := next.alloc-b.alloc, next.gc-b.gc
		var leaves []int
		for id := range open {
			if openKids[id] == 0 {
				leaves = append(leaves, id)
			}
		}
		for _, id := range leaves {
			tr.spans[id].Alloc += da / float64(len(leaves))
			tr.spans[id].GCCPU += dg / float64(len(leaves))
		}
	}
}

// selfTimes returns each span's duration minus the part of it its
// children cover (children may overlap when they ran concurrently).
func (tr *tracer) selfTimes() []int64 {
	kids := make(map[int][]int)
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return tr.spans[iv[a]].Start < tr.spans[iv[b]].Start })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, k := range iv {
			c := tr.spans[k]
			if c.Start > curE {
				covered += curE - curS
				curS, curE = c.Start, c.End
			} else if c.End > curE {
				curE = c.End
			}
		}
		covered += curE - curS
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerOf maps a span name to the layer it times.
func layerOf(name string) string {
	switch name {
	case "config.parse":
		return "config"
	case "order.compute":
		return "order"
	case "symbol.new_space":
		return "symbol"
	case "src.run":
		return "src"
	case "spf.forward":
		return "spf"
	case "bdd.encode", "bdd.decode", "bdd.release":
		return "bdd"
	case "store.get", "store.put":
		return "store"
	case "coord.run":
		return "coord"
	case "sched.task":
		return "sched"
	case "job":
		return "unattributed"
	}
	return "analysis" // prefix_cost, cache_key, query.*
}

var runtimeLayers = []string{"config", "order", "symbol", "src", "spf", "analysis", "bdd", "store", "coord", "sched", "unattributed"}

// replay holds what the traced jobs need beyond the job text.
type replay struct {
	sp       spec
	tr       *tracer
	st       *storeState
	opts     src.Options
	stats    []replayJob
	whole    map[string]int64 // job label -> whole-network SRC activations
	mismatch []string
}

// replayJob collects one traced job's counters.
type replayJob struct {
	id             int
	activations    int64
	routesImported int64
	pfecs          map[route.Prefix]int
	peakNodes      int
	cacheHits      uint64
	cacheLookups   uint64
	gcRuns         int
	gets, hits     int
	bytesWritten   int64
	wireBytes      int64
	taskNS         int64   // in-process RunPrefixTask time (fleet mirror)
	srcMS, spfMS   float64 // fleet mirror: the pipelines' own stage timers
	wholeActs      int64
	queryMS        map[string][]float64
}

func newReplay(sp spec, st *storeState) *replay {
	return &replay{sp: sp, tr: newTracer(), st: st, whole: map[string]int64{},
		opts: src.Options{PruneK: sp.k, Parallelism: sp.parallelism, VarOrder: "auto"}}
}

// wholeActivations runs SRC once over the whole network (all prefixes
// in one engine): the useful-work baseline of activation_ratio.
func (rp *replay) wholeActivations(j jobInput) (int64, error) {
	if a, ok := rp.whole[j.label]; ok {
		return a, nil
	}
	sp := analysis.NewRunSpace(j.net, rp.opts)
	eng := src.NewWithSpace(j.net, sp, rp.opts)
	if err := eng.Run(); err != nil {
		return 0, err
	}
	a := int64(eng.Statistics().Activations)
	rp.whole[j.label] = a
	return a, nil
}

// prefixTask is one prefix's pipelines in the replay.
type prefixTask struct {
	pfx   route.Prefix
	cost  int64
	key   string
	pipes []*analysis.Pipeline
}

// run replays one job and checks it against the untraced job's verdicts.
func (rp *replay) run(jobID int, j jobInput, want []sre.RequirementResult, wantPFECs map[route.Prefix]int) error {
	tr := rp.tr
	rj := replayJob{id: jobID, pfecs: map[route.Prefix]int{}, queryMS: map[string][]float64{}}
	whole, err := rp.wholeActivations(j)
	if err != nil {
		return err
	}
	rj.wholeActs = whole
	root := tr.begin("job", jobID, -1)
	var net *config.Network
	tr.do("config.parse", jobID, root, func() { net, err = config.ParseString(j.text) })
	if err != nil {
		return err
	}
	reqs, err := sre.ParseRequirementsString(j.reqs)
	if err != nil {
		return err
	}
	tr.do("order.compute", jobID, root, func() { src.LinkOrder(net, rp.opts) })
	domain := net.AllPrefixes()
	tasks := make([]*prefixTask, len(domain))
	for i, pfx := range domain {
		tasks[i] = &prefixTask{pfx: pfx}
	}
	var part *analysis.Partitioned
	byPrefix := map[route.Prefix][]*analysis.Pipeline{}
	var mu sync.Mutex
	if rp.sp.workers > 0 {
		// The coordinator estimates prefix costs itself, inside Run.
		tr.do("coord.run", jobID, root, func() {
			part, err = coord.Run(net, domain, coord.Options{Workers: rp.sp.workers, Verify: rp.opts})
		})
		if err != nil {
			return err
		}
		for _, pfx := range domain {
			byPrefix[pfx] = part.PipelinesFor(pfx)
		}
	} else {
		var todo []*prefixTask
		var cache *store.Store
		if rp.st != nil {
			if cache, err = store.Open(rp.st.dir, store.Options{}); err != nil {
				return err
			}
			// Lookups run first, one prefix after another, like the
			// runner's cache filter; hits decode and skip computation.
			for _, t := range tasks {
				t := t
				tr.do("analysis.cache_key", jobID, root, func() {
					t.key = analysis.CacheKey(net, rp.opts, t.pfx, false, analysis.LadderOptions{})
				})
				var payload []byte
				var hit bool
				tr.do("store.get", jobID, root, func() { payload, hit = cache.Get(t.key) })
				rj.gets++
				if !hit {
					todo = append(todo, t)
					continue
				}
				rj.hits++
				tr.do("bdd.decode", jobID, root, func() {
					var rec analysis.CacheRecord
					if err = json.Unmarshal(payload, &rec); err == nil {
						t.pipes, err = analysis.DecodePipelines(net, rp.opts, rec.Pipes, nil)
					}
				})
				if err != nil {
					return err
				}
				byPrefix[t.pfx] = t.pipes
			}
		} else {
			todo = tasks
		}
		for _, t := range todo {
			t := t
			tr.do("analysis.prefix_cost", jobID, root, func() { t.cost = analysis.PrefixCost(net, t.pfx) })
		}
		sort.SliceStable(todo, func(a, b int) bool { return todo[a].cost > todo[b].cost })
		var runs []func() error
		for _, t := range todo {
			t := t
			runs = append(runs, func() error {
				task := tr.begin("sched.task", jobID, root)
				defer tr.end(task)
				pipe, err := rp.computePrefix(jobID, task, net, t.pfx)
				if err != nil {
					return err
				}
				t.pipes = []*analysis.Pipeline{pipe}
				if cache != nil {
					if err := rp.publish(jobID, task, net, cache, t, &rj, &mu); err != nil {
						return err
					}
				}
				mu.Lock()
				byPrefix[t.pfx] = t.pipes
				mu.Unlock()
				return nil
			})
		}
		if err := runParallel(runs, max(1, rp.sp.parallelism)); err != nil {
			return err
		}
	}
	for _, pfx := range domain {
		for _, p := range byPrefix[pfx] {
			rj.pfecs[pfx] += p.NumPFECs()
		}
	}

	// Queries, one after another like the job's requirement loop.
	var got []sre.RequirementResult
	for _, req := range reqs {
		req := req
		var res sre.RequirementResult
		id := tr.do("analysis.query."+req.Kind, jobID, root, func() { res = query(net, byPrefix, req) })
		s := tr.spans[id]
		rj.queryMS[req.Kind] = append(rj.queryMS[req.Kind], float64(s.End-s.Start)/1e6)
		got = append(got, res)
	}
	if rp.sp.workers == 0 {
		rj.collect(byPrefix)
	}
	tr.do("bdd.release", jobID, root, func() {
		if part != nil {
			part.Release()
			return
		}
		for _, ps := range byPrefix {
			for _, p := range ps {
				p.Release()
			}
		}
	})
	tr.end(root)

	if rp.sp.workers > 0 {
		// The fleet's per-prefix work happens in worker subprocesses,
		// out of sight of this process. Mirror it in-process, outside
		// the job span: the task a worker runs, then the wire encode
		// and decode its result takes.
		if err := rp.mirror(jobID, net, domain, &rj); err != nil {
			return err
		}
	}

	// Fidelity: the replay must have computed what the job computed.
	if len(got) != len(want) {
		return fmt.Errorf("replay answered %d requirements, the job %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.Got != b.Got || a.Holds != b.Holds || (a.Err == nil) != (b.Err == nil) {
			rp.mismatch = append(rp.mismatch, fmt.Sprintf("job %d (%s) requirement %d %s %s %s: replay %q, job %q",
				jobID, j.label, i, a.Req.Kind, a.Req.Src, a.Req.Prefix, a.Got, b.Got))
		}
	}
	for _, pfx := range domain {
		if rj.pfecs[pfx] != wantPFECs[pfx] {
			rp.mismatch = append(rp.mismatch, fmt.Sprintf("job %d (%s) prefix %s: replay %d PFECs, job %d",
				jobID, j.label, pfx, rj.pfecs[pfx], wantPFECs[pfx]))
		}
	}
	rp.stats = append(rp.stats, rj)
	return nil
}

// computePrefix mirrors one per-prefix task of a sharded run
// (analysis.RunScoped with the prefix as scope): a fresh symbolic
// space, SRC over the prefix's domain, then forwarding of the prefix's
// headers from every router.
func (rp *replay) computePrefix(jobID, parent int, net *config.Network, pfx route.Prefix) (*analysis.Pipeline, error) {
	tr := rp.tr
	o := rp.opts
	o.Prefixes = []route.Prefix{pfx}
	for _, other := range net.AllPrefixes() {
		if other != pfx && other.Overlaps(pfx) {
			return nil, fmt.Errorf("prefix %s overlaps %s; the replay mirrors singleton task domains only", pfx, other)
		}
	}
	var sp *symbol.Space
	tr.do("symbol.new_space", jobID, parent, func() { sp = analysis.NewRunSpace(net, o) })
	var eng *src.Engine
	var err error
	t0 := time.Now()
	tr.do("src.run", jobID, parent, func() {
		eng = src.NewWithSpace(net, sp, o)
		err = eng.Run()
	})
	if err != nil {
		return nil, err
	}
	srcTime := time.Since(t0)
	n := net.Topology.NumRouters()
	pfecs := make([][]*spf.PFEC, n)
	var fw *spf.Forwarder
	t0 = time.Now()
	tr.do("spf.forward", jobID, parent, func() {
		if fw, err = spf.NewForwarder(eng); err != nil {
			return
		}
		hdr := sp.Prefix(pfx)
		for r := 0; r < n; r++ {
			if pfecs[r], err = fw.ForwardHeaders(topology.RouterID(r), hdr); err != nil {
				return
			}
			sp.M.MaybeGC(0)
		}
	})
	if err != nil {
		return nil, err
	}
	scope := pfx
	pipe := analysis.NewDecodedPipeline(net, sp, &scope, pfecs, srcTime, time.Since(t0), nil)
	pipe.Eng, pipe.Fw = eng, fw
	return pipe, nil
}

// publish mirrors the runner's cache publication of a computed prefix.
func (rp *replay) publish(jobID, parent int, net *config.Network, cache *store.Store, t *prefixTask, rj *replayJob, mu *sync.Mutex) error {
	var payload []byte
	var err error
	rp.tr.do("bdd.encode", jobID, parent, func() {
		var wps []analysis.WirePipeline
		if wps, err = analysis.EncodePipelines(t.pipes, net); err != nil {
			return
		}
		out := analysis.PrefixOutcome{Prefix: t.pfx, EffectivePruneK: rp.opts.PruneK}
		payload, err = json.Marshal(analysis.CacheRecord{Version: rp.st.version, Prefix: t.pfx.String(),
			Outcome: analysis.OutcomeToWire(out), Pipes: wps})
	})
	if err != nil {
		return err
	}
	rp.tr.do("store.put", jobID, parent, func() { err = cache.Put(t.key, payload) })
	mu.Lock()
	rj.bytesWritten += int64(len(payload))
	rj.wireBytes += int64(len(payload))
	mu.Unlock()
	return err
}

// mirror runs the fleet's per-prefix tasks in-process (outside the job
// span): analysis.RunPrefixTask, then the wire round trip of its result.
func (rp *replay) mirror(jobID int, net *config.Network, domain []route.Prefix, rj *replayJob) error {
	tr := rp.tr
	root := tr.begin("fleet.mirror", jobID, -1)
	defer tr.end(root)
	byPrefix := map[route.Prefix][]*analysis.Pipeline{}
	for _, pfx := range domain {
		var pipes []*analysis.Pipeline
		var err error
		o := rp.opts
		id := tr.do("analysis.run_prefix_task", jobID, root, func() {
			pipes, _, err = analysis.RunPrefixTask(net, o, pfx, false, analysis.LadderOptions{})
		})
		if err != nil {
			return err
		}
		rj.taskNS += tr.spans[id].End - tr.spans[id].Start
		byPrefix[pfx] = pipes
		var b []byte
		tr.do("bdd.encode", jobID, root, func() {
			var wps []analysis.WirePipeline
			if wps, err = analysis.EncodePipelines(pipes, net); err == nil {
				b, err = json.Marshal(wps)
			}
		})
		if err != nil {
			return err
		}
		rj.wireBytes += int64(len(b))
		tr.do("bdd.decode", jobID, root, func() {
			var wps []analysis.WirePipeline
			if err = json.Unmarshal(b, &wps); err != nil {
				return
			}
			var dec []*analysis.Pipeline
			if dec, err = analysis.DecodePipelines(net, rp.opts, wps, nil); err == nil {
				for _, p := range dec {
					p.Release()
				}
			}
		})
		if err != nil {
			return err
		}
	}
	rj.collect(byPrefix)
	for _, ps := range byPrefix {
		for _, p := range ps {
			rj.srcMS += float64(p.SRCTime.Nanoseconds()) / 1e6
			rj.spfMS += float64(p.SPFTime.Nanoseconds()) / 1e6
			p.Release()
		}
	}
	return nil
}

// collect adds the pipelines' engine and BDD-manager counters.
func (rj *replayJob) collect(byPrefix map[route.Prefix][]*analysis.Pipeline) {
	for _, ps := range byPrefix {
		for _, p := range ps {
			if p.Eng != nil {
				st := p.Eng.Statistics()
				rj.activations += int64(st.Activations)
				rj.routesImported += int64(st.RoutesImported)
			}
			bs := p.Sp.M.Statistics()
			if bs.PeakNodes > rj.peakNodes {
				rj.peakNodes = bs.PeakNodes
			}
			rj.cacheHits += bs.CacheHits
			rj.cacheLookups += bs.CacheHits + bs.CacheMiss
			rj.gcRuns += bs.GCRuns
		}
	}
}

// query answers one requirement from the prefix pipelines with the
// analysis calls the corresponding Verifier method makes, and formats
// the verdict like Verifier.CheckRequirements.
func query(net *config.Network, byPrefix map[route.Prefix][]*analysis.Pipeline, req sre.Requirement) sre.RequirementResult {
	res := sre.RequirementResult{Req: req}
	fail := func(err error) sre.RequirementResult {
		res.Err, res.Holds, res.Got = err, false, "error"
		return res
	}
	s, ok := net.Topology.RouterByName(req.Src)
	if !ok {
		return fail(fmt.Errorf("unknown router %q", req.Src))
	}
	pfx, err := route.ParsePrefix(req.Prefix)
	if err != nil {
		return fail(err)
	}
	pipes := byPrefix[pfx]
	if len(pipes) == 0 || len(net.OriginsOf(pfx)) == 0 {
		return fail(fmt.Errorf("prefix %s has no pipeline", pfx))
	}
	tolerance := func(k int) string {
		if k == analysis.InfiniteTolerance {
			return "inf"
		}
		return strconv.Itoa(k)
	}
	switch req.Kind {
	case "reach", "waypoint":
		var w topology.RouterID
		if req.Kind == "waypoint" {
			if w, ok = net.Topology.RouterByName(req.Via); !ok {
				return fail(fmt.Errorf("unknown waypoint %q", req.Via))
			}
		}
		k := analysis.InfiniteTolerance
		for _, p := range pipes {
			hdr := p.OwnedHeaders(pfx)
			var prop bdd.Node
			if req.Kind == "reach" {
				prop = p.ReachBDD(s, p.OriginSet(pfx), hdr)
			} else {
				prop = p.WaypointBDD(s, p.OriginSet(pfx), w, hdr)
			}
			if t := p.MinTolerance(prop, hdr); t < k {
				k = t
			}
		}
		res.Holds, res.Got = k >= req.MinK, tolerance(k)
	case "probability":
		var results []analysis.ProbabilityResult
		for _, p := range pipes {
			prop := p.ReachBDD(s, p.OriginSet(pfx), p.OwnedHeaders(pfx))
			if req.PNode > 0 {
				results = append(results, p.ProbabilityWithNodes(prop, prob.NodeModel{PLinkDown: req.PLink, PNodeDown: req.PNode})...)
			} else {
				results = append(results, p.Probability(prop, prob.LinkModel{PDown: req.PLink})...)
			}
		}
		if len(results) == 0 {
			return fail(sre.ErrNoPFECs)
		}
		pmin := 1.0
		for _, r := range results {
			pmin = math.Min(pmin, r.P)
		}
		res.Holds, res.Got = pmin >= req.MinP, strconv.FormatFloat(pmin, 'f', 6, 64)
	case "loadbalance":
		n := 0
		for _, p := range pipes {
			n = max(n, p.LoadBalancePaths(s, p.OriginSet(pfx), p.OwnedHeaders(pfx)))
		}
		res.Holds, res.Got = n >= req.MinPaths, strconv.Itoa(n)
	default:
		return fail(fmt.Errorf("unknown requirement kind %q", req.Kind))
	}
	return res
}
