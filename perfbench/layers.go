package main

import "fmt"

// layerDef documents one per-layer metric: what it measures, which
// end-to-end metric a change to it should move, and on which workload
// it acts. The table is printed in the traced run's report.
type layerDef struct {
	Name      string `json:"name"`
	Unit      string `json:"unit"`
	Better    string `json:"better"`
	Moves     string `json:"moves"`
	Workloads string `json:"workloads"`
}

var layerMap = func() []layerDef {
	defs := []layerDef{
		{"config.parse_ms", "ms", "lower", "setup_s, job_s.p50 (small)", "all"},
		{"order.compute_ms", "ms", "lower", "setup_s, job_s.p50 (small)", "all"},
		{"analysis.prefix_cost_ms", "ms", "lower", "job_s.p50", "wan-reverify"},
		{"analysis.cache_key_ms", "ms", "lower", "job_s.p50", "wan-reverify"},
		{"analysis.cache_key_calls", "count", "lower", "job_s.p50", "wan-reverify"},
		{"store.get_ms", "ms", "lower", "job_s.p50", "wan-reverify"},
		{"store.put_ms", "ms", "lower", "job_s.p50", "wan-reverify"},
		{"store.hit_ratio", "ratio", "higher", "job_s.p50", "wan-reverify"},
		{"store.bytes_written", "bytes", "lower", "job_s.p50", "wan-reverify"},
		{"symbol.new_space_ms", "ms", "lower", "job_s.p50", "all"},
		{"sched.task_self_ms", "ms", "lower", "job_s.p50", "wan-reverify"},
		{"src.run_ms", "ms", "lower", "job_s.p50, job_cpu_s.p50", "fabric-fleet, wan-reverify"},
		{"src.activations", "count", "lower", "job_s.p50, job_cpu_s.p50", "fabric-fleet, wan-reverify"},
		{"src.routes_imported", "count", "lower", "job_s.p50, job_cpu_s.p50", "fabric-fleet, wan-reverify"},
		{"analysis.activation_ratio", "ratio", "lower", "job_cpu_s.p50", "fabric-fleet, wan-reverify"},
		{"spf.forward_ms", "ms", "lower", "job_s.p50", "wan-reverify"},
		{"spf.pfecs", "count", "lower", "job_s.p50", "wan-reverify"},
		{"bdd.peak_nodes", "count", "lower", "peak_rss_mb, job_s.p50", "fabric-fleet, wan-reverify"},
		{"bdd.cache_hit_ratio", "ratio", "higher", "peak_rss_mb, job_s.p50", "fabric-fleet, wan-reverify"},
		{"bdd.gc_runs", "count", "lower", "peak_rss_mb, job_s.p50", "fabric-fleet, wan-reverify"},
		{"bdd.encode_ms", "ms", "lower", "job_s.p50", "wan-reverify, fabric-fleet"},
		{"bdd.decode_ms", "ms", "lower", "job_s.p50", "wan-reverify, fabric-fleet"},
		{"bdd.wire_bytes", "bytes", "lower", "job_s.p50", "wan-reverify, fabric-fleet"},
		{"bdd.release_ms", "ms", "lower", "job_s.p50", "all"},
		{"sched.cpu_util", "ratio", "higher", "job_s.p50", "fabric-fleet, wan-reverify"},
		{"coord.run_ms", "ms", "lower", "job_s.p50, peak_rss_mb", "fabric-fleet"},
		{"coord.overhead_ms", "ms", "lower", "job_s.p50, peak_rss_mb", "fabric-fleet"},
		{"trace.overhead_s", "s", "lower", "none: tracing cost", "all"},
		{"trace.unattributed_ratio", "ratio", "lower", "none: the 5% unattributed target", "all"},
	}
	for _, k := range kinds {
		defs = append(defs,
			layerDef{"analysis.query_ms." + k + ".p50", "ms", "lower", "query_ms.p50, query_ms.p90", "wan-reverify"},
			layerDef{"analysis.query_ms." + k + ".sum", "ms", "lower", "job_s.p50", "wan-reverify"})
	}
	for _, l := range runtimeLayers {
		defs = append(defs,
			layerDef{"runtime.alloc_mb." + l, "MB", "lower", "peak_rss_mb, job_cpu_s.p50", "wan-reverify, fabric-fleet"},
			layerDef{"runtime.gc_cpu_s." + l, "s", "lower", "job_cpu_s.p50", "wan-reverify, fabric-fleet"})
	}
	return defs
}()

// layerMetrics derives every per-layer metric from the traced jobs:
// the mean over traced jobs (whole cycles of the job inputs) of each
// job's figure, except the query p50s, which pool every traced query of
// the kind.
func layerMetrics(rp *replay, utils []float64, untracedP50 float64) map[string]metric {
	self := rp.tr.selfTimes()
	perJob := map[string][]float64{}
	add := func(name string, v float64) { perJob[name] = append(perJob[name], v) }
	pooled := map[string][]float64{}
	var unattributed, wall float64
	var walls []float64
	workers := float64(max(1, rp.sp.workers))
	for _, rj := range rp.stats {
		dur, cnt := map[string]float64{}, map[string]float64{}
		alloc, gc := map[string]float64{}, map[string]float64{}
		for _, s := range rp.tr.spans {
			if s.Job != rj.id {
				continue
			}
			ms := float64(s.End-s.Start) / 1e6
			dur[s.Name] += ms
			cnt[s.Name]++
			// The fleet mirror stands in for work done in worker
			// processes; only the job's own spans count as this
			// process's allocation and GC.
			if !rp.inMirror(s) {
				alloc[layerOf(s.Name)] += s.Alloc / (1 << 20)
				gc[layerOf(s.Name)] += s.GCCPU
			}
			if s.Name == "job" {
				walls = append(walls, ms/1e3)
				wall += ms
				unattributed += float64(self[s.ID]) / 1e6
			}
			if s.Name == "sched.task" {
				dur["sched.task.self"] += float64(self[s.ID]) / 1e6
			}
		}
		srcMS, spfMS := dur["src.run"], dur["spf.forward"]
		if rp.sp.workers > 0 {
			// Worker subprocesses run SRC and SPF out of sight; these
			// come from the in-process mirror's own stage timers.
			srcMS, spfMS = rj.srcMS, rj.spfMS
		}
		add("config.parse_ms", dur["config.parse"])
		add("order.compute_ms", dur["order.compute"])
		add("analysis.prefix_cost_ms", dur["analysis.prefix_cost"])
		add("analysis.cache_key_ms", dur["analysis.cache_key"])
		add("analysis.cache_key_calls", cnt["analysis.cache_key"])
		add("store.get_ms", dur["store.get"])
		add("store.put_ms", dur["store.put"])
		add("store.hit_ratio", ratio(float64(rj.hits), float64(rj.gets)))
		add("store.bytes_written", float64(rj.bytesWritten))
		add("symbol.new_space_ms", dur["symbol.new_space"])
		add("sched.task_self_ms", dur["sched.task.self"])
		add("src.run_ms", srcMS)
		add("src.activations", float64(rj.activations))
		add("src.routes_imported", float64(rj.routesImported))
		add("analysis.activation_ratio", ratio(float64(rj.activations), float64(rj.wholeActs)))
		add("spf.forward_ms", spfMS)
		add("spf.pfecs", float64(sumCounts(rj.pfecs)))
		add("bdd.peak_nodes", float64(rj.peakNodes))
		add("bdd.cache_hit_ratio", ratio(float64(rj.cacheHits), float64(rj.cacheLookups)))
		add("bdd.gc_runs", float64(rj.gcRuns))
		add("bdd.encode_ms", dur["bdd.encode"])
		add("bdd.decode_ms", dur["bdd.decode"])
		add("bdd.wire_bytes", float64(rj.wireBytes))
		add("bdd.release_ms", dur["bdd.release"])
		add("coord.run_ms", dur["coord.run"])
		if rp.sp.workers > 0 {
			add("coord.overhead_ms", dur["coord.run"]-float64(rj.taskNS)/1e6/workers)
		} else {
			add("coord.overhead_ms", 0)
		}
		for _, k := range kinds {
			add("analysis.query_ms."+k+".sum", dur["analysis.query."+k])
			pooled[k] = append(pooled[k], rj.queryMS[k]...)
		}
		for _, l := range runtimeLayers {
			add("runtime.alloc_mb."+l, alloc[l])
			add("runtime.gc_cpu_s."+l, gc[l])
		}
	}
	for _, k := range kinds {
		perJob["analysis.query_ms."+k+".p50"] = []float64{median(pooled[k])}
	}
	perJob["sched.cpu_util"] = []float64{median(utils)}
	perJob["trace.overhead_s"] = []float64{median(walls) - untracedP50}
	perJob["trace.unattributed_ratio"] = []float64{ratio(unattributed, wall)}
	out := map[string]metric{}
	for _, d := range layerMap {
		vs, ok := perJob[d.Name]
		if !ok {
			panic(fmt.Sprintf("per-layer metric %s has no value", d.Name))
		}
		out[d.Name] = metric{mean(vs), d.Unit}
	}
	return out
}

func (rp *replay) inMirror(s span) bool {
	return s.Name == "fleet.mirror" || s.Parent >= 0 && rp.tr.spans[s.Parent].Name == "fleet.mirror"
}

// layerNotes names what the traced run cannot see from outside the
// program, and what it reports instead.
var layerNotes = []string{
	"fabric-fleet: SRC, SPF and BDD work run in worker subprocesses; src.*, spf.*, bdd.peak_nodes/cache_hit_ratio/gc_runs and bdd.encode/decode come from an in-process mirror of each worker task (analysis.RunPrefixTask, then the wire round trip), and src.run_ms/spf.forward_ms from that mirror's pipeline stage timers; PrefixCost runs inside coord.Run, so analysis.prefix_cost_ms reads 0",
	"runtime.*: runtime/metrics are process-wide; a delta between two span boundaries is split evenly over the innermost spans open at the time, so concurrent prefix tasks share it",
	"spf.forward_ms times spf.Forwarder.ForwardHeaders per router over the prefix's headers, as the job's scoped per-prefix tasks do; AllPFECs would forward the whole header space and count other PFECs",
	"src.run_ms, spf.forward_ms and the other *_ms layer times sum span durations over both workers, so with Parallelism 2 they can exceed the job's wall time",
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumCounts[K comparable](m map[K]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
