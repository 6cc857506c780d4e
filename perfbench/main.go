// Command perfbench is the repository's benchmark: time to verdict for
// a closed-loop client that submits one verification job, waits for its
// last verdict, then submits the next.
//
// A job takes generated config and requirement text, calls
// sre.ParseNetwork and sre.NewVerifier, checks every requirement through
// the Verifier, and releases it. Every verdict is compared with a
// reference computed without SRE (see oracle.go). With -trace 1 the run
// also replays jobs layer by layer (see trace.go) and reports per-layer
// metrics instead of the end-to-end ones.
//
// Build and run from the repository root with perfbench/run.py, which
// keeps every build and run artifact under .bench_build:
//
//	python3 perfbench/run.py --workload wan-reverify --seed 1 --seconds 10 --trace 0
//
// The binary's subcommands are "ref" (compute and cache the reference),
// "run" (measure) and "worker" (the fleet's worker subprocess).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sre"
	"sre/internal/coord"
	"sre/internal/route"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(coord.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	if len(os.Args) < 2 || (os.Args[1] != "run" && os.Args[1] != "ref") {
		fmt.Fprintln(os.Stderr, "usage: perfbench run|ref --workload NAME --seed N [--seconds S] [--trace 0|1] [--state DIR]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	state := fs.String("state", ".bench_build", "directory for cached references, stores and spans")
	_ = fs.Parse(os.Args[2:])
	sp, ok := specFor(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if os.Args[1] == "ref" {
		t0 := time.Now()
		ref, err := loadOrBuildReference(generate(sp, *seed), *state)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reference: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "reference %s seed %d: %d simulations over %d prefix tables, %d NetDice checks (%.1fs)\n",
			sp.name, *seed, ref.Simulations, ref.Prefixes, ref.NetDiceChecked, time.Since(t0).Seconds())
		return
	}
	r := &runner{sp: sp, seed: *seed, state: *state, seconds: *seconds}
	res, report, err := r.run(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(map[string]any{"report": report})
	fmt.Println(string(b))
	b, _ = json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

type runner struct {
	sp      spec
	seed    int64
	state   string
	seconds float64

	in  *inputs
	ref *reference
	st  *storeState

	wrong    int
	problems []string
}

func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check compares one job's verdicts with the reference.
func (r *runner) check(ji int, res jobResult) {
	ws := r.ref.Jobs[ji]
	if len(ws) != len(res.results) {
		if res.failed == 0 {
			r.wrong++
			r.problem("job %s: %d results for %d requirements", r.in.jobs[ji].label, len(res.results), len(ws))
		}
		return
	}
	for i, w := range ws {
		if w.wrong(res.results[i]) {
			r.wrong++
			q := res.results[i]
			r.problem("job %s: %s %s %s via %q: got %q, reference %+v", r.in.jobs[ji].label, q.Req.Kind, q.Req.Src, q.Req.Prefix, q.Req.Via, q.Got, w)
		}
	}
}

func (r *runner) run(traced bool) (result, map[string]any, error) {
	sp := r.sp
	// The reference is computed (or loaded) before anything is timed.
	ref, err := loadOrBuildReference(generate(sp, r.seed), r.state)
	if err != nil {
		return result{}, nil, fmt.Errorf("reference: %w", err)
	}
	r.ref = ref
	storeDir := filepath.Join(r.state, "run", fmt.Sprintf("%s-%d-store", sp.name, os.Getpid()))
	defer os.RemoveAll(storeDir)

	// Set-up: input generation, warming the store, one warm-up job.
	var setups []float64
	var warm jobResult
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		r.in = generate(sp, r.seed)
		r.st = nil
		if sp.store {
			if r.st, err = warmStore(sp, storeDir, r.in.baseText); err != nil {
				return result{}, nil, err
			}
			if err := r.st.restore(); err != nil {
				return result{}, nil, err
			}
		}
		warm = runJob(sp, r.in.jobs[0], r.st)
		setups = append(setups, time.Since(t0).Seconds())
	}
	if len(r.ref.Jobs) != len(r.in.jobs) {
		return result{}, nil, fmt.Errorf("reference covers %d jobs, inputs have %d", len(r.ref.Jobs), len(r.in.jobs))
	}
	r.check(0, warm)
	if warm.failed == 0 {
		if err := selfCheck(r.ref.Jobs[0], warm.results); err != nil {
			r.problem("%v", err)
			r.wrong++
		}
	}

	budget := time.Duration(r.seconds * float64(time.Second))
	if traced {
		budget /= 2
	}
	jobs, err := r.measure(budget)
	if err != nil {
		return result{}, nil, err
	}

	res := result{Metrics: map[string]metric{}}
	var walls, cpus []float64
	queries := 0
	hits, lookups := int64(0), int64(0)
	for _, j := range jobs {
		walls = append(walls, j.wall)
		cpus = append(cpus, j.cpu)
		queries += len(j.queryMS)
		res.Attempted += j.attempted
		res.Failed += j.failed
		hits, lookups = hits+j.hits, lookups+j.lookups
	}
	par := sp.parallelism
	if sp.workers > 0 {
		par = sp.workers
	}
	env := sre.Environment()
	env.Parallelism = par
	report := map[string]any{
		"workload": sp.name, "seed": r.seed, "env": env,
		"parallelism": sp.parallelism, "workers": sp.workers, "max_failures": sp.k,
		"closed_loop_clients": 1, "jobs": len(jobs), "job_inputs": len(r.in.jobs),
		"queries": queries, "setup_samples": setups, "job_walls": walls, "job_cpus": cpus,
		"wrong_verdicts": r.wrong, "failed_ratio": float64(res.Failed) / float64(max(1, res.Attempted)),
		"reference": map[string]int{"simulations": ref.Simulations, "prefix_tables": ref.Prefixes,
			"netdice_checked": ref.NetDiceChecked},
	}
	if sp.store {
		report["store_hit_share"] = float64(hits) / float64(max(1, lookups))
	}
	if !traced {
		best := r.bestQueries(jobs)
		res.Metrics["job_s.p50"] = metric{r.perInput(walls), "s"}
		res.Metrics["job_cpu_s.p50"] = metric{r.perInput(cpus), "s"}
		res.Metrics["query_ms.p50"] = metric{quantile(best, 0.5), "ms"}
		res.Metrics["query_ms.p90"] = metric{quantile(best, 0.9), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		layer, err := r.traceLayers(jobs, budget, walls, cpus, float64(par))
		if err != nil {
			return result{}, nil, err
		}
		res.Metrics = layer
		report["layer_map"] = layerMap
		report["layer_notes"] = layerNotes
	}
	res.Correct = r.wrong == 0 && len(r.problems) == 0
	report["problems"] = r.problems
	fmt.Fprintf(os.Stderr, "%s seed %d: %d jobs, %d queries, failed %d/%d, wrong verdicts %d\n",
		sp.name, r.seed, len(jobs), queries, res.Failed, res.Attempted, r.wrong)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "  problem:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, report, nil
}

// perInput reduces one figure per measured job (jobs in measure's
// order, cycling through the job inputs) to a run's figure: the median
// of each input's repeats, and the median of those over the inputs.
func (r *runner) perInput(xs []float64) float64 {
	n := len(r.in.jobs)
	by := make([][]float64, n)
	for i, x := range xs {
		by[i%n] = append(by[i%n], x)
	}
	per := make([]float64, n)
	for i, ys := range by {
		per[i] = median(ys)
	}
	return median(per)
}

// bestQueries returns every requirement of every job input at its
// fastest repeat in the run: the latencies query_ms.p50 and .p90 are
// percentiles of. A single verdict takes tens of microseconds, so one
// timing is at the mercy of an interrupt or a collection that happens
// to land on it; the fastest of a requirement's repeats is not.
func (r *runner) bestQueries(jobs []jobResult) []float64 {
	n := len(r.in.jobs)
	best := make([][]float64, n)
	for i, j := range jobs {
		b := best[i%n]
		if b == nil {
			best[i%n] = append([]float64(nil), j.queryMS...)
			continue
		}
		for k, x := range j.queryMS {
			if k < len(b) {
				b[k] = min(b[k], x)
			}
		}
	}
	var out []float64
	for _, b := range best {
		out = append(out, b...)
	}
	return out
}

// more reports whether a loop that has run i jobs goes on: until the
// budget is spent, and then to the end of the cycle of job inputs, so
// every run measures the same mix of inputs.
func (r *runner) more(i int, deadline time.Time) bool {
	return i%len(r.in.jobs) != 0 || i == 0 || time.Now().Before(deadline)
}

// measure runs untraced jobs back to back for the budget, cycling
// through the job inputs, and checks every verdict.
func (r *runner) measure(budget time.Duration) ([]jobResult, error) {
	var out []jobResult
	pfecs := map[int]int{}
	deadline := time.Now().Add(budget)
	for i := 0; r.more(i, deadline); i++ {
		ji := i % len(r.in.jobs)
		if r.st != nil {
			if err := r.st.restore(); err != nil {
				return nil, err
			}
		}
		res := runJob(r.sp, r.in.jobs[ji], r.st)
		r.check(ji, res)
		if n, ok := pfecs[ji]; ok && n != res.pfecs && res.failed == 0 {
			r.problem("job %s: %d PFECs, an earlier run of the same input had %d", r.in.jobs[ji].label, res.pfecs, n)
		}
		pfecs[ji] = res.pfecs
		out = append(out, res)
	}
	return out, nil
}

// fidelityCounts runs a job's input once in-process with the flight
// recorder on and returns each prefix's PFEC count from its spf events.
// Results are identical across parallelism, workers and cache state, so
// these are the counts every job of this input computed.
func fidelityCounts(sp spec, j jobInput) (map[route.Prefix]int, error) {
	net, err := sre.ParseNetwork(j.text)
	if err != nil {
		return nil, err
	}
	rec := sre.NewFlightRecorder(0)
	v, err := sre.NewVerifier(net, sre.Options{MaxFailures: sp.k, Parallelism: sp.parallelism, Recorder: rec})
	if err != nil {
		return nil, err
	}
	v.Release()
	out := map[route.Prefix]int{}
	for _, e := range rec.Events() {
		if e.Stage != "spf" {
			continue
		}
		pfx, err := route.ParsePrefix(e.Prefix)
		if err != nil {
			return nil, fmt.Errorf("spf event without a prefix: %q", e.Prefix)
		}
		out[pfx] += int(e.Count)
	}
	return out, nil
}

// traceLayers replays jobs with tracing for the budget and derives the
// per-layer metrics. walls and cpus are this run's untraced jobs.
func (r *runner) traceLayers(untraced []jobResult, budget time.Duration, walls, cpus []float64, par float64) (map[string]metric, error) {
	rp := newReplay(r.sp, r.st)
	counts := map[int]map[route.Prefix]int{}
	// measure ran whole cycles, so every job input has an untraced job
	// whose verdicts and PFEC total the replay must reproduce.
	want := map[int]jobResult{}
	for i, j := range untraced {
		want[i%len(r.in.jobs)] = j
	}
	deadline := time.Now().Add(budget)
	for i := 0; r.more(i, deadline); i++ {
		ji := i % len(r.in.jobs)
		j := r.in.jobs[ji]
		if _, ok := counts[ji]; !ok {
			c, err := fidelityCounts(r.sp, j)
			if err != nil {
				return nil, err
			}
			if n := sumCounts(c); n != want[ji].pfecs {
				r.problem("job %s: flight recorder counted %d PFECs, the untraced job %d", j.label, n, want[ji].pfecs)
			}
			counts[ji] = c
		}
		if r.st != nil {
			if err := r.st.restore(); err != nil {
				return nil, err
			}
		}
		if err := rp.run(i, j, want[ji].results, counts[ji]); err != nil {
			return nil, fmt.Errorf("traced replay of job %s: %w", j.label, err)
		}
	}
	for _, m := range rp.mismatch {
		r.problem("replay fidelity: %s", m)
	}
	rp.tr.attribute()
	if err := writeJSON(filepath.Join(r.state, "trace", fmt.Sprintf("%s-%d.spans.json", r.sp.name, r.seed)), rp.tr.spans); err != nil {
		return nil, err
	}
	var utils []float64
	for i := range walls {
		utils = append(utils, cpus[i]/(walls[i]*par))
	}
	return layerMetrics(rp, utils, median(walls)), nil
}
