package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"sre"
	"sre/internal/analysis"
	"sre/internal/store"
)

// jobResult is what one untraced verification job measured.
type jobResult struct {
	wall, cpu float64   // seconds
	queryMS   []float64 // one per requirement
	results   []sre.RequirementResult
	attempted int
	failed    int
	pfecs     int
	hits      int64 // store lookups that hit (wan-reverify)
	lookups   int64
}

// cpuSeconds is the user plus system time of this process and of its
// waited-for children (the fleet's worker subprocesses).
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		}
	}
	return total
}

// peakRSSMB is the larger of this process's peak resident set and the
// largest waited-for child's.
func peakRSSMB() float64 {
	peak := int64(0)
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil && ru.Maxrss > peak {
			peak = ru.Maxrss
		}
	}
	return float64(peak) / 1024 // Maxrss is in KiB on Linux
}

// options returns the verifier options of a workload's job.
func (sp spec) options() sre.Options {
	if sp.workers > 0 {
		return sre.Options{MaxFailures: sp.k, Workers: sp.workers}
	}
	return sre.Options{MaxFailures: sp.k, Parallelism: sp.parallelism}
}

// runJob runs one verification job: config text to the last verdict.
// Everything between the two clock reads is what an operator waits for.
//
// The heap is collected first, outside the timed region, so a job does
// not pay for collecting the garbage earlier jobs left behind; without
// it the point where a collection lands varies from run to run and the
// query percentiles with it.
func runJob(sp spec, j jobInput, st *storeState) jobResult {
	var out jobResult
	nPrefixes := len(j.net.AllPrefixes())
	runtime.GC()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	fail := func() jobResult {
		out.wall, out.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
		out.attempted = 1 + nPrefixes
		out.failed = out.attempted
		return out
	}
	net, err := sre.ParseNetwork(j.text)
	if err != nil {
		return fail()
	}
	reqs, err := sre.ParseRequirementsString(j.reqs)
	if err != nil {
		return fail()
	}
	opts := sp.options()
	var cache *sre.Store
	if st != nil {
		if cache, err = sre.OpenStore(st.dir, sre.StoreOptions{}); err != nil {
			return fail()
		}
		opts.Store = cache
	}
	v, err := sre.NewVerifier(net, opts)
	if err != nil {
		return fail()
	}
	out.queryMS = make([]float64, 0, len(reqs))
	out.results = make([]sre.RequirementResult, 0, len(reqs))
	for _, req := range reqs {
		q0 := time.Now()
		res, _ := v.CheckRequirements([]sre.Requirement{req})
		out.queryMS = append(out.queryMS, float64(time.Since(q0).Nanoseconds())/1e6)
		out.results = append(out.results, res[0])
	}
	crashed := v.CrashDegraded() || v.Degraded()
	out.pfecs = v.NumPFECs()
	v.Release()
	out.wall, out.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0

	out.attempted = 1 + nPrefixes + len(reqs)
	if crashed {
		out.failed++
	}
	for _, res := range out.results {
		if res.Err != nil {
			out.failed++
		}
	}
	if cache != nil {
		m := cache.Metrics()
		out.hits, out.lookups = m.Hits, m.Hits+m.Misses
	}
	return out
}

// storeState is wan-reverify's result store: warmed once with the
// unedited network, then restored to exactly those records before
// every job so each edit sees the same hits and misses every time.
type storeState struct {
	dir  string
	base map[string][32]byte // object path relative to dir -> content hash
	// version is the cache record version of the base records; the
	// traced replay stamps the records it publishes with it.
	version int
}

// warmStore creates a fresh store at dir and verifies the unedited
// network through it, publishing every prefix.
func warmStore(sp spec, dir, baseText string) (*storeState, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	runtime.GC() // as before a job, so the peak resident set repeats
	net, err := sre.ParseNetwork(baseText)
	if err != nil {
		return nil, err
	}
	cache, err := sre.OpenStore(dir, sre.StoreOptions{})
	if err != nil {
		return nil, err
	}
	opts := sp.options()
	opts.Store = cache
	v, err := sre.NewVerifier(net, opts)
	if err != nil {
		return nil, fmt.Errorf("warming the store: %w", err)
	}
	v.Release()
	st := &storeState{dir: dir}
	if st.base, err = st.records(); err != nil {
		return nil, err
	}
	if len(st.base) != len(net.AllPrefixes()) {
		return nil, fmt.Errorf("warm store holds %d records, want one per prefix (%d)", len(st.base), len(net.AllPrefixes()))
	}
	for rel := range st.base {
		f, err := os.Open(filepath.Join(dir, rel))
		if err != nil {
			return nil, err
		}
		payload, err := store.ReadRecord(f, 0)
		f.Close()
		var rec analysis.CacheRecord
		if err == nil {
			err = json.Unmarshal(payload, &rec)
		}
		if err != nil {
			return nil, fmt.Errorf("reading base record %s: %w", rel, err)
		}
		st.version = rec.Version
		break
	}
	return st, nil
}

// records hashes every file under the store directory.
func (st *storeState) records() (map[string][32]byte, error) {
	out := map[string][32]byte{}
	err := filepath.WalkDir(st.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(st.dir, path)
		out[rel] = sha256.Sum256(b)
		return nil
	})
	return out, err
}

// restore deletes every file a job added and checks that exactly the
// base records remain, byte for byte.
func (st *storeState) restore() error {
	now, err := st.records()
	if err != nil {
		return err
	}
	for rel := range now {
		if _, ok := st.base[rel]; !ok {
			if err := os.Remove(filepath.Join(st.dir, rel)); err != nil {
				return err
			}
		}
	}
	if now, err = st.records(); err != nil {
		return err
	}
	if len(now) != len(st.base) {
		return fmt.Errorf("restored store holds %d files, want the %d base records", len(now), len(st.base))
	}
	for rel, h := range st.base {
		if now[rel] != h {
			return fmt.Errorf("restored store: base record %s changed or missing", rel)
		}
	}
	return nil
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
