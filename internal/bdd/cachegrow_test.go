package bdd

import (
	"slices"
	"testing"
)

// eqHalves returns P = ∧_{i<n/2} (x_i ↔ y_i) and Q = the same over
// i ≥ n/2, with x_i = var i and y_i = var n+i. Both are small, but under
// this x-before-y order their conjunction — equality of the two n-bit
// words — needs about 3·2^n nodes.
func eqHalves(m *Manager, n int) (p, q Node) {
	p, q = True, True
	for i := 0; i < n; i++ {
		eq := m.Not(m.Xor(m.Var(i), m.Var(n+i)))
		if i < n/2 {
			p = m.And(p, eq)
		} else {
			q = m.And(q, eq)
		}
	}
	return p, q
}

func TestCacheGrowsWithUniqueTable(t *testing.T) {
	m := New(Config{Vars: 40, DisableGC: true})
	if got := m.Statistics().CacheSets; got != 4096 {
		t.Fatalf("fresh manager holds %d cache sets, want 4096", got)
	}
	if len(m.cache) != 2*4096 || len(m.axCache) != minAxEntries {
		t.Fatalf("fresh caches: %d op entries, %d AndExists entries", len(m.cache), len(m.axCache))
	}
	p, q := eqHalves(m, 18)
	m.And(p, q)
	if m.Size() <= 1<<19 {
		t.Fatalf("workload built only %d nodes, want > 2^19", m.Size())
	}
	if got := m.Statistics().CacheSets; got != maxCacheSets {
		t.Fatalf("after %d nodes the cache holds %d sets, want the cap %d", m.Size(), got, maxCacheSets)
	}
	if len(m.axCache) != maxCacheSets/4 {
		t.Fatalf("AndExists cache holds %d entries at the cap, want %d", len(m.axCache), maxCacheSets/4)
	}
}

func TestGrowCachesKeepsEntries(t *testing.T) {
	m := New(Config{Vars: 24, DisableGC: true})
	p, q := eqHalves(m, 10)
	m.AndExists(p, q, m.CubeVars([]int{0, 1, 2}))
	var before []cacheEntry
	for _, e := range m.cache {
		if e.op != 0 {
			before = append(before, e)
		}
	}
	axBefore := 0
	for _, e := range m.axCache {
		if e.f != False {
			axBefore++
		}
	}
	m.growCaches(maxCacheSets)
	hits := m.stats.CacheHits
	for _, e := range before {
		if r, ok := m.cacheLookup(e.op, e.f, e.g, e.h); !ok || r != e.res {
			t.Fatalf("entry %+v lost in growth", e)
		}
	}
	if m.stats.CacheHits-hits != uint64(len(before)) {
		t.Fatalf("lookups after growth: %d hits for %d entries", m.stats.CacheHits-hits, len(before))
	}
	axAfter := 0
	for _, e := range m.axCache {
		if e.f != False {
			axAfter++
		}
	}
	if axBefore == 0 || axAfter != axBefore {
		t.Fatalf("AndExists entries: %d before growth, %d after", axBefore, axAfter)
	}
}

// TestCacheGrowthMidRecursionParity runs And, AndExists and Restrict
// chains whose final operation carries the node table across a growth
// threshold (8192 or 65536 nodes; And crosses both and reaches the cap)
// on a growing manager and on one forced to the cap from the start.
// Results and the whole node table must match node for node.
func TestCacheGrowthMidRecursionParity(t *testing.T) {
	const z, w = 30, 31 // helper variables below every x and y
	cases := []struct {
		name string
		prep func(m *Manager) []Node
		op   func(m *Manager, args []Node) Node
	}{
		{"And",
			func(m *Manager) []Node { p, q := eqHalves(m, 15); return []Node{p, q} },
			func(m *Manager, a []Node) Node { return m.And(a[0], a[1]) }},
		{"AndExists",
			func(m *Manager) []Node {
				p, q := eqHalves(m, 12)
				return []Node{m.And(p, m.Or(m.Var(z), m.Var(w))), m.And(q, m.Var(z)), m.CubeVars([]int{z, w})}
			},
			func(m *Manager, a []Node) Node { return m.AndExists(a[0], a[1], a[2]) }},
		{"Restrict",
			func(m *Manager) []Node { p, q := eqHalves(m, 14); return []Node{m.And(p, q)} },
			func(m *Manager, a []Node) Node {
				f := a[0]
				for _, v := range []int{13, 27, 6, 20} {
					f = m.Restrict(f, v, v%2 == 0)
				}
				return f
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := New(Config{Vars: 32, DisableGC: true})
			ref.growCaches(maxCacheSets)
			want := c.op(ref, c.prep(ref))

			m := New(Config{Vars: 32, DisableGC: true})
			args := c.prep(m)
			before := m.Statistics().CacheSets
			if got := c.op(m, args); got != want {
				t.Fatalf("result %d, presized manager gave %d", got, want)
			}
			if got := m.Statistics().CacheSets; got == before {
				t.Fatalf("the operation did not grow the cache from %d sets (%d nodes)", before, m.Size())
			}
			if !slices.Equal(m.lvl, ref.lvl) || !slices.Equal(m.lo, ref.lo) || !slices.Equal(m.hi, ref.hi) {
				t.Fatalf("node tables differ: growing %d slots, presized %d", len(m.lvl), len(ref.lvl))
			}
		})
	}
}
