package bdd

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"sre/internal/obs"
)

// Dynamic variable reordering by Rudell sifting. The manager keeps a
// var↔level indirection (var2level/level2var in Manager); sifting moves
// one variable at a time through the order by swapping adjacent levels
// in place, records the level at which the whole diagram was smallest,
// and settles the variable there. Node handles are stable throughout: a
// swap restructures nodes in place, so every external Ref, memo entry
// keyed by handle generation, and serialized root survives — only the
// LEVELS stored in lvl[] change meaning, which is why serialize.go
// stamps the level map into its format and why both operation caches
// are cleared after a pass (Restrict entries key on levels, and freed
// slots may be recycled).
//
// The in-place swap of levels l (variable x) and l+1 (variable y)
// follows the standard node-rotation rule:
//
//   - x-nodes with no child at l+1 do not depend on y: relabel to l+1.
//   - x-nodes with a child at l+1 restructure in place into y-nodes at
//     level l: f = x?(f1)(f0) becomes y?(x?f11:f01)(x?f10:f00), with
//     the two x-cofactor children hash-consed at level l+1.
//   - y-nodes relabel to level l; those orphaned by the restructuring
//     are freed by reference-count cascade.
//
// Canonicity keeps the rule collision-free: distinct live nodes encode
// distinct functions, so no relabel or restructure can produce a
// duplicate unique-table key at its final level.
//
// Sifting runs only at safe points (no operation in flight), entered
// from the GC path, because the temporary per-node reference counts are
// derived from external Refs plus parent edges — exactly the GC
// reachability contract.

// ReorderConfig configures dynamic reordering.
type ReorderConfig struct {
	// Threshold arms automatic reordering: when a MaybeGC call finds at
	// least this many live nodes after collecting, the manager runs a
	// sifting pass. Zero disables automatic reordering.
	Threshold int
	// MaxGrowth bounds how far one variable may be sifted past its
	// optimum: a direction is abandoned when the diagram grows beyond
	// MaxGrowth × its size at the start of that variable's sift.
	// Values ≤ 1 mean DefaultReorderGrowth.
	MaxGrowth float64
	// TimeBudget bounds one sifting pass; the pass stops starting new
	// variables once exceeded. Zero means DefaultReorderBudget.
	TimeBudget time.Duration
}

// Default reordering parameters.
const (
	// DefaultReorderThreshold is the live-node trigger used by callers
	// that enable reordering without an explicit threshold.
	DefaultReorderThreshold = 1 << 16
	// DefaultReorderGrowth is the per-variable growth bound.
	DefaultReorderGrowth = 1.2
	// DefaultReorderBudget is the per-pass time budget.
	DefaultReorderBudget = time.Second
)

// SetReorderBands declares level boundaries that sifting never crosses.
// Each boundary b splits the order between levels b-1 and b; variables
// keep to the band they start in, so layout contracts above the bands
// (the header/link split that SplitAtLevel depends on) hold under any
// amount of reordering. Boundaries outside (0, NumVars) are ignored.
// Call before any reordering happens.
func (m *Manager) SetReorderBands(bounds []int) {
	m.bands = m.bands[:0]
	for _, b := range bounds {
		if b > 0 && b < m.vars {
			m.bands = append(m.bands, int32(b))
		}
	}
	slices.Sort(m.bands)
	m.bands = slices.Compact(m.bands)
}

// ReorderEnabled reports whether automatic reordering is armed.
func (m *Manager) ReorderEnabled() bool { return m.reorderAt > 0 }

// CurrentOrder returns a copy of the current var→level map.
func (m *Manager) CurrentOrder() []int {
	out := make([]int, m.vars)
	for v, l := range m.var2level {
		out[v] = int(l)
	}
	return out
}

// OrderIsIdentity reports whether the current order equals the static
// construction order (no sift has moved a variable).
func (m *Manager) OrderIsIdentity() bool {
	for v, l := range m.var2level {
		if int32(v) != l {
			return false
		}
	}
	return true
}

// Reorder collects garbage and runs one full sifting pass immediately,
// using the configured (or default) growth and time bounds. Like GC it
// must only be called at a safe point: no operation in flight, every
// persistent node protected by Ref.
func (m *Manager) Reorder() {
	m.GC()
	m.reorderNow()
}

// maybeReorder runs a sifting pass from the GC path when the live-node
// count stands above the trigger even after collecting. When the GC
// alone brought the count back under the trigger, the trigger rises to
// twice the live size instead (floored at the configured threshold) —
// without that, every subsequent MaybeGC call above the threshold
// would run a full collection, thrashing exactly the workloads whose
// dead-node churn the GC threshold exists to amortize.
func (m *Manager) maybeReorder() {
	if m.reorderAt <= 0 {
		return
	}
	if m.nodes >= m.reorderAt {
		m.reorderNow()
		return
	}
	if next := 2 * m.nodes; next > m.reorderAt {
		m.reorderAt = next
	}
}

// reorderNow sifts each variable (most populous levels first) to its
// locally optimal level, then rebuilds the hash/free-list and drops both
// operation caches. The trigger for the next automatic pass rises to
// twice the post-sift size so steady growth is not re-sifted constantly.
func (m *Manager) reorderNow() {
	start := time.Now()
	budget := m.reorderCfg.TimeBudget
	if budget <= 0 {
		budget = DefaultReorderBudget
	}
	growth := m.reorderCfg.MaxGrowth
	if growth <= 1 {
		growth = DefaultReorderGrowth
	}
	st := m.buildReorderState()
	before := st.total
	vars := make([]int32, 0, m.vars)
	for v := 0; v < m.vars; v++ {
		if st.count[m.var2level[v]] > 0 {
			vars = append(vars, int32(v))
		}
	}
	slices.SortFunc(vars, func(a, b int32) int {
		if c := cmp.Compare(st.count[m.var2level[b]], st.count[m.var2level[a]]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sifted, swaps0 := 0, m.stats.SiftSwaps
	for _, v := range vars {
		if time.Since(start) > budget {
			break
		}
		if m.interrupt != nil && m.interrupt() != nil {
			// Stop sifting but finish cleanup below; the interruption
			// surfaces at the next polled operation.
			break
		}
		st.siftVar(v, growth)
		sifted++
	}
	// Sifting moved levels, so every cached result is stale. Clearing
	// first means any cache growth in rehash carries nothing over.
	m.clearCache()
	m.rehash() // rebuild chains and free list over the post-sift table
	after := st.total
	m.stats.Reorders++
	m.stats.SiftedVars += sifted
	m.stats.ReorderNanos += time.Since(start).Nanoseconds()
	m.stats.LastReorderBefore, m.stats.LastReorderAfter = before, after
	if m.reorderAt > 0 {
		m.reorderAt = 2 * m.nodes
		if m.reorderAt < m.reorderCfg.Threshold {
			m.reorderAt = m.reorderCfg.Threshold
		}
	}
	m.telReorders.Inc()
	m.telSifts.Add(int64(sifted))
	m.telSwaps.Add(int64(m.stats.SiftSwaps - swaps0))
	m.telReorderNs.Add(time.Since(start).Nanoseconds())
	if m.tel.Active() {
		m.tel.Emit(obs.Event{Stage: "bdd",
			Detail: fmt.Sprintf("reorder #%d sifted %d vars (%d swaps): %s → %s nodes in %s",
				m.stats.Reorders, sifted, m.stats.SiftSwaps-swaps0,
				obs.HumanCount(int64(before)), obs.HumanCount(int64(after)),
				time.Since(start).Round(time.Millisecond))})
	}
	if m.tel.Recording() {
		m.tel.Record(start, obs.TraceEvent{Stage: "bdd.reorder",
			Wall:  time.Since(start).Nanoseconds(),
			Count: int64(m.stats.SiftSwaps - swaps0),
			Nodes: int64(after) - int64(before), Outcome: "ok"})
	}
}

// reorderState is the per-pass bookkeeping: temporary reference counts
// (external Refs plus parent edges), per-level node lists, and live
// decision-node totals. Slots freed during a pass are NOT pushed onto
// the manager free list — the final rehash rebuilds it — so a slot id
// never recycles mid-pass and stale level-list entries are detectable
// by (ref >= 0 && lvl matches).
type reorderState struct {
	m      *Manager
	rc     []int32
	levels [][]int32
	count  []int
	total  int
}

func (m *Manager) buildReorderState() *reorderState {
	st := &reorderState{
		m:      m,
		rc:     make([]int32, len(m.lvl)),
		levels: make([][]int32, m.vars),
		count:  make([]int, m.vars),
	}
	for i := int32(2); i < int32(len(m.lvl)); i++ {
		if m.ref[i] < 0 {
			continue
		}
		l := m.lvl[i]
		st.rc[i] += m.ref[i]
		st.rc[m.lo[i]]++
		st.rc[m.hi[i]]++
		st.levels[l] = append(st.levels[l], i)
		st.count[l]++
		st.total++
	}
	return st
}

// bandRange returns the [lo, hi) level range of the band containing l.
func (st *reorderState) bandRange(l int32) (int32, int32) {
	lo, hi := int32(0), int32(st.m.vars)
	for _, b := range st.m.bands {
		if b <= l {
			lo = b
		} else {
			hi = b
			break
		}
	}
	return lo, hi
}

// gather returns the live nodes currently at level l, dropping entries
// that died or moved since they were listed.
func (st *reorderState) gather(l int32) []int32 {
	m := st.m
	live := st.levels[l][:0]
	for _, id := range st.levels[l] {
		if m.ref[id] >= 0 && m.lvl[id] == l {
			live = append(live, id)
		}
	}
	st.levels[l] = live
	return live
}

// canSwap reports whether swapping levels l and l+1 cannot overflow the
// node table: a swap allocates at most two fresh children per level-l
// node.
func (st *reorderState) canSwap(l int32) bool {
	return len(st.m.lvl)+2*st.count[l] <= st.m.limit
}

// siftVar sifts variable v to the level minimizing total live nodes
// within its band, bounded by the growth factor.
func (st *reorderState) siftVar(v int32, maxGrowth float64) {
	m := st.m
	cur := m.var2level[v]
	lo, hi := st.bandRange(cur)
	if hi-lo < 2 {
		return
	}
	best := cur
	bestTotal := st.total
	limit := int(maxGrowth * float64(st.total))
	step := func(l int32) {
		st.swap(l)
		m.stats.SiftSwaps++
		if st.total < bestTotal {
			bestTotal, best = st.total, m.var2level[v]
		}
	}
	down := func() {
		for m.var2level[v] < hi-1 && st.total <= limit && st.canSwap(m.var2level[v]) {
			step(m.var2level[v])
		}
	}
	up := func() {
		for m.var2level[v] > lo && st.total <= limit && st.canSwap(m.var2level[v]-1) {
			step(m.var2level[v] - 1)
		}
	}
	// Try the closer end first so the worst case walks the band ~twice.
	if cur-lo <= hi-1-cur {
		up()
		down()
	} else {
		down()
		up()
	}
	// Settle at the best recorded level. Retracing shrinks the diagram
	// back to bestTotal, but individual swaps may still allocate; if the
	// table is about to overflow, stop where we are — any level is
	// semantically valid.
	for m.var2level[v] > best && st.canSwap(m.var2level[v]-1) {
		st.swap(m.var2level[v] - 1)
		m.stats.SiftSwaps++
	}
	for m.var2level[v] < best && st.canSwap(m.var2level[v]) {
		st.swap(m.var2level[v])
		m.stats.SiftSwaps++
	}
}

// swap exchanges levels l and l+1 in place (see the package comment at
// the top of this file for the node-rotation rule).
func (st *reorderState) swap(l int32) {
	m := st.m
	xs := st.gather(l)
	ys := st.gather(l + 1)
	var keep, restruct []int32
	for _, n := range xs {
		if m.lvl[m.lo[n]] == l+1 || m.lvl[m.hi[n]] == l+1 {
			restruct = append(restruct, n)
		} else {
			keep = append(keep, n)
		}
	}
	// Unhook restructured nodes while their unique-table key is intact.
	for _, n := range restruct {
		m.hashRemove(n)
	}
	// Independent x-nodes: relabel to l+1.
	for _, n := range keep {
		m.hashRemove(n)
		m.lvl[n] = l + 1
		m.hashInsert(n)
	}
	// y-nodes: relabel to l.
	for _, n := range ys {
		m.hashRemove(n)
		m.lvl[n] = l
		m.hashInsert(n)
	}
	// Fix counts for the relabelings before any cascade frees run, so
	// unref's per-level decrements stay consistent.
	st.levels[l+1] = keep
	st.count[l+1] = len(keep)
	newLower := append(ys[:len(ys):len(ys)], restruct...)
	st.count[l] = len(newLower)
	// Restructure dependent x-nodes into y-nodes at level l. The y-
	// children were just relabeled to l, so the cofactor test is lvl==l.
	for _, f := range restruct {
		f0, f1 := Node(m.lo[f]), Node(m.hi[f])
		f00, f01 := f0, f0
		if m.lvl[f0] == l {
			f00, f01 = Node(m.lo[f0]), Node(m.hi[f0])
		}
		f10, f11 := f1, f1
		if m.lvl[f1] == l {
			f10, f11 = Node(m.lo[f1]), Node(m.hi[f1])
		}
		newLo := st.siftMk(l+1, f00, f10) // f with y=0
		newHi := st.siftMk(l+1, f01, f11) // f with y=1
		st.unref(f0)
		st.unref(f1)
		m.lvl[f] = l
		m.lo[f], m.hi[f] = int32(newLo), int32(newHi)
		m.hashInsert(f)
	}
	st.levels[l] = newLower
	x, y := m.level2var[l], m.level2var[l+1]
	m.level2var[l], m.level2var[l+1] = y, x
	m.var2level[x], m.var2level[y] = l+1, l
}

// siftMk hash-conses (lvl, lo, hi) during a swap and charges one
// reference for the caller's new parent edge. Unlike mk it never reuses
// free slots (slot ids must stay unique within a pass) and never
// rehashes (chains are rebuilt once after the pass).
func (st *reorderState) siftMk(lvl int32, lo, hi Node) Node {
	m := st.m
	if lo == hi {
		st.rc[lo]++
		return lo
	}
	b := m.hashNode(lvl, int32(lo), int32(hi))
	for i := m.hash[b]; i >= 0; i = m.next[i] {
		if m.lvl[i] == lvl && m.lo[i] == int32(lo) && m.hi[i] == int32(hi) {
			st.rc[i]++
			return Node(i)
		}
	}
	id := int32(len(m.lvl))
	m.lvl = append(m.lvl, lvl)
	m.lo = append(m.lo, int32(lo))
	m.hi = append(m.hi, int32(hi))
	m.next = append(m.next, -1)
	m.ref = append(m.ref, 0)
	m.nodes++
	if m.nodes > m.stats.PeakNodes {
		m.stats.PeakNodes = m.nodes
	}
	st.rc = append(st.rc, 1)
	st.rc[lo]++
	st.rc[hi]++
	m.hashInsert(id)
	st.levels[lvl] = append(st.levels[lvl], id)
	st.count[lvl]++
	st.total++
	return Node(id)
}

// unref drops one reference from n, freeing it (and cascading into its
// children) when the count reaches zero. Freed slots stay off the
// manager free list until the post-pass rehash.
func (st *reorderState) unref(n Node) {
	m := st.m
	for n > True {
		st.rc[n]--
		if st.rc[n] > 0 {
			return
		}
		m.hashRemove(int32(n))
		m.ref[n] = -1
		m.nodes--
		st.total--
		st.count[m.lvl[n]]--
		lo, hi := Node(m.lo[n]), Node(m.hi[n])
		st.unref(lo)
		n = hi
	}
	st.rc[n]--
}

// hashRemove unlinks node id from its unique-table bucket; the key must
// still match lvl/lo/hi.
func (m *Manager) hashRemove(id int32) {
	b := m.hashNode(m.lvl[id], m.lo[id], m.hi[id])
	if m.hash[b] == id {
		m.hash[b] = m.next[id]
		return
	}
	for p := m.hash[b]; p >= 0; p = m.next[p] {
		if m.next[p] == id {
			m.next[p] = m.next[id]
			return
		}
	}
	panic("bdd: reorder unlinked a node missing from its bucket")
}

// hashInsert links node id into the bucket of its current key.
func (m *Manager) hashInsert(id int32) {
	b := m.hashNode(m.lvl[id], m.lo[id], m.hi[id])
	m.next[id] = m.hash[b]
	m.hash[b] = id
}
