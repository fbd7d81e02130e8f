package serve

// The service's books. Every number is kept once, at the tenant: a
// tenant worker owns the only live counters, per-level slices, phase
// clocks and latency window, and the key cache keeps its own counters
// per tenant. One type holds a tenant's books and every sum of them —
// the service totals, the sum over a cluster's shards, one tenant's
// view on its own — and each sum is total applied to a set of tenants'
// Stats, so "the totals are the sum of the tenants" is how a total is
// made rather than something to check.

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ciflow/internal/mod"
	"ciflow/internal/obs"
)

// counters are one tenant's hot-path counters (atomics: the tenant's
// groups update them from their own goroutines).
type counters struct {
	submitted atomic.Uint64
	failed    atomic.Uint64
	groups    atomic.Uint64
	expanded  atomic.Uint64 // compressed keys drawn in the apply tiles
}

// Request-lifecycle phases. Every served request passes through them
// in order; each phase's wall time is accumulated into always-on
// atomic counters on the tenant's worker, so the lifecycle breakdown
// costs a few time.Now() calls per request and needs no sampling or
// opt-in.
const (
	phaseEnqueue   = iota // Submit accepted → popped from the tenant queue
	phaseDispatch         // queue pop → its group starts executing
	phaseKeys             // key-cache fetch (and CheckMaterial) for the group
	phaseHoist            // shared Decompose+ModUp (HoistParallel)
	phaseGroupWait        // in a hoisted group, waiting on work booked to others
	phaseReplay           // per-key replay (SwitchParallelInto), key drawing included
	phaseReply            // result bookkeeping and delivery to the waiter
	numPhases
)

var phaseNames = [numPhases]string{
	"enqueue", "dispatch", "keys", "hoist", "group_wait", "replay", "reply",
}

// phaseCounters accumulate request-lifecycle phase durations.
type phaseCounters struct {
	c [numPhases]struct{ count, ns atomic.Uint64 }
}

func (pc *phaseCounters) add(phase int, d time.Duration) {
	if d < 0 {
		d = 0
	}
	pc.c[phase].count.Add(1)
	pc.c[phase].ns.Add(uint64(d))
}

func (pc *phaseCounters) snapshot() []PhaseStats {
	var out []PhaseStats
	for i := 0; i < numPhases; i++ {
		n := pc.c[i].count.Load()
		if n == 0 {
			continue
		}
		out = append(out, PhaseStats{
			Phase:   phaseNames[i],
			Count:   n,
			TotalNs: pc.c[i].ns.Load(),
		})
	}
	return out
}

// PhaseStats is one request-lifecycle phase's accumulated wall time.
// Counts differ between phases by design: enqueue/dispatch/reply are
// per request, while keys/hoist/replay are per key-cache fetch, per
// hoisted group, and per replayed output respectively, and group_wait
// is per member of a group of two or more: what the member spends
// between its group's start and its own replay starting on work that is
// booked elsewhere — the other members' key fetches, the shared
// hoist (booked once per group, so every member but the first waits
// it out here), and the replays before its own. With it, the phases a
// request passes through sum to its submit-to-result time. Dividing
// TotalNs by Count yields the natural per-unit mean for each phase.
// Counts and nanoseconds are integers, so summing breakdowns (tenants
// into a service, shards into a fabric) is exact.
type PhaseStats struct {
	Phase   string `json:"phase"`
	Count   uint64 `json:"count"`
	TotalNs uint64 `json:"total_ns"`
}

// phaseOrder is the canonical order of a phase breakdown: lifecycle
// order, then names this build does not know (a newer peer's phases),
// sorted.
func phaseOrder(a, b string) int {
	rank := func(name string) int {
		return cmp.Or(slices.Index(phaseNames[:], name)+1, numPhases+1)
	}
	return cmp.Or(cmp.Compare(rank(a), rank(b)), strings.Compare(a, b))
}

// addPhases sums src into dst entry-wise by phase name, keeping dst in
// canonical order. src may come in any order.
func addPhases(dst, src []PhaseStats) []PhaseStats {
	for _, ps := range src {
		i, ok := slices.BinarySearchFunc(dst, ps.Phase, func(e PhaseStats, name string) int {
			return phaseOrder(e.Phase, name)
		})
		if !ok {
			dst = slices.Insert(dst, i, PhaseStats{Phase: ps.Phase})
		}
		dst[i].Count += ps.Count
		dst[i].TotalNs += ps.TotalNs
	}
	return dst
}

// LevelStats is one ciphertext level's slice of the switch counters:
// requests served, hoisted Decompose+ModUp executions, and requests
// served out of shared hoisted state (coalesced) at that level. The
// per-level breakdown is what lets internal/workload cross-validate
// its per-level schedule predictions *server-side* — the serving
// layer's own books must show the schedule's level mix (hoist-group
// placement included), not just the right totals.
type LevelStats struct {
	Level     int    `json:"level"`
	Switches  uint64 `json:"switches"`
	ModUps    uint64 `json:"mod_ups"`
	Coalesced uint64 `json:"coalesced,omitempty"`
}

// addLevels sums src into dst entry-wise by level, keeping dst sorted
// descending from the top level (workload.Counts.PerLevel order). src
// may come in any order.
func addLevels(dst, src []LevelStats) []LevelStats {
	for _, ls := range src {
		i, ok := slices.BinarySearchFunc(dst, ls.Level, func(e LevelStats, level int) int {
			return cmp.Compare(level, e.Level)
		})
		if !ok {
			dst = slices.Insert(dst, i, LevelStats{Level: ls.Level})
		}
		dst[i].Switches += ls.Switches
		dst[i].ModUps += ls.ModUps
		dst[i].Coalesced += ls.Coalesced
	}
	return dst
}

// levelCounters are one tenant's switches, ModUps and coalesces, kept
// per level and nowhere else: snapshot sums them into the totals.
// Unlike the hot atomics they are mutex-guarded: touched once per group
// and once per replay, noise next to the graph the update accounts for.
type levelCounters struct {
	mu     sync.Mutex
	levels []LevelStats
}

func (lc *levelCounters) add(level int, switches, modUps, coalesced uint64) {
	lc.mu.Lock()
	lc.levels = addLevels(lc.levels, []LevelStats{{level, switches, modUps, coalesced}})
	lc.mu.Unlock()
}

func (lc *levelCounters) snapshot() []LevelStats {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return slices.Clone(lc.levels)
}

// Stats is one tenant's books or a total of them: request counters,
// latency percentiles, per-level and per-phase breakdowns and key-cache
// figures. A tenant's Stats (Tenant set) is the only place a number is
// counted: groups never span tenants. A total (Tenant "") is the sum of
// the Tenants it lists (see total), plus what no sum of tenants gives:
// Batches, Kernel, Profile and the cache budget are set only in a total.
type Stats struct {
	Tenant    string `json:"tenant,omitempty"`  // "" in a total
	Submitted uint64 `json:"submitted"`         // requests accepted by Submit
	Served    uint64 `json:"served"`            // requests completed with outputs
	Failed    uint64 `json:"failed"`            // requests completed with an error
	Batches   uint64 `json:"batches,omitempty"` // in a total, equals Groups: every group is dispatched on its own
	Groups    uint64 `json:"groups"`            // (tenant, level, input, dataflow) groups formed
	ModUps    uint64 `json:"mod_ups"`           // Decompose+ModUp executions
	Coalesced uint64 `json:"coalesced"`         // requests served from a shared hoisted state

	// KeyExpansions counts compressed keys drawn in the apply tiles:
	// every use of a compressed cache entry draws its A-half once,
	// tower by tower, inside the replay. 0 means the key source hands
	// the cache dense keys.
	KeyExpansions uint64 `json:"key_expansions"`

	// CoalescingFactor is served requests per ModUp execution: 1.0
	// means no sharing, k means every request amortized its ModUp
	// across k requests — the cross-request counterpart of the paper's
	// hoisting model (hks.HoistedOpsSaved).
	CoalescingFactor float64 `json:"coalescing_factor"`

	// Keys is the tenant's shard of the key cache, or in a total the
	// whole cache.
	Keys CacheStats `json:"keys"`

	// P50/P99 are submit-to-completion latencies over (up to) the last
	// 16384 requests each tenant had served — the numbers the tenant-
	// isolation test pins: a hot neighbour must not move a tenant's.
	// A service's total pools its tenants' windows; merged across
	// shards they are the worst shard's.
	P50 time.Duration `json:"p50"`
	P99 time.Duration `json:"p99"`

	// PerLevel is the switch/ModUp breakdown by ciphertext level,
	// descending from the top level. Per level, Switches sum the served
	// requests and ModUps the hoisted Decompose+ModUp executions, so
	// summing the slice reproduces the Served and ModUps totals.
	PerLevel []LevelStats `json:"per_level,omitempty"`

	// Phases is the request-lifecycle breakdown
	// (enqueue→dispatch→keys→hoist→group_wait→replay→reply):
	// accumulated wall time per phase from Submit to result delivery.
	Phases []PhaseStats `json:"phases,omitempty"`

	// Kernel is the kernel body of the serving process (mod.Kernel);
	// merged across shards it is the one they share, or KernelMixed.
	// Rates, latencies and the Profile below compare only at equal
	// kernels, as they do only at equal worker counts.
	Kernel string `json:"kernel,omitempty"`

	// Profile is the process-wide stage/kernel histogram snapshot,
	// present only while profiling is enabled (obs.Enable). It rides
	// the stats frame so the cluster router can merge per-shard
	// profiles exactly (bucket counts sum) into a fabric-wide one.
	Profile *obs.Snapshot `json:"profile,omitempty"`

	// Tenants is the per-tenant breakdown of a total, sorted by tenant
	// name.
	Tenants []Stats `json:"tenants,omitempty"`
}

// add folds o's books into st: counters, levels, phases and the
// key-cache figures add, ratios are recomputed from the sums, and the
// percentiles take the worse of the two (summing percentiles would
// mean nothing). It is the one summation behind every total: total
// folds a service's tenants into its totals with it, MergeStats one
// tenant's slices on several shards into that tenant's books.
func (st *Stats) add(o Stats) {
	st.Submitted += o.Submitted
	st.Served += o.Served
	st.Failed += o.Failed
	st.Groups += o.Groups
	st.ModUps += o.ModUps
	st.Coalesced += o.Coalesced
	st.KeyExpansions += o.KeyExpansions
	st.CoalescingFactor = 0
	if st.ModUps > 0 {
		st.CoalescingFactor = float64(st.Served) / float64(st.ModUps)
	}
	st.P50, st.P99 = max(st.P50, o.P50), max(st.P99, o.P99)
	st.PerLevel = addLevels(st.PerLevel, o.PerLevel)
	st.Phases = addPhases(st.Phases, o.Phases)
	st.Keys.add(o.Keys)
	st.Keys.Tenant = st.Tenant
}

// total is the Stats of a set of tenants: every counter, level slice,
// phase and key-cache figure is the sum of theirs, and the percentiles
// are the worst tenant's. What no sum of tenants gives — percentiles
// over a wider window, the cache budget, the kernel, the profile — is
// the caller's to set. tenants must be sorted by name; the result
// holds the slice.
func total(tenants []Stats) Stats {
	var st Stats
	for _, ts := range tenants {
		st.add(ts)
		st.Keys.Tenants = append(st.Keys.Tenants, ts.Keys)
	}
	st.Batches = st.Groups
	st.Tenants = tenants
	return st
}

// KernelMixed is the Kernel of a merge over services that ran different
// kernel bodies.
const KernelMixed = "mixed"

// MergeStats sums snapshots of several services — a cluster's shards —
// into one fabric-wide view. Tenants merge by name, and the totals are
// then derived from the merged tenants exactly as a single service
// derives its own, not taken from the parts; cache budgets add, the
// kernel is the parts' or KernelMixed, the profiles merge exactly (per-bucket counts sum, so the result is what
// one recorder observing every part's events would hold), and the
// percentiles are the worst part's. It is associative and independent
// of the order of its arguments, and shares no storage with them.
func MergeStats(parts ...Stats) Stats {
	byName := map[string]*Stats{}
	for _, p := range parts {
		for _, ts := range p.Tenants {
			e := byName[ts.Tenant]
			if e == nil {
				e = &Stats{Tenant: ts.Tenant}
				byName[ts.Tenant] = e
			}
			e.add(ts)
		}
	}
	var tenants []Stats
	for _, e := range byName {
		tenants = append(tenants, *e)
	}
	sort.Slice(tenants, func(a, b int) bool { return tenants[a].Tenant < tenants[b].Tenant })
	st := total(tenants)
	st.P50, st.P99 = 0, 0 // the worst part's, not the worst tenant's
	for _, p := range parts {
		st.Keys.BudgetBytes += p.Keys.BudgetBytes
		switch {
		case p.Kernel == "" || p.Kernel == st.Kernel: // a peer that predates the field says nothing
		case st.Kernel == "":
			st.Kernel = p.Kernel
		default:
			st.Kernel = KernelMixed
		}
		st.Profile = obs.Merge(st.Profile, p.Profile)
		st.P50, st.P99 = max(st.P50, p.P50), max(st.P99, p.P99)
	}
	return st
}

// ForTenant projects st onto one tenant: the total of that tenant
// alone, whose counters, percentiles, levels, phases and key figures
// are its entry in st.Tenants, so a replay's before/after deltas
// measure exactly its tenant's slice however many tenants — or,
// merged, shards — share the books. The cache budget is the shared
// one. A tenant st does not list gets the zero Stats.
func (st Stats) ForTenant(tenant string) Stats {
	for _, ts := range st.Tenants {
		if ts.Tenant == tenant {
			one := total([]Stats{ts})
			one.Keys.BudgetBytes = st.Keys.BudgetBytes
			return one
		}
	}
	return Stats{}
}

// snapshot reads one tenant's books: its counters, levels and phases,
// the percentiles of its latency window and — for the service to pool
// with the other tenants' — the window itself, sorted. keys is the
// tenant's shard of the key cache.
func (w *tenantWorker) snapshot(keys CacheStats) (Stats, []time.Duration) {
	window := w.lats.window()
	levels := w.levels.snapshot()
	var sum LevelStats
	for _, ls := range levels {
		sum.Switches += ls.Switches
		sum.ModUps += ls.ModUps
		sum.Coalesced += ls.Coalesced
	}
	ts := Stats{Tenant: w.tenant}
	ts.add(Stats{
		Submitted:     w.stats.submitted.Load(),
		Served:        sum.Switches,
		Failed:        w.stats.failed.Load(),
		Groups:        w.stats.groups.Load(),
		ModUps:        sum.ModUps,
		Coalesced:     sum.Coalesced,
		KeyExpansions: w.stats.expanded.Load(),
		P50:           percentile(window, 50),
		P99:           percentile(window, 99),
		PerLevel:      levels,
		Phases:        w.phases.snapshot(),
		Keys:          keys,
	})
	return ts, window
}

// Stats snapshots the service: every tenant's books, and their total.
func (s *Service) Stats() Stats {
	cache := s.keys.Stats()
	shard := make(map[string]CacheStats, len(cache.Tenants))
	for _, tc := range cache.Tenants {
		shard[tc.Tenant] = tc
	}
	s.mu.RLock()
	workers := make([]*tenantWorker, 0, len(s.workers))
	for _, w := range s.workers {
		workers = append(workers, w)
	}
	s.mu.RUnlock()
	sort.Slice(workers, func(a, b int) bool { return workers[a].tenant < workers[b].tenant })

	tenants := make([]Stats, len(workers))
	var pooled []time.Duration
	for i, w := range workers {
		var window []time.Duration
		tenants[i], window = w.snapshot(shard[w.tenant])
		pooled = append(pooled, window...)
	}
	slices.Sort(pooled)
	st := total(tenants)
	st.P50, st.P99 = percentile(pooled, 50), percentile(pooled, 99)
	st.Keys.BudgetBytes = cache.BudgetBytes
	st.Kernel = mod.Kernel()
	st.Profile = obs.Active().Snapshot()
	return st
}

// latCap bounds the latency reservoir; beyond it the recorder keeps a
// sliding window of the most recent samples.
const latCap = 1 << 14

// latencyRecorder is a fixed-size ring of one tenant's recent request
// latencies.
type latencyRecorder struct {
	mu  sync.Mutex
	buf []time.Duration
	n   int // total recorded
}

func (l *latencyRecorder) record(d time.Duration) {
	l.mu.Lock()
	if len(l.buf) < latCap {
		l.buf = append(l.buf, d)
	} else {
		l.buf[l.n%latCap] = d
	}
	l.n++
	l.mu.Unlock()
}

// window returns a sorted copy of the recorded latencies.
func (l *latencyRecorder) window() []time.Duration {
	l.mu.Lock()
	sorted := append([]time.Duration(nil), l.buf...)
	l.mu.Unlock()
	slices.Sort(sorted)
	return sorted
}

// percentile reads the p-th percentile off a sorted window; 0 when it
// is empty.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)*p/100, len(sorted)-1)]
}
