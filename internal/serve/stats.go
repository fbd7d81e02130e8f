package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ciflow/internal/obs"
)

// serviceCounters are the hot-path counters (atomics: the group
// executor updates them from engine workers). One instance counts the
// whole service, one more counts each tenant's worker.
type serviceCounters struct {
	submitted atomic.Uint64
	served    atomic.Uint64
	failed    atomic.Uint64
	batches   atomic.Uint64
	groups    atomic.Uint64
	modUps    atomic.Uint64
	coalesced atomic.Uint64
	expanded  atomic.Uint64 // compressed keys expanded at replay time
}

// Request-lifecycle phases. Every served request passes through them
// in order; each phase's wall time is accumulated into always-on
// atomic counters (one set per tenant worker, one for the service),
// so the lifecycle breakdown costs a few time.Now() calls per request
// and needs no sampling or opt-in.
const (
	phaseEnqueue   = iota // Submit accepted → popped from the tenant queue
	phaseDispatch         // queue pop → the request's group starts executing
	phaseKeys             // key-cache fetch (and CheckMaterial) for the group
	phaseHoist            // shared Decompose+ModUp (HoistParallel)
	phaseGroupWait        // in a hoisted group, waiting on work booked to others
	phaseReplay           // per-key replay (Switch*Into), expansion wait included
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
// between its group starting and its own replay starting on work that
// is booked elsewhere — the other members' key fetches, the shared
// hoist (booked once per group, so every member but the first waits
// it out here), and the replays before its own. With it, the phases a
// request passes through sum to its submit-to-result time. Dividing
// TotalNs by Count yields the natural per-unit mean for each phase. Totals are exactly mergeable by summation (the cluster
// router relies on this, see MergePhases).
type PhaseStats struct {
	Phase   string `json:"phase"`
	Count   uint64 `json:"count"`
	TotalNs uint64 `json:"total_ns"`
}

// MergePhases sums two phase breakdowns entry-wise by phase name,
// preserving canonical phase order. Summation is exact (counts and
// nanoseconds are integers), so merging per-shard breakdowns
// reproduces the fabric-wide breakdown a single service would have
// recorded.
func MergePhases(a, b []PhaseStats) []PhaseStats {
	if len(a) == 0 {
		return append([]PhaseStats(nil), b...)
	}
	if len(b) == 0 {
		return append([]PhaseStats(nil), a...)
	}
	byName := make(map[string]PhaseStats, len(a)+len(b))
	for _, ps := range a {
		byName[ps.Phase] = ps
	}
	for _, ps := range b {
		e := byName[ps.Phase]
		e.Phase = ps.Phase
		e.Count += ps.Count
		e.TotalNs += ps.TotalNs
		byName[ps.Phase] = e
	}
	out := make([]PhaseStats, 0, len(byName))
	for _, name := range phaseNames {
		if e, ok := byName[name]; ok {
			out = append(out, e)
			delete(byName, name)
		}
	}
	// Unknown names (a newer peer's phases) go last, sorted.
	if len(byName) > 0 {
		rest := make([]PhaseStats, 0, len(byName))
		for _, e := range byName {
			rest = append(rest, e)
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].Phase < rest[j].Phase })
		out = append(out, rest...)
	}
	return out
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

// levelCounters aggregates the per-level counters. Unlike the hot
// per-request atomics it is mutex-guarded: it is touched once per
// *group* (runGroup), where a map update is noise next to the hoist
// graph it accounts for.
type levelCounters struct {
	mu sync.Mutex
	m  map[int]*LevelStats
}

func (lc *levelCounters) add(level int, switches, modUps, coalesced uint64) {
	lc.mu.Lock()
	if lc.m == nil {
		lc.m = make(map[int]*LevelStats)
	}
	e := lc.m[level]
	if e == nil {
		e = &LevelStats{Level: level}
		lc.m[level] = e
	}
	e.Switches += switches
	e.ModUps += modUps
	e.Coalesced += coalesced
	lc.mu.Unlock()
}

// snapshot returns the levels sorted descending from the top level,
// matching workload.Counts.PerLevel order.
func (lc *levelCounters) snapshot() []LevelStats {
	lc.mu.Lock()
	out := make([]LevelStats, 0, len(lc.m))
	for _, e := range lc.m {
		out = append(out, *e)
	}
	lc.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Level > out[b].Level })
	return out
}

// TenantStats is one tenant's slice of the service: its request
// counters, latency percentiles, and key-cache shard. Because batches
// and coalesced groups never span tenants, the per-tenant ModUps sum
// to the service total: zero cross-tenant coalesces
// (TestCrossTenantNoCoalesce).
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Submitted uint64 `json:"submitted"`
	Served    uint64 `json:"served"`
	Failed    uint64 `json:"failed"`
	Batches   uint64 `json:"batches"`
	Groups    uint64 `json:"groups"`
	ModUps    uint64 `json:"mod_ups"`
	Coalesced uint64 `json:"coalesced"`

	// KeyExpansions counts this tenant's streamed seed expansions of
	// compressed key material at replay time (0 for a dense source).
	KeyExpansions uint64 `json:"key_expansions"`

	// CoalescingFactor is this tenant's served requests per ModUp.
	CoalescingFactor float64 `json:"coalescing_factor"`

	// P50/P99 are submit-to-completion latencies over (up to) the last
	// 16384 requests this tenant had served — the numbers the tenant-
	// isolation test pins: a hot neighbour must not move them.
	P50 time.Duration `json:"p50"`
	P99 time.Duration `json:"p99"`

	// PerLevel is this tenant's switch/ModUp breakdown by ciphertext
	// level, descending from the top level.
	PerLevel []LevelStats `json:"per_level,omitempty"`

	// Phases is this tenant's request-lifecycle breakdown
	// (enqueue→dispatch→keys→hoist→group_wait→replay→reply).
	Phases []PhaseStats `json:"phases,omitempty"`

	Keys TenantCacheStats `json:"keys"`
}

// Stats is a point-in-time snapshot of the service.
type Stats struct {
	Submitted uint64 `json:"submitted"` // requests accepted by Submit
	Served    uint64 `json:"served"`    // requests completed with outputs
	Failed    uint64 `json:"failed"`    // requests completed with an error
	Batches   uint64 `json:"batches"`   // gather windows executed (all tenants)
	Groups    uint64 `json:"groups"`    // (tenant, level, input, dataflow) groups formed
	ModUps    uint64 `json:"mod_ups"`   // Decompose+ModUp executions
	Coalesced uint64 `json:"coalesced"` // requests served from a shared hoisted state

	// KeyExpansions counts streamed seed expansions of compressed key
	// material at replay time: every use of a compressed cache entry
	// expands it once, overlapped with the hoist phase. 0 means the
	// key source hands the cache dense keys.
	KeyExpansions uint64 `json:"key_expansions"`

	// CoalescingFactor is served requests per ModUp execution: 1.0
	// means no sharing, k means every request amortized its ModUp
	// across k requests — the cross-request counterpart of the paper's
	// hoisting model (hks.HoistedOpsSaved).
	CoalescingFactor float64 `json:"coalescing_factor"`

	Keys CacheStats `json:"keys"`

	// P50/P99 are submit-to-completion latencies over (up to) the last
	// 16384 served requests, across all tenants.
	P50 time.Duration `json:"p50"`
	P99 time.Duration `json:"p99"`

	// PerLevel is the switch/ModUp breakdown by ciphertext level,
	// descending from the top level. Per level, Switches sum the served
	// requests and ModUps the hoisted Decompose+ModUp executions, so
	// summing the slice reproduces the Served and ModUps totals.
	PerLevel []LevelStats `json:"per_level,omitempty"`

	// Phases is the request-lifecycle breakdown across all tenants:
	// accumulated wall time per phase from Submit to result delivery.
	Phases []PhaseStats `json:"phases,omitempty"`

	// Profile is the process-wide stage/kernel histogram snapshot,
	// present only while profiling is enabled (obs.Enable). It rides
	// the stats frame so the cluster router can merge per-shard
	// profiles exactly (bucket counts sum) into a fabric-wide one.
	Profile *obs.Snapshot `json:"profile,omitempty"`

	// Tenants is the per-tenant breakdown, sorted by tenant name.
	Tenants []TenantStats `json:"tenants"`
}

// Snapshot returns a deep copy of st: the slices (per-tenant,
// per-level, cache breakdowns) share no storage with the original, so
// the copy is safe to hold, mutate, or serialize while the service
// keeps running and later Stats() calls produce new snapshots.
// Service.Stats() already builds fresh slices on every call; Snapshot
// is for callers that aggregate or forward Stats values (the cluster
// wire protocol ships them as JSON frames) and must not alias them.
func (st Stats) Snapshot() Stats {
	st.Keys = st.Keys.Snapshot()
	st.PerLevel = append([]LevelStats(nil), st.PerLevel...)
	st.Phases = append([]PhaseStats(nil), st.Phases...)
	// Merge of a single snapshot rebuilds every slice, so the copy
	// shares no storage with the original.
	st.Profile = obs.Merge(st.Profile)
	if st.Tenants != nil {
		tenants := make([]TenantStats, len(st.Tenants))
		for i, ts := range st.Tenants {
			ts.PerLevel = append([]LevelStats(nil), ts.PerLevel...)
			ts.Phases = append([]PhaseStats(nil), ts.Phases...)
			tenants[i] = ts
		}
		st.Tenants = tenants
	}
	return st
}

// ForTenant projects st onto one tenant as a Stats value of its own:
// that tenant's counters, percentiles and per-level breakdown in the
// service-wide fields, so a replay's before/after deltas measure
// exactly its tenant's slice however many tenants — or, aggregated,
// shards — share the books. A tenant st does not list gets the zero
// Stats.
func (st Stats) ForTenant(tenant string) Stats {
	for _, ts := range st.Tenants {
		if ts.Tenant != tenant {
			continue
		}
		return Stats{
			Submitted: ts.Submitted, Served: ts.Served, Failed: ts.Failed,
			Batches: ts.Batches, Groups: ts.Groups, ModUps: ts.ModUps,
			Coalesced: ts.Coalesced, KeyExpansions: ts.KeyExpansions,
			CoalescingFactor: ts.CoalescingFactor,
			P50:              ts.P50, P99: ts.P99,
			PerLevel: append([]LevelStats(nil), ts.PerLevel...),
			Tenants:  []TenantStats{ts},
		}
	}
	return Stats{}
}

// Snapshot returns a deep copy of cs whose Tenants slice shares no
// storage with the original.
func (cs CacheStats) Snapshot() CacheStats {
	cs.Tenants = append([]TenantCacheStats(nil), cs.Tenants...)
	return cs
}

// Stats snapshots the service counters, cache counters, latency
// percentiles, and the per-tenant breakdown.
func (s *Service) Stats() Stats {
	st := Stats{
		Submitted:     s.stats.submitted.Load(),
		Served:        s.stats.served.Load(),
		Failed:        s.stats.failed.Load(),
		Batches:       s.stats.batches.Load(),
		Groups:        s.stats.groups.Load(),
		ModUps:        s.stats.modUps.Load(),
		Coalesced:     s.stats.coalesced.Load(),
		KeyExpansions: s.stats.expanded.Load(),
		Keys:          s.keys.Stats(),
	}
	if st.ModUps > 0 {
		st.CoalescingFactor = float64(st.Served) / float64(st.ModUps)
	}
	st.P50, st.P99 = s.lats.percentiles()
	st.PerLevel = s.levels.snapshot()
	st.Phases = s.phases.snapshot()
	st.Profile = obs.Active().Snapshot()

	keyShards := make(map[string]TenantCacheStats, len(st.Keys.Tenants))
	for _, ts := range st.Keys.Tenants {
		keyShards[ts.Tenant] = ts
	}
	s.mu.RLock()
	st.Tenants = s.tenantStatsLocked(keyShards)
	s.mu.RUnlock()
	return st
}

// latCap bounds the latency reservoir; beyond it the recorder keeps a
// sliding window of the most recent samples.
const latCap = 1 << 14

// latencyRecorder is a fixed-size ring of recent request latencies.
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

func (l *latencyRecorder) percentiles() (p50, p99 time.Duration) {
	l.mu.Lock()
	sorted := append([]time.Duration(nil), l.buf...)
	l.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	at := func(p int) time.Duration {
		idx := len(sorted) * p / 100
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return sorted[idx]
	}
	return at(50), at(99)
}
