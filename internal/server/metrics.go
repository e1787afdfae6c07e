package server

import (
	"runtime"
	"sync"
	"time"

	"prefcolor/internal/promtext"
	"prefcolor/internal/telemetry"
)

// metrics is the daemon's counter registry, rendered as Prometheus
// text exposition on /metrics. Request counters are keyed by endpoint
// and status code; allocation telemetry is merged from every completed
// job, so the phase timers and preference counters of the whole
// service lifetime are one scrape away.
type metrics struct {
	mu       sync.Mutex
	requests promtext.Codes     // endpoint -> status code -> count
	dropped  int64              // jobs whose deadline expired while queued
	executed int64              // jobs actually run by the pool
	tel      telemetry.Snapshot // merged across all completed allocations

	// Tier-mode counters (all zero when tiering is off).
	tierServed      map[string]int64 // responses by serving tier
	tierUpgrades    int64            // cache entries escalated to full
	tierUpgradeFail int64            // upgrades that errored
	tierSheds       int64            // upgrades dropped by a full queue
	tierUpgradeSec  float64          // total enqueue-to-swap upgrade time
	tierFastCycles  float64          // estimated cycles of upgraded entries, fast tier
	tierFullCycles  float64          // estimated cycles of upgraded entries, full tier
}

func newMetrics() *metrics {
	return &metrics{
		requests:   promtext.Codes{},
		tierServed: make(map[string]int64),
	}
}

// CountRequest tallies one finished HTTP request.
func (m *metrics) CountRequest(endpoint string, code int) {
	m.mu.Lock()
	m.requests.Add(endpoint, code)
	m.mu.Unlock()
}

// CountDropped tallies a job abandoned in the queue past its deadline.
func (m *metrics) CountDropped() {
	m.mu.Lock()
	m.dropped++
	m.mu.Unlock()
}

// CountTierServed tallies one response by the tier that produced it.
func (m *metrics) CountTierServed(tier string) {
	m.mu.Lock()
	m.tierServed[tier]++
	m.mu.Unlock()
}

// CountTierShed tallies an upgrade dropped by a full queue.
func (m *metrics) CountTierShed() {
	m.mu.Lock()
	m.tierSheds++
	m.mu.Unlock()
}

// CountTierUpgradeFailed tallies an upgrade whose full-pipeline
// re-computation errored.
func (m *metrics) CountTierUpgradeFailed() {
	m.mu.Lock()
	m.tierUpgradeFail++
	m.mu.Unlock()
}

// CountTierUpgrade tallies one completed cache-entry escalation: its
// enqueue-to-swap latency and the estimated cycles of the entry before
// (fast) and after (full), the service-level quality delta.
func (m *metrics) CountTierUpgrade(elapsed time.Duration, fastCycles, fullCycles float64) {
	m.mu.Lock()
	m.tierUpgrades++
	m.tierUpgradeSec += elapsed.Seconds()
	m.tierFastCycles += fastCycles
	m.tierFullCycles += fullCycles
	m.mu.Unlock()
}

// CountExecuted merges one completed allocation's telemetry.
func (m *metrics) CountExecuted(snap *telemetry.Snapshot) {
	m.mu.Lock()
	m.executed++
	m.tel.Merge(snap)
	m.mu.Unlock()
}

// Render writes the Prometheus text exposition. The server passes in
// the live queue, cache, and workspace-pool gauges so the scrape
// reflects the moment.
func (m *metrics) Render(queueDepth, queueCapacity, cacheEntries int,
	cacheHits, cacheMisses, cacheEvictions, flightShared, wsGets, wsNews int64,
	upgradeDepth, upgradeCapacity int) string {

	m.mu.Lock()
	defer m.mu.Unlock()
	var w promtext.Writer

	w.Family("prefgcd_requests_total", "counter", "HTTP requests by endpoint and status code.")
	w.ByCode("prefgcd_requests_total", "endpoint", m.requests)

	w.Gauge("prefgcd_queue_depth", "Admitted jobs not yet finished.", int64(queueDepth))
	w.Gauge("prefgcd_queue_capacity", "Admission bound of the work queue.", int64(queueCapacity))
	w.Gauge("prefgcd_cache_entries", "Entries resident in the result cache.", int64(cacheEntries))
	w.Counter("prefgcd_cache_hits_total", "Allocate requests served from the result cache.", cacheHits)
	w.Counter("prefgcd_cache_misses_total", "Allocate requests that missed the result cache.", cacheMisses)
	w.Counter("prefgcd_cache_evictions_total", "Entries evicted from the result cache.", cacheEvictions)
	w.Counter("prefgcd_singleflight_shared_total", "Requests served by another request's in-flight computation.", flightShared)
	w.Counter("prefgcd_jobs_executed_total", "Allocation jobs run by the worker pool.", m.executed)
	w.Counter("prefgcd_jobs_deadline_dropped_total", "Queued jobs abandoned because their deadline expired before a worker picked them up.", m.dropped)

	// Workspace pool economics: a "hit" is a get that found a pooled
	// arena instead of constructing one.
	w.Counter("prefgcd_workspace_pool_gets_total", "Workspace borrows by allocation jobs.", wsGets)
	w.Counter("prefgcd_workspace_pool_news_total", "Workspace borrows that had to construct a fresh arena.", wsNews)
	hitRate := 0.0
	if wsGets > 0 {
		hitRate = float64(wsGets-wsNews) / float64(wsGets)
	}
	w.GaugeFloat("prefgcd_workspace_pool_hit_ratio", "Fraction of workspace borrows served from the pool.", hitRate)

	// Tiered allocation: the fast/full serving mix, the background
	// escalation pipeline, and the quality delta the fast tier trades
	// for its latency (ratio of the two cycle counters).
	w.Family("prefgcd_tier_served_total", "counter", "Responses by the tier of the allocation served.")
	w.ByKey("prefgcd_tier_served_total", "tier", m.tierServed)
	w.Counter("prefgcd_tier_upgrades_total", "Cache entries escalated from fast to full tier.", m.tierUpgrades)
	w.Counter("prefgcd_tier_upgrade_failures_total", "Upgrades whose full re-computation errored.", m.tierUpgradeFail)
	w.Counter("prefgcd_tier_upgrade_sheds_total", "Upgrades dropped because the upgrade queue was full.", m.tierSheds)
	w.CounterFloat("prefgcd_tier_upgrade_seconds_total", "Cumulative enqueue-to-swap upgrade latency.", m.tierUpgradeSec)
	w.Gauge("prefgcd_tier_upgrade_queue_depth", "Upgrade jobs waiting for the background worker.", int64(upgradeDepth))
	w.Gauge("prefgcd_tier_upgrade_queue_capacity", "Admission bound of the upgrade queue.", int64(upgradeCapacity))
	w.CounterFloat("prefgcd_tier_fast_cycles_total", "Estimated cycles of upgraded entries as served by the fast tier.", m.tierFastCycles)
	w.CounterFloat("prefgcd_tier_full_cycles_total", "Estimated cycles of the same entries after their full-tier upgrade.", m.tierFullCycles)

	// Process-wide memory gauges, read at scrape time (go_memstats
	// style): live heap and completed GC cycles, putting the per-job
	// allocation counters below in context.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.Gauge("prefgcd_heap_inuse_bytes", "Bytes in in-use heap spans at scrape time.", int64(ms.HeapInuse))
	w.Counter("prefgcd_heap_alloc_bytes_total", "Cumulative bytes allocated on the heap by the process.", int64(ms.TotalAlloc))
	w.Counter("prefgcd_gc_cycles_total", "Completed GC cycles over the process lifetime.", int64(ms.NumGC))

	w.Counter("prefgcd_alloc_functions_total", "Functions allocated.", int64(m.tel.Funcs))
	w.Counter("prefgcd_alloc_rounds_total", "Spill rounds run.", int64(m.tel.Rounds))
	w.Counter("prefgcd_alloc_selections_total", "CPG selection steps processed.", m.tel.Selections)
	w.Counter("prefgcd_alloc_select_spills_total", "Selections spilled for want of a candidate register.", m.tel.SelectSpills)
	w.Counter("prefgcd_alloc_active_spills_total", "Would-rather-be-in-memory active spills.", m.tel.ActiveSpills)
	w.Counter("prefgcd_alloc_recolors_total", "Recoloring plans applied.", m.tel.Recolors)
	w.Counter("prefgcd_alloc_heap_bytes_total", "Heap bytes charged to allocation runs (telemetry deltas; over-approximates under concurrency).", int64(m.tel.BytesAllocated))
	w.Counter("prefgcd_alloc_gc_cycles_total", "GC cycles completed during allocation runs (telemetry deltas).", int64(m.tel.GCCycles))

	w.Family("prefgcd_alloc_phase_wall_seconds", "counter", "Cumulative wall time per allocation phase.")
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		w.Float("prefgcd_alloc_phase_wall_seconds", m.tel.Phases[p].Wall.Seconds(), "phase", p.String())
	}

	w.Family("prefgcd_alloc_prefs_total", "counter", "Preference dispositions by kind and outcome.")
	for c := telemetry.PrefClass(0); c < telemetry.NumPrefClasses; c++ {
		for o := telemetry.Outcome(0); o < telemetry.NumOutcomes; o++ {
			w.Int("prefgcd_alloc_prefs_total", m.tel.Prefs[c][o], "kind", c.String(), "outcome", o.String())
		}
	}
	return w.String()
}
