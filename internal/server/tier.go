package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/perfmodel"
	"prefcolor/internal/target"
)

// Tiered allocation: with Config.Tier on, a cacheable pref-full
// request is first answered by the linear-scan fast path — a valid
// allocation, produced in a small fraction of pref-full's latency —
// and the cache entry is then upgraded in the background by re-running
// the request through the full preference-directed pipeline and
// atomically swapping the entry. The response (and the cache entry it
// came from) names its tier in the X-Prefgcd-Tier header and the
// "tier" body field, so callers that care about allocation quality can
// poll the same request until it reports "full"; callers that only
// need a correct allocation quickly take the first answer.
//
// Upgrades run on the server's own workers, in the queue's low lane
// (queue.go): a worker takes one only when no request job is waiting
// and no other upgrade runs, so upgrades fill idle time, leave the
// other workers to requests and never hold a request slot. A bounded
// queue (upgradeQueueCap) keeps the waiting upgrades, a pending set
// single-flights them per cache key, and a full queue sheds the
// upgrade (the fast entry simply remains) rather than blocking any
// serving path. The queue is hotness-ordered, not FIFO: a worker
// always takes the pending job whose cache entry has served the most
// hits (ties broken by arrival order), so a key being polled by many
// callers upgrades ahead of a cold backlog. An upgrade runs through
// runJob like any job, so a panic in it is contained there. Draining
// stops new upgrade admissions immediately; Close cancels the
// in-flight upgrades and drops the queued ones, since an upgrade is a
// quality improvement to an already-correct cached result, never owed
// work.

// Entry (and response) tier names.
const (
	tierFast = "fast" // linear-scan fast path; upgrade pending or shed
	tierFull = "full" // the request's own allocator ran to completion
)

// tierApplies reports whether a request takes the tiered path: the
// tier serves as a stand-in for the preference-directed default only,
// and an uncacheable request has no entry to upgrade.
func (s *Server) tierApplies(spec Spec) bool {
	return s.cfg.Tier && !spec.NoCache && spec.Allocator == "pref-full"
}

// computeFast is the fast-tier counterpart of compute: the same
// prologue (prepare), but allocation through linearscan.Run on
// the tier's own workspace pool (a pooled driver workspace has one
// allocator slot, which the upgrades' pref-full runs would keep
// evicting). Rematerialize and BlockLocalSpills are driver spill
// refinements the fast path does not implement; they reach the
// full-tier upgrade untouched, since the spec — options included —
// keys the entry being upgraded.
func (s *Server) computeFast(ctx context.Context, in srcInput, spec Spec,
	machine *target.Machine) (*entry, int, error) {

	f, code, err := prepare(in, spec)
	if err != nil {
		return nil, code, err
	}
	if ctx.Err() != nil {
		return nil, http.StatusGatewayTimeout, ctx.Err()
	}
	ws := s.fastWS.get()
	defer s.fastWS.put(ws)
	out, stats, err := linearscan.Run(f, machine, linearscan.RunOptions{
		MaxRounds: spec.MaxRounds,
		Workspace: ws,
	})
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	text := out.String()
	return newEntry(text, bench.TextDigest(f.Name, stats, text), statsFrom(stats),
		tierFast, perfmodel.Estimate(out, machine).Cycles), 0, nil
}

// upgradeQueueCap bounds the waiting upgrades; a full queue sheds
// (the fast entry remains).
const upgradeQueueCap = 256

// upgrader holds the upgrade lane's waiting jobs in a bounded
// hotness-ordered queue, and a pending set that single-flights
// upgrades per cache key. The server's workers run them.
type upgrader struct {
	// qmu guards the queue, which stays in arrival order; pop scans it
	// for the hottest key at pop time (hit counts keep changing while a
	// job waits, so ordering at push time would go stale). The queue is
	// bounded by upgradeQueueCap and small, so the scan is cheap next to
	// the pref-full run each pop triggers.
	qmu   sync.Mutex
	queue []upgradeJob

	pmu     sync.Mutex
	pending map[Key]struct{}
}

// push appends job in arrival order, reporting false when the queue is
// at capacity (the caller sheds).
func (u *upgrader) push(job upgradeJob) bool {
	u.qmu.Lock()
	defer u.qmu.Unlock()
	if len(u.queue) >= upgradeQueueCap {
		return false
	}
	u.queue = append(u.queue, job)
	return true
}

// pop removes and returns the hottest queued job: the maximum
// hits(key) at pop time, earliest-arrived on ties (strict > over the
// arrival-ordered queue keeps the FIFO tie-break). ok is false when
// the queue is empty.
func (u *upgrader) pop(hits func(Key) int64) (job upgradeJob, ok bool) {
	u.qmu.Lock()
	defer u.qmu.Unlock()
	if len(u.queue) == 0 {
		return upgradeJob{}, false
	}
	best := 0
	bestHits := hits(u.queue[0].key)
	for i := 1; i < len(u.queue); i++ {
		if h := hits(u.queue[i].key); h > bestHits {
			best, bestHits = i, h
		}
	}
	job = u.queue[best]
	u.queue = append(u.queue[:best], u.queue[best+1:]...)
	return job, true
}

// release ends key's single flight.
func (u *upgrader) release(key Key) {
	u.pmu.Lock()
	delete(u.pending, key)
	u.pmu.Unlock()
}

// upgradeJob re-derives one cache entry at full quality. It carries
// the request's wire form, never the decoded function — the fast
// compute may have rewritten the decoded form in place (SSA
// optimization mutates), so the upgrade decodes fresh.
type upgradeJob struct {
	key        Key
	in         srcInput
	spec       Spec
	machine    *target.Machine
	fastCycles float64
	enqueued   time.Time
}

// upgradeDepth returns the queue's (depth, capacity) for metrics.
func (s *Server) upgradeDepth() (int, int) {
	if s.upgrades == nil {
		return 0, 0
	}
	s.upgrades.qmu.Lock()
	defer s.upgrades.qmu.Unlock()
	return len(s.upgrades.queue), upgradeQueueCap
}

// enqueueUpgrade schedules the escalation of key's cache entry on the
// workers' low lane. A key already pending is skipped (single flight);
// a full queue sheds the job and counts the shed; a draining server
// admits no new upgrades. in should carry the wire form only; see
// upgradeJob.
func (s *Server) enqueueUpgrade(key Key, in srcInput, spec Spec,
	machine *target.Machine, fastCycles float64) {

	if s.draining.Load() {
		return
	}
	u := s.upgrades
	u.pmu.Lock()
	if _, dup := u.pending[key]; dup {
		u.pmu.Unlock()
		return
	}
	u.pending[key] = struct{}{}
	u.pmu.Unlock()

	if !u.push(upgradeJob{key: key, in: in, spec: spec, machine: machine,
		fastCycles: fastCycles, enqueued: time.Now()}) {
		s.metrics.CountTierShed()
		u.release(key)
		return
	}
	s.queue.AddLow()
}

// runUpgrade runs the hottest waiting upgrade as one job on the
// calling worker: it re-computes the entry through the standard full
// pipeline under ctx, with MaxTimeout from its start, and atomically
// swaps the cache entry (lru.Cache.Add refreshes in place under the
// cache lock, keeping the entry's hit count). An entry evicted between
// fast compute and upgrade completion is simply re-inserted at full
// quality — harmless, and the next request hits it. A panicking or
// failing upgrade leaves the fast entry; a cancelled ctx means the
// server is closing, which is not a failure.
func (s *Server) runUpgrade(ctx context.Context) {
	job, ok := s.upgrades.pop(s.cache.Hits)
	if !ok || ctx.Err() != nil { // a closing server drops what waits
		return
	}
	finish := func(e *entry, _ int, err error) {
		switch {
		case err == nil:
			s.cache.Add(job.key, e)
			s.metrics.CountTierUpgrade(time.Since(job.enqueued), job.fastCycles, e.Cycles)
		case ctx.Err() == nil:
			s.metrics.CountTierUpgradeFailed()
		}
		s.upgrades.release(job.key)
	}
	s.runJob(finish, func() (*entry, int, error) {
		jobCtx, cancel := context.WithTimeout(ctx, s.cfg.MaxTimeout)
		defer cancel()
		return s.compute(jobCtx, job.in, job.spec, job.machine, true, false)
	})
}
