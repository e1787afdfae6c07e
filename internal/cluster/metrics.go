package cluster

import (
	"sort"
	"sync"

	"prefcolor/internal/promtext"
)

// routerMetrics is the router's counter registry, rendered as
// Prometheus text exposition on the router's /metrics. Everything is
// keyed per shard so per-shard rps (rate of forwards_total), hit
// ratio (hits vs misses), and rehash counts are one scrape away.
type routerMetrics struct {
	mu       sync.Mutex
	ids      []string         // stable label order
	requests promtext.Codes   // endpoint -> status -> count (router's own)
	forwards promtext.Codes   // replica -> status -> count
	hits     map[string]int64 // replica -> cache hits observed
	misses   map[string]int64 // replica -> cache misses observed
	rehashes map[string]int64 // replica -> non-home serves
	retries  map[string]int64 // reason -> count
	states   map[string]int32 // replica -> health state

	bodyHits   int64 // JSON allocate bodies routed from the body memo
	bodyParses int64 // JSON allocate bodies that needed a full parse
}

func newRouterMetrics(ids []string) *routerMetrics {
	m := &routerMetrics{
		ids:      append([]string(nil), ids...),
		requests: promtext.Codes{},
		forwards: promtext.Codes{},
		hits:     make(map[string]int64),
		misses:   make(map[string]int64),
		rehashes: make(map[string]int64),
		retries:  make(map[string]int64),
		states:   make(map[string]int32),
	}
	sort.Strings(m.ids)
	return m
}

// CountRequest tallies one finished router HTTP request.
func (m *routerMetrics) CountRequest(endpoint string, code int) {
	m.mu.Lock()
	m.requests.Add(endpoint, code)
	m.mu.Unlock()
}

// CountForward tallies one response obtained from a replica.
func (m *routerMetrics) CountForward(replica string, code int) {
	m.mu.Lock()
	m.forwards.Add(replica, code)
	m.mu.Unlock()
}

// CountCache tallies a replica-reported cache disposition.
func (m *routerMetrics) CountCache(replica string, hit bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if hit {
		m.hits[replica]++
	} else {
		m.misses[replica]++
	}
}

// CountRehash tallies a request served by a shard that is not the
// key's home — the cost of failover, paid as a cold compute on a
// foreign shard.
func (m *routerMetrics) CountRehash(replica string) {
	m.mu.Lock()
	m.rehashes[replica]++
	m.mu.Unlock()
}

// CountRetry tallies one retry by reason (conn, draining, http5xx, 429).
func (m *routerMetrics) CountRetry(reason string) {
	m.mu.Lock()
	m.retries[reason]++
	m.mu.Unlock()
}

// CountBody tallies one JSON allocate routing decision: served from
// the raw-body memo (hit) or paid for with a JSON parse.
func (m *routerMetrics) CountBody(hit bool) {
	m.mu.Lock()
	if hit {
		m.bodyHits++
	} else {
		m.bodyParses++
	}
	m.mu.Unlock()
}

// SetState records the router's belief about a replica's health.
func (m *routerMetrics) SetState(replica string, state int32) {
	m.mu.Lock()
	m.states[replica] = state
	m.mu.Unlock()
}

// Counters returns per-replica (forwards, hits, misses, rehashes)
// totals — the simulator's accounting hook.
func (m *routerMetrics) Counters(replica string) (forwards, hits, misses, rehashes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.forwards[replica] {
		forwards += n
	}
	return forwards, m.hits[replica], m.misses[replica], m.rehashes[replica]
}

// Render writes the Prometheus text exposition.
func (m *routerMetrics) Render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var w promtext.Writer
	perReplica := func(name, help string, vals map[string]int64) {
		w.Family(name, "counter", help)
		for _, id := range m.ids {
			w.Int(name, vals[id], "replica", id)
		}
	}

	w.Family("prefgcd_router_requests_total", "counter", "Router HTTP requests by endpoint and status code.")
	w.ByCode("prefgcd_router_requests_total", "endpoint", m.requests)
	w.Family("prefgcd_router_forwards_total", "counter", "Responses obtained from replicas, by replica and status code.")
	w.ByCode("prefgcd_router_forwards_total", "replica", m.forwards)
	perReplica("prefgcd_router_cache_hits_total",
		"Forwarded requests the replica served from its result cache.", m.hits)
	perReplica("prefgcd_router_cache_misses_total",
		"Forwarded requests the replica computed fresh.", m.misses)
	perReplica("prefgcd_router_rehash_total",
		"Requests served by a non-home shard after failover.", m.rehashes)

	w.Family("prefgcd_router_retries_total", "counter", "Forwarding retries by reason.")
	w.ByKey("prefgcd_router_retries_total", "reason", m.retries)

	w.Family("prefgcd_router_body_memo_total", "counter", "JSON allocate routing decisions by source.")
	w.Int("prefgcd_router_body_memo_total", m.bodyHits, "outcome", "hit")
	w.Int("prefgcd_router_body_memo_total", m.bodyParses, "outcome", "parse")

	w.Family("prefgcd_router_replica_state", "gauge", "Router's belief about each replica (0 healthy, 1 draining, 2 down).")
	for _, id := range m.ids {
		w.Int("prefgcd_router_replica_state", int64(m.states[id]), "replica", id)
	}
	return w.String()
}
