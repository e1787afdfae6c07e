// Package cluster scales the prefgcd daemon horizontally: a stateless
// router consistent-hashes each request's content-addressed cache key
// (the same sha256(EncodeBinary(f))+spec identity the replica caches
// under, via server.KeyResolver and server.KeyFor) across N prefgcd
// replicas. Each shard therefore owns a disjoint slice of the key
// space and its LRU stays hot: a key never computes on two shards at
// once in a healthy cluster, so the replica-local single-flight is
// also the cluster-wide single-flight.
//
// The router tracks replica health both passively (connection
// failures and draining refusals observed on forwarded requests) and
// actively (periodic /healthz probes), retries shard failures on the
// ring's successor replicas with bounded backoff, honors 429
// Retry-After admission refusals, and exposes per-shard Prometheus
// metrics (requests, cache hits, rehashes, retries).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodesPerReplica is the virtual-node count per replica: enough that
// three replicas split the key space within a few percent of evenly,
// small enough that ring rebuilds are trivially cheap.
const vnodesPerReplica = 128

// ring is an immutable consistent-hash ring over replica IDs. Lookup
// walks the ring clockwise from the key's point and returns replicas
// in preference order: the first is the key's home shard, the rest
// are the failover order. The ring depends only on the replica ID
// set and vnode count — not on join order or URLs — so any router
// instance with the same membership routes identically (statelessness
// across router restarts and router fleets).
type ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // distinct replica IDs, sorted
}

type ringPoint struct {
	hash uint64
	id   string
}

// newRing builds the ring for the given replica IDs.
func newRing(ids []string, vnodes int) *ring {
	r := &ring{ids: append([]string(nil), ids...)}
	sort.Strings(r.ids)
	r.points = make([]ringPoint, 0, len(r.ids)*vnodes)
	for _, id := range r.ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(id, v), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id // deterministic tie-break
	})
	return r
}

// pointHash places vnode v of replica id on the ring.
func pointHash(id string, v int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", id, v)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPoint places a request key on the ring. The key is already a
// sha256 output, so its first word is uniformly distributed.
func keyPoint(key [sha256.Size]byte) uint64 {
	return binary.BigEndian.Uint64(key[:8])
}

// lookup returns every replica ID in preference order for key: the
// home shard first, then each distinct successor clockwise. The
// caller applies health filtering — the ring itself is pure topology.
func (r *ring) lookup(key [sha256.Size]byte) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := keyPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	order := make([]string, 0, len(r.ids))
	seen := make(map[string]bool, len(r.ids))
	for i := 0; i < len(r.points) && len(order) < len(r.ids); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			order = append(order, p.id)
		}
	}
	return order
}

// home returns only the key's first-choice shard.
func (r *ring) home(key [sha256.Size]byte) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyPoint(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.points[i%len(r.points)].id
}
