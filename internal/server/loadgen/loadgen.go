// Package loadgen drives sustained concurrent traffic against a live
// prefgcd daemon from the synthetic workload corpora and reports
// throughput, latency percentiles, and cache behavior — the harness
// behind BENCH_PR3.json and the CI service smoke.
//
// Each client goroutine draws functions from the corpus with its own
// seeded RNG, posts them to /v1/allocate, and records one sample per
// request. 429 responses (the daemon's admission control shedding
// load) are counted and retried after a short backoff; any two
// responses for the same corpus item must carry the same allocation
// digest, so the generator doubles as a cross-request determinism
// check against the service's cache and single-flight paths.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/server"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// Item is one corpus entry: a named function in the textual IR plus
// its canonical binary encoding (for Options.Binary runs).
type Item struct {
	Name   string
	Source string
	Binary []byte
}

// CorpusFromProfiles serializes the named workload profiles ("all"
// for every benchmark, "large" for the stress profile, or a comma
// list like "compress,jess") into a corpus lowered for machine m.
func CorpusFromProfiles(names string, m *target.Machine) ([]Item, error) {
	var profiles []workload.Profile
	switch names {
	case "", "all":
		profiles = workload.Benchmarks()
	default:
		for _, name := range strings.Split(names, ",") {
			name = strings.TrimSpace(name)
			if name == "large" {
				profiles = append(profiles, workload.Large())
				continue
			}
			p, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, p)
		}
	}
	var corpus []Item
	for _, p := range profiles {
		for _, f := range workload.Generate(p, m) {
			corpus = append(corpus, Item{
				Name:   f.Name,
				Source: f.String(),
				Binary: ir.EncodeBinary(f),
			})
		}
	}
	return corpus, nil
}

// Options configures one load run.
type Options struct {
	// BaseURL locates the daemon (e.g. "http://localhost:8377").
	BaseURL string

	// Corpus is the function pool; required.
	Corpus []Item

	// Concurrency is the client goroutine count; 0 means 4.
	Concurrency int

	// Duration bounds the run; 0 means 5s.
	Duration time.Duration

	// MaxRequests, when positive, stops the run after that many
	// requests even if Duration has not elapsed.
	MaxRequests int

	// Allocator, Machine, K, and TimeoutMS are forwarded on every
	// request (zero values let the daemon's defaults apply).
	Allocator string
	Machine   string
	K         int
	TimeoutMS int

	// Seed makes the corpus-picking sequence deterministic; 0 means 1.
	Seed int64

	// Cold sends no_cache on every request, so the daemon parses (or
	// decodes) and allocates each one from scratch — the honest
	// cold-path measurement. Canonical cache keys make comment-salting
	// tricks ineffective, so this is the only way to measure cold
	// latency against a warm daemon.
	Cold bool

	// Binary posts each function's canonical binary encoding with the
	// binary IR content type (spec parameters ride in the query)
	// instead of the JSON/text body.
	Binary bool

	// Tier drives a tier-mode daemon: responses are bucketed by the
	// X-Prefgcd-Tier header, digests are checked per (item, tier), the
	// fast→full flip of each item is timed, and every full-tier digest
	// is verified against a locally computed pref-full oracle — the
	// proof that background upgrades land exactly the allocation a
	// non-tiered daemon would have served.
	Tier bool

	// KeepResponses retains the first successful response per corpus
	// item in Report.Responses, for offline re-validation.
	KeepResponses bool

	// TargetRPS, when positive, paces the clients toward an aggregate
	// request rate instead of running closed-loop flat out — the
	// cluster-mode driver, where the question is "does the fleet hold
	// an aggregate rate through faults", not "how fast can one client
	// hammer".
	TargetRPS float64

	// Observer, when set, is called once per completed HTTP exchange
	// (any status; transport failures carry Status 0) from the client
	// goroutines. Seq is the 1-based global completion sequence — the
	// deterministic clock the cluster simulator scripts its
	// kill/drain/resurrect schedule against. The callback may block;
	// only its own worker stalls.
	Observer func(Obs)

	// Client overrides the HTTP client; nil uses a pooled default.
	Client *http.Client
}

// Obs describes one completed request to an Observer.
type Obs struct {
	Seq       int     // 1-based completion order across all clients
	Item      int     // corpus index
	Status    int     // HTTP status; 0 for transport failure
	Digest    string  // allocation digest (200 only)
	Replica   string  // X-Prefgcd-Replica header, when the daemon runs in replica mode
	CacheHit  bool    // response was served from a result cache
	LatencyMS float64 // request wall time
}

// Response is one retained allocation response.
type Response struct {
	Item     int    `json:"item"`
	Name     string `json:"name"`
	Function string `json:"function"`
	Digest   string `json:"digest"`
}

// Report is one load run's outcome. Latencies cover successful (200)
// requests only.
type Report struct {
	DurationSec   float64 `json:"duration_sec"`
	Concurrency   int     `json:"concurrency"`
	CorpusSize    int     `json:"corpus_size"`
	Requests      int     `json:"requests"`
	OK            int     `json:"ok"`
	CacheHits     int     `json:"cache_hits"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	Rejected429   int     `json:"rejected_429"`
	Timeouts      int     `json:"timeouts"`
	Errors        int     `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyMaxMS  float64 `json:"latency_max_ms"`

	// Hot and Cold split the successful requests by how the daemon
	// served them: hot = from the result cache, cold = computed fresh.
	// In Options.Cold runs every request is cold by construction; in
	// mixed runs the split shows the cache's contribution directly.
	Hot  Bucket `json:"hot"`
	Cold Bucket `json:"cold"`

	// DigestMismatches counts responses whose digest disagreed with an
	// earlier response for the same item — always zero for a correct
	// daemon. In tier mode the comparison is per (item, tier), since
	// the fast and full allocations of one function legitimately
	// differ.
	DigestMismatches int `json:"digest_mismatches"`

	// Tier summarizes a tier-mode run (Options.Tier only).
	Tier *TierReport `json:"tier,omitempty"`

	// Server5xx counts 5xx responses (excluding 504, reported as
	// Timeouts). A router that hands off draining and dead shards
	// correctly shows zero here even while replicas churn.
	Server5xx int `json:"server_5xx"`

	// PerReplica counts successful responses by the serving replica's
	// X-Prefgcd-Replica header — the per-shard load split when the
	// target is a cluster router (empty against a plain daemon).
	PerReplica map[string]int `json:"per_replica,omitempty"`

	// Responses holds one retained response per corpus item reached
	// during the run (only with Options.KeepResponses).
	Responses []Response `json:"-"`
}

// TierReport summarizes one tier-mode run.
type TierReport struct {
	// FastServed and FullServed count successful responses by tier.
	FastServed int `json:"fast_served"`
	FullServed int `json:"full_served"`

	// Fast covers freshly computed fast-tier responses — the latency
	// the tier exists to deliver (cache hits excluded).
	Fast Bucket `json:"fast"`

	// UpgradedItems counts corpus items observed in both tiers;
	// the upgrade percentiles time each item's fast→full flip as seen
	// from the client (first full-tier response minus first fast-tier
	// response, an over-estimate bounded by the polling rate).
	UpgradedItems int     `json:"upgraded_items"`
	UpgradeP50MS  float64 `json:"upgrade_p50_ms"`
	UpgradeP90MS  float64 `json:"upgrade_p90_ms"`
	UpgradeP99MS  float64 `json:"upgrade_p99_ms"`

	// QualityRatio is fast-tier over full-tier estimated cycles,
	// summed across upgraded items — the quality the fast tier trades
	// until its upgrade lands.
	QualityRatio float64 `json:"quality_ratio"`

	// OracleMismatches counts full-tier responses whose digest
	// disagreed with a locally computed pref-full allocation of the
	// same item — always zero for a correct daemon.
	OracleMismatches int `json:"oracle_mismatches"`
}

// Bucket summarizes one class of successful requests.
type Bucket struct {
	Requests      int     `json:"requests"`
	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
}

func bucketFrom(latencies []float64, durationSec float64) Bucket {
	b := Bucket{Requests: len(latencies)}
	n := len(latencies)
	if n == 0 {
		return b
	}
	if durationSec > 0 {
		b.ThroughputRPS = float64(n) / durationSec
	}
	sort.Float64s(latencies)
	pct := func(p float64) float64 { return latencies[int(p*float64(n-1))] }
	b.LatencyP50MS = pct(0.50)
	b.LatencyP90MS = pct(0.90)
	b.LatencyP99MS = pct(0.99)
	return b
}

type allocateBody struct {
	Source    string `json:"source"`
	Machine   string `json:"machine,omitempty"`
	K         int    `json:"k,omitempty"`
	Allocator string `json:"allocator,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
}

type allocateReply struct {
	Function string  `json:"function"`
	Digest   string  `json:"digest"`
	Cached   bool    `json:"cached"`
	Tier     string  `json:"tier"`
	Cycles   float64 `json:"cycles"`
	Error    string  `json:"error"`
}

// Run drives the daemon until the duration elapses, the request
// budget is spent, or ctx is cancelled.
func Run(ctx context.Context, o Options) (*Report, error) {
	if len(o.Corpus) == 0 {
		return nil, fmt.Errorf("loadgen: empty corpus")
	}
	if o.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: no base URL")
	}
	concurrency := o.Concurrency
	if concurrency <= 0 {
		concurrency = 4
	}
	duration := o.Duration
	if duration <= 0 {
		duration = 5 * time.Second
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	// Tier mode verifies full-tier responses against a local pref-full
	// oracle, so it only makes sense for the allocator tiering stands
	// in for, on cacheable requests.
	var oracle map[int]string
	if o.Tier {
		if o.Allocator != "" && o.Allocator != "pref-full" {
			return nil, fmt.Errorf("loadgen: tier mode requires the pref-full allocator, got %q", o.Allocator)
		}
		if o.Cold {
			return nil, fmt.Errorf("loadgen: tier mode is incompatible with cold (no_cache disables tiering)")
		}
		spec := server.Spec{Machine: o.Machine, K: o.K}
		m, err := spec.Normalize()
		if err != nil {
			return nil, err
		}
		oracle = make(map[int]string, len(o.Corpus))
		for i, item := range o.Corpus {
			f, err := ir.Parse(item.Source)
			if err != nil {
				return nil, fmt.Errorf("loadgen: oracle parse %s: %w", item.Name, err)
			}
			alloc, err := bench.NewAllocator("pref-full")
			if err != nil {
				return nil, err
			}
			out, stats, err := regalloc.Run(f, m, alloc, regalloc.Options{})
			if err != nil {
				return nil, fmt.Errorf("loadgen: oracle allocation %s: %w", item.Name, err)
			}
			oracle[i] = bench.FuncDigest(f.Name, stats, out)
		}
	}
	client := o.Client
	if client == nil {
		client = &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: concurrency,
			},
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	var (
		mu        sync.Mutex
		latencies []float64
		hotLat    []float64
		coldLat   []float64
		rep       = Report{Concurrency: concurrency, CorpusSize: len(o.Corpus)}
		digests   = make(map[int]string)
		kept      = make(map[int]Response)
		budget    = o.MaxRequests
		seq       atomic.Int64 // global completion counter for observers

		// Tier-mode state, all guarded by mu.
		tierRep     TierReport
		fastDigests = make(map[int]string)
		fullDigests = make(map[int]string)
		firstFast   = make(map[int]time.Time)
		firstFull   = make(map[int]time.Time)
		fastCyc     = make(map[int]float64)
		fullCyc     = make(map[int]float64)
		fastLat     []float64
	)
	rep.PerReplica = make(map[string]int)
	observe := func(item, status int, digest, replica string, hit bool, ms float64) {
		if o.Observer == nil {
			return
		}
		o.Observer(Obs{
			Seq: int(seq.Add(1)), Item: item, Status: status,
			Digest: digest, Replica: replica, CacheHit: hit, LatencyMS: ms,
		})
	}
	takeBudget := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if o.MaxRequests > 0 && budget <= 0 {
			return false
		}
		budget--
		rep.Requests++
		return true
	}

	reqURL := strings.TrimSuffix(o.BaseURL, "/") + "/v1/allocate"
	if o.Binary {
		// Binary requests carry the whole spec in the query; the body
		// is the function itself.
		q := url.Values{}
		if o.Machine != "" {
			q.Set("machine", o.Machine)
		}
		if o.K != 0 {
			q.Set("k", strconv.Itoa(o.K))
		}
		if o.Allocator != "" {
			q.Set("allocator", o.Allocator)
		}
		if o.TimeoutMS != 0 {
			q.Set("timeout_ms", strconv.Itoa(o.TimeoutMS))
		}
		if o.Cold {
			q.Set("no_cache", "true")
		}
		if enc := q.Encode(); enc != "" {
			reqURL += "?" + enc
		}
	}
	// Target-rate pacing: each client holds a ticker at its share of
	// the aggregate rate and waits for a tick before each request.
	// Closed-loop behavior (as fast as responses return) when unset.
	var paceEvery time.Duration
	if o.TargetRPS > 0 {
		paceEvery = time.Duration(float64(time.Second) * float64(concurrency) / o.TargetRPS)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var pacer *time.Ticker
			if paceEvery > 0 {
				pacer = time.NewTicker(paceEvery)
				defer pacer.Stop()
			}
			for runCtx.Err() == nil {
				if pacer != nil {
					select {
					case <-pacer.C:
					case <-runCtx.Done():
						return
					}
				}
				if !takeBudget() {
					return
				}
				i := rng.Intn(len(o.Corpus))
				var body []byte
				contentType := "application/json"
				if o.Binary {
					body = o.Corpus[i].Binary
					contentType = server.BinaryContentType
				} else {
					body, _ = json.Marshal(allocateBody{
						Source: o.Corpus[i].Source, Machine: o.Machine, K: o.K,
						Allocator: o.Allocator, TimeoutMS: o.TimeoutMS,
						NoCache: o.Cold,
					})
				}
				t0 := time.Now()
				req, err := http.NewRequestWithContext(runCtx, http.MethodPost, reqURL, bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					rep.Errors++
					mu.Unlock()
					continue
				}
				req.Header.Set("Content-Type", contentType)
				resp, err := client.Do(req)
				if err != nil {
					if runCtx.Err() == nil {
						mu.Lock()
						rep.Errors++
						mu.Unlock()
						observe(i, 0, "", "", false, float64(time.Since(t0).Microseconds())/1000)
					}
					continue
				}
				payload, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				elapsed := time.Since(t0)
				ms := float64(elapsed.Microseconds()) / 1000
				if err != nil {
					// As with client.Do above, a body the run deadline
					// cut off is the run ending, not an error.
					if runCtx.Err() == nil {
						mu.Lock()
						rep.Errors++
						mu.Unlock()
						observe(i, 0, "", "", false, ms)
					}
					continue
				}
				replica := resp.Header.Get(server.ReplicaHeader)

				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					var r allocateReply
					if err := json.Unmarshal(payload, &r); err != nil {
						rep.Errors++
						mu.Unlock()
						continue
					}
					rep.OK++
					if replica != "" {
						rep.PerReplica[replica]++
					}
					if r.Cached {
						rep.CacheHits++
						hotLat = append(hotLat, ms)
					} else {
						coldLat = append(coldLat, ms)
					}
					latencies = append(latencies, ms)
					dmap := digests
					if o.Tier {
						switch r.Tier {
						case "fast":
							dmap = fastDigests
							tierRep.FastServed++
							if _, ok := firstFast[i]; !ok {
								firstFast[i] = time.Now()
							}
							if !r.Cached {
								fastLat = append(fastLat, ms)
							}
							fastCyc[i] = r.Cycles
						case "full":
							dmap = fullDigests
							tierRep.FullServed++
							if _, ok := firstFull[i]; !ok {
								firstFull[i] = time.Now()
							}
							fullCyc[i] = r.Cycles
							if want := oracle[i]; want != "" && r.Digest != want {
								tierRep.OracleMismatches++
							}
						}
					}
					if prev, ok := dmap[i]; ok && prev != r.Digest {
						rep.DigestMismatches++
					} else {
						dmap[i] = r.Digest
					}
					if o.KeepResponses {
						if _, ok := kept[i]; !ok {
							kept[i] = Response{Item: i, Name: o.Corpus[i].Name, Function: r.Function, Digest: r.Digest}
						}
					}
					mu.Unlock()
					observe(i, http.StatusOK, r.Digest, replica, r.Cached, ms)
				case http.StatusTooManyRequests:
					rep.Rejected429++
					mu.Unlock()
					observe(i, resp.StatusCode, "", replica, false, ms)
					// Brief backoff: the daemon's Retry-After hint is
					// seconds-granular, too coarse for a tight load loop.
					select {
					case <-time.After(5 * time.Millisecond):
					case <-runCtx.Done():
					}
				case http.StatusGatewayTimeout:
					rep.Timeouts++
					mu.Unlock()
					observe(i, resp.StatusCode, "", replica, false, ms)
				default:
					rep.Errors++
					if resp.StatusCode >= 500 {
						rep.Server5xx++
					}
					mu.Unlock()
					observe(i, resp.StatusCode, "", replica, false, ms)
				}
			}
		}(rand.New(rand.NewSource(seed + int64(w))))
	}
	wg.Wait()

	rep.DurationSec = time.Since(start).Seconds()
	if rep.DurationSec > 0 {
		rep.ThroughputRPS = float64(rep.OK) / rep.DurationSec
	}
	if rep.OK > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(rep.OK)
	}
	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		pct := func(p float64) float64 { return latencies[int(p*float64(n-1))] }
		rep.LatencyP50MS = pct(0.50)
		rep.LatencyP90MS = pct(0.90)
		rep.LatencyP99MS = pct(0.99)
		rep.LatencyMaxMS = latencies[n-1]
	}
	rep.Hot = bucketFrom(hotLat, rep.DurationSec)
	rep.Cold = bucketFrom(coldLat, rep.DurationSec)
	if o.Tier {
		var upLat []float64
		var fc, fl float64
		for i, t0 := range firstFast {
			t1, ok := firstFull[i]
			if !ok {
				continue
			}
			tierRep.UpgradedItems++
			if d := t1.Sub(t0); d >= 0 {
				upLat = append(upLat, float64(d.Microseconds())/1000)
			}
			fc += fastCyc[i]
			fl += fullCyc[i]
		}
		sort.Float64s(upLat)
		if n := len(upLat); n > 0 {
			pct := func(p float64) float64 { return upLat[int(p*float64(n-1))] }
			tierRep.UpgradeP50MS = pct(0.50)
			tierRep.UpgradeP90MS = pct(0.90)
			tierRep.UpgradeP99MS = pct(0.99)
		}
		if fl > 0 {
			tierRep.QualityRatio = fc / fl
		}
		tierRep.Fast = bucketFrom(fastLat, rep.DurationSec)
		rep.Tier = &tierRep
	}
	items := make([]int, 0, len(kept))
	for i := range kept {
		items = append(items, i)
	}
	sort.Ints(items)
	for _, i := range items {
		rep.Responses = append(rep.Responses, kept[i])
	}
	return &rep, nil
}
