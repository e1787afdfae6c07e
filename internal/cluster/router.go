package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prefcolor/internal/promtext"
	"prefcolor/internal/server"
)

// ReplicaConfig names one prefgcd replica the router shards across.
type ReplicaConfig struct {
	ID      string // stable identity; the ring hashes this
	BaseURL string // e.g. "http://localhost:8401"
}

// Config sizes the router. The zero value of any field selects its
// default.
type Config struct {
	// Replicas is the shard set; at least one is required.
	Replicas []ReplicaConfig

	// MaxAttempts bounds how many distinct replicas one request may
	// be forwarded to before the router gives up; 0 means 3 (capped
	// at the replica count).
	MaxAttempts int

	// Retry429 is how many times a 429 admission refusal is retried
	// against the same replica (honoring its Retry-After) before the
	// refusal propagates to the client; 0 means 2, negative disables.
	Retry429 int

	// Max429Wait caps one honored Retry-After pause — replicas hint
	// in whole seconds, far too coarse for an in-datacenter retry;
	// 0 means 50ms.
	Max429Wait time.Duration

	// HealthInterval is the active /healthz probe period; 0 means
	// 250ms, negative disables active probing (passive detection
	// through forwarded traffic still applies — the deterministic
	// simulator runs this way so no wall-clock prober races the
	// scripted schedule).
	HealthInterval time.Duration
}

// retryBackoff is the base delay between failover attempts, doubling
// per attempt.
const retryBackoff = 2 * time.Millisecond

// keyMemoEntries sizes the router's request memo: room for 4,096
// repeat JSON bodies, each with its source.
const keyMemoEntries = 8192

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.MaxAttempts > len(c.Replicas) {
		c.MaxAttempts = len(c.Replicas)
	}
	if c.Retry429 == 0 {
		c.Retry429 = 2
	}
	if c.Retry429 < 0 {
		c.Retry429 = 0
	}
	if c.Max429Wait <= 0 {
		c.Max429Wait = 50 * time.Millisecond
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	return c
}

// Replica health states, as the router believes them.
const (
	stateHealthy int32 = iota
	stateDraining
	stateDown
)

func stateName(s int32) string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	}
	return "down"
}

// replica is the router's view of one shard: its address (swappable,
// so a resurrected replica can come back on a new port) and health.
type replica struct {
	id    string
	state atomic.Int32

	mu      sync.RWMutex
	baseURL string
}

func (rep *replica) url() string {
	rep.mu.RLock()
	defer rep.mu.RUnlock()
	return rep.baseURL
}

// Router is the stateless cluster front door. Construct with New,
// serve Handler(), Close to stop the health prober.
type Router struct {
	cfg      Config
	ring     *ring
	replicas map[string]*replica
	keys     *server.KeyResolver
	metrics  *routerMetrics
	client   *http.Client
	mux      *http.ServeMux

	stopProbe context.CancelFunc
	probeDone chan struct{}
}

// New builds a router over the configured replicas and, unless
// HealthInterval is negative, starts its active health prober.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	cfg = cfg.withDefaults()
	ids := make([]string, 0, len(cfg.Replicas))
	replicas := make(map[string]*replica, len(cfg.Replicas))
	for _, rc := range cfg.Replicas {
		if rc.ID == "" || rc.BaseURL == "" {
			return nil, fmt.Errorf("cluster: replica needs both ID and BaseURL, got %+v", rc)
		}
		if _, dup := replicas[rc.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica ID %q", rc.ID)
		}
		ids = append(ids, rc.ID)
		replicas[rc.ID] = &replica{id: rc.ID, baseURL: rc.BaseURL}
	}
	rt := &Router{
		cfg:      cfg,
		ring:     newRing(ids, vnodesPerReplica),
		replicas: replicas,
		keys:     server.NewKeyResolver(keyMemoEntries),
		metrics:  newRouterMetrics(ids),
		client: &http.Client{
			Timeout:   3 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 64},
		},
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/allocate", server.Counted("allocate", rt.metrics.CountRequest, rt.handleAllocate))
	rt.mux.HandleFunc("POST /v1/batch", server.Counted("batch", rt.metrics.CountRequest, rt.handleBatch))
	rt.mux.HandleFunc("GET /healthz", server.Counted("healthz", rt.metrics.CountRequest, rt.handleHealthz))
	rt.mux.HandleFunc("GET /metrics", server.Counted("metrics", rt.metrics.CountRequest, rt.handleMetrics))
	if cfg.HealthInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		rt.stopProbe = cancel
		rt.probeDone = make(chan struct{})
		go rt.probeLoop(ctx)
	}
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health prober. Forwarding keeps working (the router
// is stateless); Close exists so tests and drains don't leak the
// prober goroutine.
func (rt *Router) Close() {
	if rt.stopProbe != nil {
		rt.stopProbe()
		<-rt.probeDone
	}
}

// UpdateReplica points an existing replica ID at a new base URL — the
// service-discovery hook a resurrected replica uses when it comes
// back on a different address — and marks it healthy so traffic
// returns immediately.
func (rt *Router) UpdateReplica(id, baseURL string) error {
	rep, ok := rt.replicas[id]
	if !ok {
		return fmt.Errorf("cluster: unknown replica %q", id)
	}
	rep.mu.Lock()
	rep.baseURL = baseURL
	rep.mu.Unlock()
	rt.setState(rep, stateHealthy)
	return nil
}

// ReplicaState reports the router's current belief about one replica:
// "healthy", "draining", or "down".
func (rt *Router) ReplicaState(id string) (string, bool) {
	rep, ok := rt.replicas[id]
	if !ok {
		return "", false
	}
	return stateName(rep.state.Load()), true
}

// Home returns the ID of the shard that owns key — exposed for tests
// and the simulator's no-double-flight accounting.
func (rt *Router) Home(key server.Key) string { return rt.ring.home(key) }

func (rt *Router) setState(rep *replica, s int32) {
	if rep.state.Swap(s) != s {
		rt.metrics.SetState(rep.id, s)
	}
}

// probeLoop actively probes every replica's /healthz so downed
// replicas are discovered without waiting for a request to fail into
// them, and resurrected replicas return to rotation without traffic.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.probeDone)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, id := range rt.ring.ids {
			rep := rt.replicas[id]
			rt.probe(ctx, rep)
		}
	}
}

func (rt *Router) probe(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.url()+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.setState(rep, stateDown)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		rt.setState(rep, stateHealthy)
	case resp.StatusCode == server.DrainingStatus:
		rt.setState(rep, stateDraining)
	default:
		rt.setState(rep, stateDown)
	}
}

// handleAllocate routes one allocation to its home shard. The router
// decodes and resolves the body through the replicas' own front end
// (server.KeyResolver.ResolveAllocate), so it refuses what a replica
// would refuse and shards by the key the replica caches under; a repeat
// JSON body resolves from the memo for one hash and one probe. It
// forwards the original body verbatim, stamping the resolved key into
// the KeyHeader so a trusting replica need not parse it either.
func (rt *Router) handleAllocate(w http.ResponseWriter, r *http.Request) {
	body, ok := server.ReadRawBody(w, r, server.MaxBodyBytes)
	if !ok {
		return
	}
	req, code, err := rt.keys.ResolveAllocate(r, body)
	if !req.Binary {
		rt.metrics.CountBody(req.Memoized)
	}
	if err != nil {
		server.WriteError(w, code, err)
		return
	}
	contentType := "application/json"
	if req.Binary {
		contentType = server.BinaryContentType
	}
	rt.forward(w, r, req.Key, req.Canon, body, contentType, r.URL.RawQuery)
}

// forward sends body to the key's home shard, failing over along the
// ring with bounded backoff when shards are down or draining, and
// honoring 429 Retry-After pauses. The winning replica's response —
// success or final refusal — streams back to the client unchanged.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request,
	key server.Key, canon [32]byte, body []byte, contentType, rawQuery string) {

	resp, servedBy, err := rt.tryReplicas(r.Context(), key, canon, body, contentType, rawQuery)
	if err != nil {
		server.WriteError(w, failedStatus(r), err)
		return
	}
	defer resp.Body.Close()
	rt.accountResponse(key, servedBy, resp)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// failedStatus is the status of a forward no replica answered: 499
// when the router's own client went away, as a replica reports it, and
// 502 when the replicas failed.
func failedStatus(r *http.Request) int {
	if r.Context().Err() != nil {
		return server.StatusClientGone
	}
	return http.StatusBadGateway
}

// tryReplicas runs the retry policy and returns the first final
// response. Retryable outcomes — connection failure, 503 (down or
// draining), 500/502 — advance to the next replica in ring order;
// 429 waits out the Retry-After (bounded) and retries the same
// replica; everything else (200, 4xx, 504) is final.
func (rt *Router) tryReplicas(ctx context.Context, key server.Key,
	canon [32]byte, body []byte, contentType, rawQuery string) (*http.Response, string, error) {

	order := rt.ring.lookup(key)
	// First preference: replicas believed healthy, in ring order.
	// Fallback: every replica in ring order — a "down" mark may be
	// stale, and trying is better than refusing outright.
	candidates := make([]*replica, 0, len(order))
	for _, id := range order {
		if rep := rt.replicas[id]; rep.state.Load() == stateHealthy {
			candidates = append(candidates, rep)
		}
	}
	if len(candidates) == 0 {
		for _, id := range order {
			candidates = append(candidates, rt.replicas[id])
		}
	}
	if len(candidates) > rt.cfg.MaxAttempts {
		candidates = candidates[:rt.cfg.MaxAttempts]
	}

	var lastErr error
	for attempt, rep := range candidates {
		if attempt > 0 {
			// Bounded exponential backoff between failover attempts.
			delay := retryBackoff << (attempt - 1)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		}
		tries429 := 0
		for {
			resp, err := rt.send(ctx, rep, canon, body, contentType, rawQuery)
			if err != nil {
				if ctx.Err() != nil {
					return nil, "", ctx.Err()
				}
				rt.setState(rep, stateDown)
				rt.metrics.CountRetry("conn")
				lastErr = fmt.Errorf("replica %s: %w", rep.id, err)
				break // next replica
			}
			switch {
			case resp.StatusCode == server.DrainingStatus:
				// The replica refused at admission (draining or
				// closed); its in-flight work is unaffected — hand
				// this request to the next shard.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				rt.setState(rep, stateDraining)
				rt.metrics.CountRetry("draining")
				lastErr = fmt.Errorf("replica %s: draining", rep.id)
			case resp.StatusCode == http.StatusInternalServerError ||
				resp.StatusCode == http.StatusBadGateway:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				rt.metrics.CountRetry("http5xx")
				lastErr = fmt.Errorf("replica %s: HTTP %d", rep.id, resp.StatusCode)
			case resp.StatusCode == http.StatusTooManyRequests && tries429 < rt.cfg.Retry429:
				// Honor the replica's Retry-After (capped — the hint
				// is seconds-granular) and re-offer to the same
				// replica: its queue drains in milliseconds, and
				// rerouting would cold-compute on a foreign shard.
				wait := retryAfter(resp, rt.cfg.Max429Wait)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				rt.metrics.CountRetry("429")
				tries429++
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return nil, "", ctx.Err()
				}
				continue // same replica
			default:
				rt.setState(rep, stateHealthy)
				return resp, rep.id, nil
			}
			break // next replica
		}
	}
	if lastErr == nil {
		lastErr = errors.New("no replicas available")
	}
	return nil, "", fmt.Errorf("all replicas failed: %w", lastErr)
}

// send forwards one request body to one replica, carrying the
// already-resolved content key so a replica with TrustKeyHeader on can
// probe its cache without parsing the body.
func (rt *Router) send(ctx context.Context, rep *replica,
	canon [32]byte, body []byte, contentType, rawQuery string) (*http.Response, error) {

	u := rep.url() + "/v1/allocate"
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(server.KeyHeader, server.EncodeKeyHeader(canon))
	return rt.client.Do(req)
}

// retryAfter reads a 429's Retry-After hint, capped at max.
func retryAfter(resp *http.Response, max time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			if d := time.Duration(secs) * time.Second; d < max {
				return d
			}
		}
	}
	return max
}

// accountResponse feeds the per-shard counters: requests by replica
// and status, cache hit/miss from the replica's X-Prefgcd-Cache
// header, and a rehash when a non-home shard served the key.
func (rt *Router) accountResponse(key server.Key, servedBy string, resp *http.Response) {
	rt.metrics.CountForward(servedBy, resp.StatusCode)
	switch resp.Header.Get(server.CacheHeader) {
	case "hit":
		rt.metrics.CountCache(servedBy, true)
	case "miss":
		rt.metrics.CountCache(servedBy, false)
	}
	if home := rt.ring.home(key); home != servedBy {
		rt.metrics.CountRehash(servedBy)
	}
}

// handleBatch splits a batch across shards: each function routes to
// its own home replica as an individual allocation (the whole point
// of the cluster is that no single replica owns a batch's key
// range), and the responses reassemble in order. A binary frame is
// forwarded as its canonical re-encoding.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	b, ok := server.ReadBatch(w, r)
	if !ok {
		return
	}
	var items []batchItem
	for {
		f, err := b.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if f.Err != "" {
			items = append(items, batchItem{err: f.Err, code: f.Code})
			continue
		}
		canon, code, err := rt.keys.ResolveFunc(&f)
		if err != nil {
			items = append(items, batchItem{err: err.Error(), code: code})
			continue
		}
		items = append(items, batchItem{body: b.AllocateBody(f), key: server.KeyFor(canon, b.Spec), canon: canon})
	}
	contentType, rawQuery := "application/json", ""
	if b.Binary {
		contentType, rawQuery = server.BinaryContentType, r.URL.RawQuery
	}
	rt.fanOut(w, r, items, contentType, rawQuery)
}

type batchItem struct {
	body  []byte
	key   server.Key
	canon [32]byte
	err   string
	code  int
}

// fanOut forwards every batch item to its home shard concurrently
// (bounded) and reassembles the per-item responses in order.
func (rt *Router) fanOut(w http.ResponseWriter, r *http.Request,
	items []batchItem, contentType, rawQuery string) {

	type itemResult struct {
		payload json.RawMessage
		err     string
		code    int
	}
	results := make([]itemResult, len(items))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i := range items {
		if items[i].err != "" {
			results[i] = itemResult{err: items[i].err, code: items[i].code}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp, servedBy, err := rt.tryReplicas(r.Context(), items[i].key, items[i].canon, items[i].body, contentType, rawQuery)
			if err != nil {
				results[i] = itemResult{err: err.Error(), code: failedStatus(r)}
				return
			}
			defer resp.Body.Close()
			rt.accountResponse(items[i].key, servedBy, resp)
			payload, rerr := io.ReadAll(resp.Body)
			if rerr != nil {
				results[i] = itemResult{err: rerr.Error(), code: http.StatusBadGateway}
				return
			}
			if resp.StatusCode != http.StatusOK {
				var e server.ErrorResponse
				_ = json.Unmarshal(payload, &e)
				if e.Error == "" {
					e.Error = fmt.Sprintf("HTTP %d", resp.StatusCode)
				}
				results[i] = itemResult{err: e.Error, code: resp.StatusCode}
				return
			}
			results[i] = itemResult{payload: payload}
		}(i)
	}
	wg.Wait()

	// Reassemble in the server's batch shape: {"results":[...]}.
	var b bytes.Buffer
	b.WriteString(`{"results":[`)
	for i, res := range results {
		if i > 0 {
			b.WriteByte(',')
		}
		if res.err != "" {
			item, _ := json.Marshal(struct {
				Error string `json:"error"`
				Code  int    `json:"code"`
			}{res.err, res.code})
			b.Write(item)
			continue
		}
		b.Write(bytes.TrimRight(res.payload, "\n"))
	}
	b.WriteString("]}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

// handleHealthz aggregates replica health: 200 while at least one
// shard is believed healthy, 503 otherwise.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	states := make(map[string]string, len(rt.replicas))
	healthy := 0
	for id, rep := range rt.replicas {
		s := rep.state.Load()
		states[id] = stateName(s)
		if s == stateHealthy {
			healthy++
		}
	}
	code := http.StatusOK
	status := "ok"
	if healthy == 0 {
		code, status = http.StatusServiceUnavailable, "no healthy replicas"
	}
	server.WriteJSON(w, code, map[string]any{
		"status":   status,
		"healthy":  healthy,
		"replicas": states,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	_, _ = io.WriteString(w, rt.metrics.Render())
}
