// Package server turns the allocation pipeline into a long-running
// service: an HTTP/JSON daemon exposing the preference-directed
// allocator (and every baseline) behind a bounded work queue with
// admission control, a content-addressed single-flight LRU result
// cache, and per-request deadlines that thread down to the driver's
// phase boundaries via regalloc.Options.Context.
//
// Endpoints:
//
//	POST /v1/allocate  one function (textual IR) -> rewritten code + stats
//	POST /v1/batch     many functions, backpressure instead of load-shedding
//	GET  /healthz      liveness + queue/cache gauges
//	GET  /metrics      Prometheus text exposition
//	     /debug/pprof  the standard profiling handlers
//
// Overload policy: /v1/allocate refuses instantly with 429 and a
// Retry-After hint when the queue is saturated (interactive callers
// shed load); /v1/batch blocks for queue space up to the request's
// deadline (bulk callers get backpressure).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/lru"
	"prefcolor/internal/opt"
	"prefcolor/internal/perfmodel"
	"prefcolor/internal/promtext"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
)

// ErrQueueClosed reports a submission to a draining queue.
var ErrQueueClosed = errors.New("server: queue closed")

// errQueueFull reports a refused admission.
var errQueueFull = errors.New("server: queue full")

// errDraining refuses new allocation work once a drain has begun.
var errDraining = errors.New("server draining")

// Config sizes the daemon. The zero value of any field selects its
// default.
type Config struct {
	// Workers is the allocation worker-pool size; 0 means 4.
	Workers int

	// QueueSize bounds the admission queue; 0 means 64.
	QueueSize int

	// CacheEntries bounds the LRU result cache; 0 means 1024, and a
	// negative value disables caching.
	CacheEntries int

	// DefaultTimeout applies when a request carries no timeout_ms;
	// 0 means 30s.
	DefaultTimeout time.Duration

	// MaxTimeout caps any requested timeout; 0 means 120s.
	MaxTimeout time.Duration

	// ReplicaID, when non-empty, switches the server into replica
	// mode: every response carries the ID in the X-Prefgcd-Replica
	// header, /v1/allocate responses report cache disposition in
	// X-Prefgcd-Cache, and /healthz includes the ID — the handles a
	// cluster router needs to attribute work and track shard health.
	ReplicaID string

	// JobStartHook, when set, runs at the start of every allocation
	// job in a worker. It is a test seam: holding the hook on a
	// condition variable makes queue saturation (and therefore 429
	// admission refusals) deterministic in backpressure tests.
	JobStartHook func()

	// Tier enables tiered allocation: cacheable pref-full requests
	// are answered first by the linear-scan fast path and their cache
	// entries upgraded to the full preference-directed result in the
	// background. See tier.go.
	Tier bool

	// UpgradeQueueSize bounds the background upgrade queue; 0 means
	// 256. A full queue sheds upgrades (the fast entry remains).
	UpgradeQueueSize int

	// TrustKeyHeader accepts the X-Prefgcd-Key request header as the
	// function's canonical content hash, skipping the parse or decode
	// the replica would otherwise need before probing its cache.
	// Enable only behind a router that computes keys the same way
	// (server.KeyResolver): a wrong header caches a result under the
	// wrong identity.
	TrustKeyHeader bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	if c.UpgradeQueueSize <= 0 {
		c.UpgradeQueueSize = 256
	}
	return c
}

// Server is the allocation service. Construct with New, serve
// Handler(), and Close to drain.
type Server struct {
	cfg        Config
	queue      *queue
	cache      *lru.Cache[Key, *entry]
	keys       *KeyResolver
	flights    *flightGroup
	metrics    *metrics
	workspaces *wsPool
	fastWS     sync.Pool // *linearscan.Workspace, for the fast tier
	upgrades   *upgrader
	mux        *http.ServeMux
	draining   atomic.Bool
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		queue:      newQueue(cfg.QueueSize, cfg.Workers),
		cache:      lru.New[Key, *entry](cfg.CacheEntries),
		keys:       NewKeyResolver(4 * cfg.CacheEntries),
		flights:    newFlightGroup(),
		metrics:    newMetrics(),
		workspaces: newWSPool(),
	}
	s.fastWS.New = func() any { return linearscan.NewFastWorkspace() }
	if cfg.Tier {
		s.startUpgrader(cfg.UpgradeQueueSize)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/allocate", s.counted("allocate", s.handleAllocate))
	s.mux.HandleFunc("POST /v1/batch", s.counted("batch", s.handleBatch))
	s.mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.counted("metrics", s.handleMetrics))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the server: admission stops (new work gets 503), every
// already-queued job runs to completion, and the worker pool exits.
func (s *Server) Close() {
	s.StartDrain()
	s.queue.Close()
	s.stopUpgrader()
}

// StartDrain begins a graceful drain without stopping the worker
// pool: /healthz flips to 503 "draining", new allocation work is
// refused with DrainingStatus, and every request already admitted —
// queued or executing — runs to completion. A cluster router that
// sees the refusal (or the health flip) hands new work to other
// shards while this replica's in-flight responses finish normally.
// Close completes the drain by also stopping the pool.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain (or Close) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// statsJSON is the wire form of regalloc.Stats.
type statsJSON struct {
	Allocator        string `json:"allocator"`
	Rounds           int    `json:"rounds"`
	MovesBefore      int    `json:"moves_before"`
	MovesRemaining   int    `json:"moves_remaining"`
	MovesEliminated  int    `json:"moves_eliminated"`
	SpillLoads       int    `json:"spill_loads"`
	SpillStores      int    `json:"spill_stores"`
	SpilledWebs      int    `json:"spilled_webs"`
	Remats           int    `json:"remats"`
	CallerSaveStores int    `json:"caller_save_stores"`
	CallerSaveLoads  int    `json:"caller_save_loads"`
	UsedRegs         int    `json:"used_regs"`
	UsedNonVolatile  int    `json:"used_non_volatile"`
}

func statsFrom(st *regalloc.Stats) statsJSON {
	return statsJSON{
		Allocator: st.Allocator, Rounds: st.Rounds,
		MovesBefore: st.MovesBefore, MovesRemaining: st.MovesRemaining,
		MovesEliminated: st.MovesEliminated,
		SpillLoads:      st.SpillLoads, SpillStores: st.SpillStores,
		SpilledWebs: st.SpilledWebs, Remats: st.Remats,
		CallerSaveStores: st.CallerSaveStores, CallerSaveLoads: st.CallerSaveLoads,
		UsedRegs: st.UsedRegs, UsedNonVolatile: st.UsedNonVolatile,
	}
}

// allocateResponse is the /v1/allocate reply (and one /v1/batch item).
type allocateResponse struct {
	Function string    `json:"function"`
	Digest   string    `json:"digest"`
	Stats    statsJSON `json:"stats"`
	Cached   bool      `json:"cached"`
	Tier     string    `json:"tier,omitempty"`   // tier mode: "fast" or "full"
	Cycles   float64   `json:"cycles,omitempty"` // tier mode: perfmodel estimate
	Error    string    `json:"error,omitempty"`  // batch items only
	Code     int       `json:"code,omitempty"`   // batch items only
}

// batchItem is one /v1/batch result: an entry, served as a hit or a
// miss, or an item error.
type batchItem struct {
	e      *entry
	cached bool
	err    string
	code   int
}

// ErrorResponse is the body of every error reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// counted wraps a handler so every response lands in the request
// counters (and, in replica mode, carries the replica's identity).
func (s *Server) counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if id := s.cfg.ReplicaID; id != "" {
		inner := h
		h = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(ReplicaHeader, id)
			inner(w, r)
		}
	}
	return Counted(endpoint, s.metrics.CountRequest, h)
}

// Counted wraps h so that the status code of every response it writes
// reaches count, under endpoint.
func Counted(endpoint string, count func(endpoint string, code int), h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		count(endpoint, rec.code)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// WriteJSON writes v as a JSON reply with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes err as an ErrorResponse with the given status code.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error()})
}

// render encodes v into b as WriteJSON does, and returns b's bytes
// without the trailing newline.
func render(b *bytes.Buffer, v any) []byte {
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return bytes.TrimSuffix(b.Bytes(), []byte("\n"))
}

// writeEntry writes e as a 200 /v1/allocate reply, byte for byte what
// WriteJSON would write for it, with the cache and tier headers. It
// sets Content-Length, so a large reply is not sent chunked.
func writeEntry(w http.ResponseWriter, e *entry, cached bool) {
	h := w.Header()
	if cached {
		h.Set(CacheHeader, "hit")
	} else {
		h.Set(CacheHeader, "miss")
	}
	if e.Tier != "" {
		h.Set(TierHeader, e.Tier)
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(e.replyLen(cached)))
	w.WriteHeader(http.StatusOK)
	e.writeObject(w, cached)
	_, _ = io.WriteString(w, "\n")
}

// writeBatch writes a 200 /v1/batch reply, byte for byte what WriteJSON
// would write for {"results":[...]}: json.Encoder writes a slice's
// elements as it writes each alone, comma-separated.
func writeBatch(w http.ResponseWriter, items []batchItem) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, `{"results":[`)
	for i, it := range items {
		if i > 0 {
			_, _ = io.WriteString(w, ",")
		}
		if it.e == nil {
			_, _ = w.Write(render(new(bytes.Buffer), allocateResponse{Error: it.err, Code: it.code}))
			continue
		}
		it.e.writeObject(w, it.cached)
	}
	_, _ = io.WriteString(w, "]}\n")
}

// timeout clamps a request's timeout_ms to the configured bounds.
func (s *Server) timeout(ms int) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// handleAllocate serves /v1/allocate. A JSON body seen before resolves
// through the request memo to the cache key it resolved to then; when
// that entry is resident its stored reply is written without decoding
// the body or encoding anything. Every other request takes the full
// path: decode, normalize, resolve, then doOne.
func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadRawBody(w, r, MaxBodyBytes)
	if !ok {
		return
	}
	var trusted [32]byte
	isTrusted := false
	if s.cfg.TrustKeyHeader {
		trusted, isTrusted = DecodeKeyHeader(r.Header.Get(KeyHeader))
	}
	// A body under a trusted key header never enters the memo: the
	// header names an identity the body was never checked against.
	req, err := s.keys.readAllocate(r, body, !isTrusted)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}

	var e *entry
	var cached bool
	var code int
	if req.Memoized {
		if s.draining.Load() {
			WriteError(w, http.StatusServiceUnavailable, errDraining)
			return
		}
		if e, ok := s.lookup(req.Key); ok {
			writeEntry(w, e, true)
			return
		}
		// The memoized entry was evicted. The body decoded and was
		// cacheable when it entered the memo, and the probe above
		// counted the miss: decode it again and recompute without
		// probing again.
		_ = req.decode(r, body)
		e, code, err = s.fill(r.Context(), req.Key, req.in, req.Spec, req.Machine, s.timeout(req.TimeoutMS), false)
	} else {
		if isTrusted {
			req.in.canonHash, req.in.canonKnown = trusted, true
		} else if req.memo && !req.Spec.NoCache && !s.draining.Load() {
			// Resolved here rather than in doOne, so that a body enters
			// the memo only once it has resolved.
			if code, err := s.keys.resolveRequest(&req); err != nil {
				WriteError(w, code, err)
				return
			}
		}
		e, cached, code, err = s.doOne(r.Context(), req.in, req.Spec, req.Machine, s.timeout(req.TimeoutMS), false)
	}
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
		}
		WriteError(w, code, err)
		return
	}
	writeEntry(w, e, cached)
	e.release()
}

// handleBatch serves /v1/batch. Items run through the same
// cache/flight/queue path as single allocations, but submission blocks
// (backpressure) and fan-out is capped so one batch cannot occupy every
// queue slot at once. Functions decode one at a time while those
// already decoded are being allocated — ingesting function N+1 overlaps
// allocating function N — so a large binary batch never sits fully
// parsed in memory before the first allocation starts.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	b, ok := ReadBatch(w, r)
	if !ok {
		return
	}
	// Every frame decodes before any job is submitted, so a frame that
	// fails the batch leaves nothing computed or cached — the router,
	// which reads a whole batch before it forwards one, agrees.
	var funcs []BatchFunc
	for {
		f, err := b.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		funcs = append(funcs, f)
	}
	d := s.timeout(b.TimeoutMS)
	items := make([]batchItem, len(funcs))
	sem := make(chan struct{}, min(s.cfg.Workers, 8))
	var wg sync.WaitGroup
	for i, f := range funcs {
		if f.Err != "" {
			items[i] = batchItem{err: f.Err, code: f.Code}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if e, cached, code, err := s.doOne(r.Context(), f.in, b.Spec, b.Machine, d, true); err != nil {
				items[i] = batchItem{err: err.Error(), code: code}
			} else {
				items[i] = batchItem{e: e, cached: cached}
			}
		}()
	}
	wg.Wait()
	writeBatch(w, items)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	health := map[string]any{
		"status":         status,
		"queue_depth":    s.queue.Depth(),
		"queue_capacity": s.queue.Capacity(),
		"cache_entries":  s.cache.Len(),
	}
	if s.cfg.ReplicaID != "" {
		health["replica"] = s.cfg.ReplicaID
	}
	WriteJSON(w, code, health)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, evictions := s.cache.Counters()
	wsGets, wsNews := s.workspaces.counters()
	upDepth, upCap := s.upgradeDepth()
	w.Header().Set("Content-Type", promtext.ContentType)
	_, _ = io.WriteString(w, s.metrics.Render(
		s.queue.Depth(), s.queue.Capacity(), s.cache.Len(),
		hits, misses, evictions, s.flights.Shared(), wsGets, wsNews,
		upDepth, upCap))
}

// doOne resolves one allocation request: result cache, then
// single-flight join, then the work queue. reqCtx bounds only this
// caller's wait — the computation itself runs under its own deadline
// so one impatient caller cannot poison the shared flight. block
// selects the batch endpoint's blocking submission. cached reports
// whether the entry came from the cache.
//
// Requests with spec.NoCache skip the cache and flight entirely, but
// still queue: parse/decode and allocation both happen in the worker,
// so the measured latency is the whole cold path. Their entry is
// transient: handleAllocate releases it after writing, and a batch
// leaves it to the collector.
func (s *Server) doOne(reqCtx context.Context, in srcInput, spec Spec,
	machine *target.Machine, d time.Duration, block bool) (e *entry, cached bool, code int, err error) {

	if s.draining.Load() {
		return nil, false, http.StatusServiceUnavailable, errDraining
	}
	if spec.NoCache {
		// A copy the job captures: capturing the parameter, whose
		// address resolve takes below, would move it to the heap on
		// every call.
		in := in
		call := &flightCall{done: make(chan struct{})}
		s.runJob(reqCtx, d, block, call.finish, func(ctx context.Context) (*entry, int, error) {
			return s.compute(ctx, in, spec, machine, false, true)
		})
		e, code, err = call.wait(reqCtx)
		return e, false, code, err
	}
	if code, err := s.keys.resolve(&in); err != nil {
		return nil, false, code, err
	}
	key := KeyFor(in.canonHash, spec)
	if e, ok := s.lookup(key); ok {
		return e, true, 0, nil
	}
	e, code, err = s.fill(reqCtx, key, in, spec, machine, d, block)
	return e, false, code, err
}

// lookup probes the result cache, tallying the serving tier of a hit.
func (s *Server) lookup(key Key) (*entry, bool) {
	e, ok := s.cache.Get(key)
	if ok {
		s.countTier(e)
	}
	return e, ok
}

// countTier tallies the tier that served e, when it carries one.
func (s *Server) countTier(e *entry) {
	if e.Tier != "" {
		s.metrics.CountTierServed(e.Tier)
	}
}

// fill computes key's entry after a cache miss: it joins the key's
// flight, or leads one through the work queue and caches the result.
func (s *Server) fill(reqCtx context.Context, key Key, in srcInput, spec Spec,
	machine *target.Machine, d time.Duration, block bool) (*entry, int, error) {

	call, leader := s.flights.join(key)
	if leader {
		tier := s.tierApplies(spec)
		finish := func(e *entry, code int, err error) { s.flights.complete(key, call, e, err, code) }
		s.runJob(reqCtx, d, block, finish, func(ctx context.Context) (e *entry, code int, err error) {
			if tier {
				// Fast tier first; any fast-path failure falls back to
				// the full pipeline so tiering never loses a request.
				if e, code, err = s.computeFast(ctx, in, spec, machine); err != nil && ctx.Err() == nil {
					e, code, err = s.compute(ctx, in, spec, machine, true, false)
				}
			} else {
				e, code, err = s.compute(ctx, in, spec, machine, false, false)
			}
			if err == nil {
				s.cache.Add(key, e)
				if tier && e.Tier == tierFast {
					s.enqueueUpgrade(key, in, spec, machine, e.Cycles)
				}
			}
			return e, code, err
		})
	}
	e, code, err := call.wait(reqCtx)
	if err == nil {
		s.countTier(e)
	}
	return e, code, err
}

// runJob admits work to the queue as one job. The job's deadline d
// starts at admission, so time spent queued counts against it; reqCtx
// bounds only a blocking submission. In the worker the job runs
// Config.JobStartHook, is dropped with 504 if its deadline lapsed in
// the queue, and otherwise runs work. finish receives the outcome
// exactly once: a refused admission (429 from TrySubmit; 503 or 504
// from a blocking Submit), the drop, work's result, or a 500 when the
// job panics, which ends the job but not its worker.
func (s *Server) runJob(reqCtx context.Context, d time.Duration, block bool,
	finish func(*entry, int, error), work func(context.Context) (*entry, int, error)) {

	ctx, cancel := context.WithTimeout(context.Background(), d)
	job := func() {
		var e *entry
		var code int
		var err error
		defer func() {
			cancel()
			if p := recover(); p != nil {
				e, code, err = nil, http.StatusInternalServerError, fmt.Errorf("allocation job panicked: %v", p)
			}
			finish(e, code, err)
		}()
		if s.cfg.JobStartHook != nil {
			s.cfg.JobStartHook()
		}
		if ctx.Err() != nil {
			s.metrics.CountDropped()
			code, err = http.StatusGatewayTimeout, fmt.Errorf("dropped after %v in queue: %w", d, ctx.Err())
			return
		}
		e, code, err = work(ctx)
	}
	var code int
	var err error
	if !block {
		if !s.queue.TrySubmit(job) {
			code, err = http.StatusTooManyRequests, errQueueFull
		}
	} else if err = s.queue.Submit(reqCtx, job); errors.Is(err, ErrQueueClosed) {
		code = http.StatusServiceUnavailable
	} else if err != nil {
		code = http.StatusGatewayTimeout
	}
	if err != nil {
		cancel()
		finish(nil, code, err)
	}
}

// StatusClientGone is nginx's 499 "client closed request", reported
// when the caller's own context dies while waiting on a shared flight,
// and by the router when its client goes away mid-forward.
const StatusClientGone = 499

// prepare decodes in and, when spec asks for it, runs the SSA scalar
// optimizations on the function: the prologue of both tiers' compute.
func prepare(in srcInput, spec Spec) (*ir.Func, int, error) {
	f, code, err := in.decode()
	if err != nil {
		return nil, code, err
	}
	if spec.Optimize {
		ssa.Build(f)
		opt.Optimize(f)
		ssa.Destruct(f)
		f.CompactNops()
	}
	return f, 0, nil
}

// compute parses or decodes, optionally optimizes, and allocates one
// function under ctx, which regalloc.Run polls at its phase
// boundaries. tier stamps the entry as a full-tier result (with its
// estimated cycle count) for responses that must name their tier;
// transient makes an entry that is written once and never cached.
func (s *Server) compute(ctx context.Context, in srcInput, spec Spec,
	machine *target.Machine, tier, transient bool) (*entry, int, error) {

	f, code, err := prepare(in, spec)
	if err != nil {
		return nil, code, err
	}
	alloc, err := bench.NewAllocator(spec.Allocator)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	// Borrow a pooled workspace for the Run; it returns to the pool
	// dirty (the driver clears on borrow), so steady-state requests
	// allocate almost nothing beyond what the function itself needs.
	ws := s.workspaces.get()
	defer s.workspaces.put(ws)
	out, stats, err := regalloc.Run(f, machine, alloc, regalloc.Options{
		Context:          ctx,
		MaxRounds:        spec.MaxRounds,
		Rematerialize:    spec.Rematerialize,
		BlockLocalSpills: spec.BlockLocalSpills,
		CollectTelemetry: true,
		Workspace:        ws,
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, http.StatusGatewayTimeout, err
		}
		return nil, http.StatusUnprocessableEntity, err
	}
	s.metrics.CountExecuted(stats.Telemetry)
	text := out.String()
	var tierName string
	var cycles float64
	if tier {
		tierName, cycles = tierFull, perfmodel.Estimate(out, machine).Cycles
	}
	mk := newEntry
	if transient {
		mk = newTransientEntry
	}
	return mk(text, bench.TextDigest(f.Name, stats, text), statsFrom(stats), tierName, cycles), 0, nil
}
