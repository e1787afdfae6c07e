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
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/opt"
	"prefcolor/internal/perfmodel"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/ssa"
	"prefcolor/internal/target"
)

// ErrQueueClosed reports a submission to a draining queue.
var ErrQueueClosed = errors.New("server: queue closed")

// errQueueFull reports a refused admission.
var errQueueFull = errors.New("server: queue full")

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

	// MaxBodyBytes bounds a request body; 0 means 4 MiB.
	MaxBodyBytes int64

	// DefaultTimeout applies when a request carries no timeout_ms;
	// 0 means 30s.
	DefaultTimeout time.Duration

	// MaxTimeout caps any requested timeout; 0 means 120s.
	MaxTimeout time.Duration

	// MaxBatch bounds the functions of one /v1/batch request; 0 means
	// 256.
	MaxBatch int

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
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
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
	cache      *lruCache
	keys       *KeyResolver
	flights    *flightGroup
	metrics    *metrics
	workspaces *wsPool
	fastWS     sync.Pool // *linearscan.Workspace, for the fast tier
	upgrades   *upgrader
	mux        *http.ServeMux
	draining   atomic.Bool

	// hookJobStart, when set, runs at the start of every allocation
	// job — the test seam that makes queue saturation deterministic.
	hookJobStart func()
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		queue:      newQueue(cfg.QueueSize, cfg.Workers),
		cache:      newLRUCache(cfg.CacheEntries),
		keys:       NewKeyResolver(4 * cfg.CacheEntries),
		flights:    newFlightGroup(),
		metrics:    newMetrics(),
		workspaces: newWSPool(),

		hookJobStart: cfg.JobStartHook,
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

// Spec is the allocation configuration shared by both
// endpoints, normalized for cache keying.
type Spec struct {
	Machine          string `json:"machine,omitempty"`   // ia64 (default), x86, s390
	K                int    `json:"k,omitempty"`         // register count, default 16
	Allocator        string `json:"allocator,omitempty"` // default pref-full
	Optimize         bool   `json:"optimize,omitempty"`  // SSA scalar opts before allocation
	Rematerialize    bool   `json:"rematerialize,omitempty"`
	BlockLocalSpills bool   `json:"block_local_spills,omitempty"`
	MaxRounds        int    `json:"max_rounds,omitempty"`

	// NoCache bypasses the result cache and single-flight join (the
	// admission queue still applies): the request parses or decodes
	// and allocates from scratch in a worker, and the result is not
	// stored. This is the harness's honest cold-path measurement mode
	// — canonical cache keys defeat comment-salting tricks — and it is
	// deliberately excluded from the cache key.
	NoCache bool `json:"no_cache,omitempty"`
}

// Normalize fills defaults and validates; it returns the machine the
// spec names. Routers normalize before keying so that a request with
// defaults spelled out and one with them omitted hash to the same
// shard — the same identity the replica's own cache uses.
func (spec *Spec) Normalize() (*target.Machine, error) {
	if spec.Machine == "" {
		spec.Machine = "ia64"
	}
	if spec.K == 0 {
		spec.K = 16
	}
	if spec.K < 2 || spec.K > 256 {
		return nil, fmt.Errorf("k must be in [2, 256], got %d", spec.K)
	}
	if spec.Allocator == "" {
		spec.Allocator = "pref-full"
	}
	if _, err := bench.NewAllocator(spec.Allocator); err != nil {
		return nil, err
	}
	if spec.MaxRounds < 0 {
		return nil, fmt.Errorf("max_rounds must be non-negative, got %d", spec.MaxRounds)
	}
	switch spec.Machine {
	case "ia64":
		return target.UsageModel(spec.K), nil
	case "x86":
		return target.X86Like(spec.K), nil
	case "s390":
		return target.S390Like(spec.K), nil
	}
	return nil, fmt.Errorf("unknown machine %q (want ia64, x86, or s390)", spec.Machine)
}

// allocateRequest is the /v1/allocate body.
type allocateRequest struct {
	Spec
	Source    string `json:"source"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// batchRequest is the /v1/batch body; the spec and timeout apply to
// every function.
type batchRequest struct {
	Spec
	Functions []string `json:"functions"`
	TimeoutMS int      `json:"timeout_ms,omitempty"`
}

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

type batchResponse struct {
	Results []allocateResponse `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// counted wraps a handler so every response lands in the request
// counters (and, in replica mode, carries the replica's identity).
func (s *Server) counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.ReplicaID != "" {
			w.Header().Set(ReplicaHeader, s.cfg.ReplicaID)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.CountRequest(endpoint, rec.code)
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
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

func (s *Server) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest // e.g. client went away mid-body
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("reading body: %w", err))
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
		return false
	}
	return true
}

// BinaryContentType selects the binary IR wire format on /v1/allocate
// (one ir.EncodeBinary function as the body) and /v1/batch (a sequence
// of ir.AppendBinaryFrame frames). Binary requests carry the
// allocation spec in query parameters, since the body is the function
// itself.
const BinaryContentType = "application/x-prefgcd-ir"

func isBinaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == BinaryContentType || strings.HasPrefix(ct, BinaryContentType+";")
}

// SpecFromQuery builds the request spec for a binary request from the
// URL query: machine, k, allocator, optimize, rematerialize,
// block_local_spills, max_rounds, timeout_ms, no_cache.
func SpecFromQuery(r *http.Request) (Spec, int, error) {
	q := r.URL.Query()
	var spec Spec
	spec.Machine = q.Get("machine")
	spec.Allocator = q.Get("allocator")
	timeoutMS := 0
	for _, p := range []struct {
		name string
		dst  *int
	}{{"k", &spec.K}, {"max_rounds", &spec.MaxRounds}, {"timeout_ms", &timeoutMS}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return spec, 0, fmt.Errorf("query %s=%q: %w", p.name, v, err)
			}
			*p.dst = n
		}
	}
	for _, p := range []struct {
		name string
		dst  *bool
	}{
		{"optimize", &spec.Optimize}, {"rematerialize", &spec.Rematerialize},
		{"block_local_spills", &spec.BlockLocalSpills}, {"no_cache", &spec.NoCache},
	} {
		if v := q.Get(p.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return spec, 0, fmt.Errorf("query %s=%q: %w", p.name, v, err)
			}
			*p.dst = b
		}
	}
	return spec, timeoutMS, nil
}

// readRawBody reads a binary request body under the size limit.
func (s *Server) readRawBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return body, true
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	var in srcInput
	var spec Spec
	var timeoutMS int
	if isBinaryRequest(r) {
		body, ok := s.readRawBody(w, r)
		if !ok {
			return
		}
		if len(body) == 0 {
			writeError(w, http.StatusBadRequest, errors.New("empty source"))
			return
		}
		if !ir.IsBinary(body) {
			writeError(w, http.StatusBadRequest, errors.New("body is not binary IR (bad magic)"))
			return
		}
		var err error
		if spec, timeoutMS, err = SpecFromQuery(r); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		in = srcInput{binary: body}
	} else {
		var req allocateRequest
		if !s.readBody(w, r, &req) {
			return
		}
		if req.Source == "" {
			writeError(w, http.StatusBadRequest, errors.New("empty source"))
			return
		}
		spec, timeoutMS = req.Spec, req.TimeoutMS
		in = srcInput{text: req.Source}
	}
	machine, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.cfg.TrustKeyHeader {
		if canon, ok := DecodeKeyHeader(r.Header.Get(KeyHeader)); ok {
			in.canonHash, in.canonKnown = canon, true
		}
	}
	resp, code, err := s.doOne(r.Context(), in, spec, machine, s.timeout(timeoutMS), false)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, err)
		return
	}
	if resp.Cached {
		w.Header().Set(CacheHeader, "hit")
	} else {
		w.Header().Set(CacheHeader, "miss")
	}
	if resp.Tier != "" {
		w.Header().Set(TierHeader, resp.Tier)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if isBinaryRequest(r) {
		s.handleBatchBinary(w, r)
		return
	}
	var req batchRequest
	if !s.readBody(w, r, &req) {
		return
	}
	machine, err := req.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Functions) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Functions) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds limit %d", len(req.Functions), s.cfg.MaxBatch))
		return
	}
	d := s.timeout(req.TimeoutMS)

	// Items run through the same cache/flight/queue path as single
	// allocations, but submission blocks (backpressure) and fan-out is
	// capped so one batch cannot occupy every queue slot at once.
	results := make([]allocateResponse, len(req.Functions))
	sem := make(chan struct{}, min(s.cfg.Workers, 8))
	var wg sync.WaitGroup
	for i, src := range req.Functions {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if src == "" {
				results[i] = allocateResponse{Error: "empty source", Code: http.StatusBadRequest}
				return
			}
			resp, code, err := s.doOne(r.Context(), srcInput{text: src}, req.Spec, machine, d, true)
			if err != nil {
				results[i] = allocateResponse{Error: err.Error(), Code: code}
				return
			}
			results[i] = *resp
		}(i, src)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
}

// handleBatchBinary serves a /v1/batch request whose body is a stream
// of length-prefixed binary functions. Frames decode one at a time in
// the handler while already-decoded functions are being allocated by
// the pool — ingesting function N+1 overlaps allocating function N —
// so a large batch never sits fully parsed in memory before the first
// allocation starts.
func (s *Server) handleBatchBinary(w http.ResponseWriter, r *http.Request) {
	spec, timeoutMS, err := SpecFromQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	machine, err := spec.Normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	d := s.timeout(timeoutMS)

	dec := ir.NewStreamDecoder(bufio.NewReader(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)))
	dec.MaxFrame = int(s.cfg.MaxBodyBytes)

	var (
		mu      sync.Mutex
		results []allocateResponse
		sem     = make(chan struct{}, min(s.cfg.Workers, 8))
		wg      sync.WaitGroup
		decErr  error
	)
	n := 0
	for ; ; n++ {
		f, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			decErr = err
			break
		}
		if n >= s.cfg.MaxBatch {
			decErr = fmt.Errorf("batch exceeds limit %d", s.cfg.MaxBatch)
			break
		}
		mu.Lock()
		results = append(results, allocateResponse{})
		mu.Unlock()
		wg.Add(1)
		go func(i int, in srcInput) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			resp, code, err := s.doOne(r.Context(), in, spec, machine, d, true)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				results[i] = allocateResponse{Error: err.Error(), Code: code}
				return
			}
			results[i] = *resp
		}(n, srcInput{binary: ir.EncodeBinary(f), f: f})
	}
	wg.Wait()
	if decErr != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("frame %d: %w", n, decErr))
		return
	}
	if n == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: results})
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
	writeJSON(w, code, health)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, evictions := s.cache.Counters()
	wsGets, wsNews := s.workspaces.counters()
	upDepth, upCap := s.upgradeDepth()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, s.metrics.Render(
		s.queue.Depth(), s.queue.Capacity(), s.cache.Len(),
		hits, misses, evictions, s.flights.Shared(), wsGets, wsNews,
		upDepth, upCap))
}

// srcInput is one function input in whichever wire form it arrived:
// textual IR, the canonical binary encoding, or (when a handler has
// already decoded it) the function itself alongside its canonical
// bytes.
type srcInput struct {
	text   string   // textual IR; empty when binary is set
	binary []byte   // binary IR encoding; nil for text requests
	f      *ir.Func // decoded form, when already known

	// canonHash is sha256 over the function's canonical binary
	// encoding, filled in by resolveKey — or, when canonKnown is set,
	// taken on trust from the X-Prefgcd-Key request header.
	canonHash  [32]byte
	canonKnown bool
}

// decode produces the function from whichever wire form in carries.
func (in *srcInput) decode() (*ir.Func, int, error) {
	if in.f != nil {
		return in.f, 0, nil
	}
	var f *ir.Func
	var err error
	if in.binary != nil {
		f, err = ir.DecodeBinary(in.binary)
	} else {
		f, err = ir.Parse(in.text)
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return f, 0, nil
}

// doOne resolves one allocation request: result cache, then
// single-flight join, then the work queue. reqCtx bounds only this
// caller's wait — the computation itself runs under its own deadline
// so one impatient caller cannot poison the shared flight. block
// selects the batch endpoint's blocking submission. Requests with
// spec.NoCache skip the cache and flight entirely (but still queue).
func (s *Server) doOne(reqCtx context.Context, in srcInput, spec Spec,
	machine *target.Machine, d time.Duration, block bool) (*allocateResponse, int, error) {

	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, errors.New("server draining")
	}
	if spec.NoCache {
		return s.doUncached(reqCtx, in, spec, machine, d, block)
	}
	if code, err := s.keys.resolve(&in); err != nil {
		return nil, code, err
	}
	key := KeyFor(in.canonHash, spec)
	if e, ok := s.cache.Get(key); ok {
		return s.respFrom(e, true), 0, nil
	}
	tier := s.tierApplies(spec)

	call, leader := s.flights.join(key)
	if leader {
		// The job's deadline starts at admission, so time spent queued
		// counts against it; a job whose deadline lapses in the queue
		// is dropped by the worker without running the allocator.
		jobCtx, cancel := context.WithTimeout(context.Background(), d)
		job := func() {
			defer cancel()
			if s.hookJobStart != nil {
				s.hookJobStart()
			}
			if jobCtx.Err() != nil {
				s.metrics.CountDropped()
				s.flights.complete(key, call, nil,
					fmt.Errorf("dropped after %v in queue: %w", d, jobCtx.Err()),
					http.StatusGatewayTimeout)
				return
			}
			var e *entry
			var code int
			var err error
			if tier {
				// Fast tier first; any fast-path failure falls back to
				// the full pipeline so tiering never loses a request.
				if e, code, err = s.computeFast(jobCtx, in, spec, machine); err != nil && jobCtx.Err() == nil {
					e, code, err = s.compute(jobCtx, in, spec, machine, true)
				}
			} else {
				e, code, err = s.compute(jobCtx, in, spec, machine, false)
			}
			if err == nil {
				s.cache.Add(key, e)
				if tier && e.Tier == tierFast {
					s.enqueueUpgrade(key, in, spec, machine, e.Cycles)
				}
			}
			s.flights.complete(key, call, e, err, code)
		}
		var admitted bool
		if block {
			err := s.queue.Submit(reqCtx, job)
			admitted = err == nil
			if errors.Is(err, ErrQueueClosed) {
				cancel()
				s.flights.complete(key, call, nil, err, http.StatusServiceUnavailable)
				return nil, http.StatusServiceUnavailable, err
			}
			if err != nil {
				cancel()
				s.flights.complete(key, call, nil, err, http.StatusGatewayTimeout)
				return nil, http.StatusGatewayTimeout, err
			}
		} else {
			admitted = s.queue.TrySubmit(job)
			if !admitted {
				cancel()
				s.flights.complete(key, call, nil, errQueueFull, http.StatusTooManyRequests)
				return nil, http.StatusTooManyRequests, errQueueFull
			}
		}
	}

	select {
	case <-call.done:
	case <-reqCtx.Done():
		// This caller gave up; the flight (if any) keeps computing so
		// other waiters — and the cache — still benefit.
		return nil, statusClientGone, reqCtx.Err()
	}
	if call.err != nil {
		return nil, call.code, call.err
	}
	return s.respFrom(call.val, false), 0, nil
}

// respFrom shapes a cache entry into the wire response and tallies the
// serving tier when the entry carries one.
func (s *Server) respFrom(e *entry, cached bool) *allocateResponse {
	if e.Tier != "" {
		s.metrics.CountTierServed(e.Tier)
	}
	return &allocateResponse{Function: e.Function, Digest: e.Digest, Stats: e.Stats,
		Cached: cached, Tier: e.Tier, Cycles: e.Cycles}
}

// doUncached runs one allocation through the admission queue without
// consulting or filling the cache and without single-flight joining:
// parse/decode and allocation both happen in the worker, so the
// measured latency is the whole cold path.
func (s *Server) doUncached(reqCtx context.Context, in srcInput, spec Spec,
	machine *target.Machine, d time.Duration, block bool) (*allocateResponse, int, error) {

	jobCtx, cancel := context.WithTimeout(context.Background(), d)
	done := make(chan struct{})
	var (
		e    *entry
		code int
		err  error
	)
	job := func() {
		defer close(done)
		defer cancel()
		if s.hookJobStart != nil {
			s.hookJobStart()
		}
		if jobCtx.Err() != nil {
			s.metrics.CountDropped()
			code, err = http.StatusGatewayTimeout,
				fmt.Errorf("dropped after %v in queue: %w", d, jobCtx.Err())
			return
		}
		e, code, err = s.compute(jobCtx, in, spec, machine, false)
	}
	if block {
		if serr := s.queue.Submit(reqCtx, job); serr != nil {
			cancel()
			if errors.Is(serr, ErrQueueClosed) {
				return nil, http.StatusServiceUnavailable, serr
			}
			return nil, http.StatusGatewayTimeout, serr
		}
	} else if !s.queue.TrySubmit(job) {
		cancel()
		return nil, http.StatusTooManyRequests, errQueueFull
	}

	select {
	case <-done:
	case <-reqCtx.Done():
		return nil, statusClientGone, reqCtx.Err()
	}
	if err != nil {
		return nil, code, err
	}
	return &allocateResponse{Function: e.Function, Digest: e.Digest, Stats: e.Stats, Cached: false}, 0, nil
}

// statusClientGone is nginx's 499 "client closed request", reported
// when the caller's own context dies while waiting on a shared flight.
const statusClientGone = 499

// compute parses or decodes, optionally optimizes, and allocates one
// function under ctx, which regalloc.Run polls at its phase
// boundaries. tier stamps the entry as a full-tier result (with its
// estimated cycle count) for responses that must name their tier.
func (s *Server) compute(ctx context.Context, in srcInput, spec Spec,
	machine *target.Machine, tier bool) (*entry, int, error) {

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
	e := &entry{
		Function: out.String(),
		Digest:   bench.FuncDigest(f.Name, stats, out),
		Stats:    statsFrom(stats),
	}
	if tier {
		e.Tier = tierFull
		e.Cycles = perfmodel.Estimate(out, machine).Cycles
	}
	return e, 0, nil
}
