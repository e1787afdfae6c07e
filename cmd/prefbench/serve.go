package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prefcolor"
	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/server"
	"prefcolor/internal/workload"
)

const (
	// serveClients closed-loop clients: the daemon's callers are
	// compiler threads that block on the reply. The count is an
	// assumption, not a measured number of caller threads: two match the
	// two vCPUs of the reference host.
	serveClients = 2

	// hotCorpusSize distinct functions, three times the daemon's default
	// 1,024-entry cache, are drawn Zipf(zipfS) by serve-hot-tier. The
	// skew and the corpus size are assumptions, not fitted to measured
	// caller traffic; together they give about 87% cache hits.
	hotCorpusSize  = 3000
	hotCorpusSmall = 300
	zipfS          = 1.1

	// reseedStride offsets a paper profile's seed for each further copy
	// of it in the serve-hot-tier corpus.
	reseedStride = 0x9E3779B1

	// requestIDHeader joins a client span to the handler span of the same
	// request in traced runs. The daemon ignores it.
	requestIDHeader = "X-Request-Id"
)

// serveWorkload is a daemon configuration and the functions its clients
// post.
type serveWorkload struct {
	name   string
	cfg    server.Config
	path   string // request path and query
	binary bool   // bodies are binary IR; otherwise {"source": text}
	items  []serveItem

	// firstTouch is how many leading items the warm-up posts once each;
	// their replies give the quality metrics.
	firstTouch int
}

// serveItem is one corpus function as the client posts it.
type serveItem struct {
	name string
	body []byte
}

// newServeWorkload generates a serve workload's corpus. serve-cold posts
// the nine paper profiles plus the large profile (binary IR, no_cache);
// serve-hot-tier posts JSON text of re-seeded copies of the paper
// profiles, the first copy being the paper's own functions. All profile
// seeds are fixed (README, "Seeds").
func newServeWorkload(name string, small bool) *serveWorkload {
	m := prefcolor.NewMachine(16)
	if name == "serve-cold" {
		w := &serveWorkload{name: name, path: "/v1/allocate?k=16&no_cache=true", binary: true}
		for _, p := range append(prefcolor.Benchmarks(), workload.Large()) {
			if small {
				p.Funcs = min(p.Funcs, 2)
			}
			for _, f := range workload.Generate(p, m) {
				w.items = append(w.items, serveItem{f.Name, prefcolor.EncodeFunctionBinary(f)})
			}
		}
		w.firstTouch = len(w.items)
		return w
	}
	w := &serveWorkload{name: name, cfg: server.Config{Tier: true}, path: "/v1/allocate"}
	n := hotCorpusSize
	if small {
		n = hotCorpusSmall
	}
	for r := 0; len(w.items) < n; r++ {
		if r == 1 {
			w.firstTouch = len(w.items)
		}
		for _, p := range prefcolor.Benchmarks() {
			p.Seed += int64(r) * reseedStride
			p.Name = fmt.Sprintf("%s-r%d", p.Name, r)
			p.Funcs = min(p.Funcs, n-len(w.items))
			for _, f := range workload.Generate(p, m) {
				// A struct of one string field always marshals.
				body, _ := json.Marshal(struct {
					Source string `json:"source"`
				}{f.String()})
				w.items = append(w.items, serveItem{f.Name, body})
			}
		}
	}
	return w
}

// decode reads a request body the way the daemon does, for the oracle.
func (w *serveWorkload) decode(body []byte) (*ir.Func, error) {
	if w.binary {
		return prefcolor.DecodeFunctionBinary(body)
	}
	var req struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return prefcolor.ParseFunction(req.Source)
}

// daemon is the allocation server on a loopback listener in this
// process, and the HTTP client that calls it.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	hc     *http.Client
}

func startDaemon(cfg server.Config, tr *tracer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(cfg)
	h := srv.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: h}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener, waits for Serve to return, and drains the
// daemon.
func (d *daemon) close() error {
	d.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Close()
	if err != nil {
		return fmt.Errorf("stopping the daemon: %w", err)
	}
	return nil
}

// traceHandler is the benchmark's middleware around the daemon: it
// records a server.handler span for every request that carries a
// request id.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.add("server.handler", t0, time.Now(), 0, id)
	})
}

// exchange is one completed HTTP request.
type exchange struct {
	status  int
	payload []byte
	cache   string // the X-Prefgcd-Cache header: "hit" or "miss"
}

// decode checks for a 200 and unmarshals the reply into v.
func (ex exchange) decode(v any) error {
	if ex.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", ex.status, bytes.TrimSpace(ex.payload))
	}
	return json.Unmarshal(ex.payload, v)
}

// post sends one function; reqID > 0 tags the request for tracing.
func (d *daemon) post(w *serveWorkload, body []byte, reqID int64) (exchange, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+w.path, bytes.NewReader(body))
	if err != nil {
		return exchange{}, err
	}
	if w.binary {
		req.Header.Set("Content-Type", server.BinaryContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID > 0 {
		req.Header.Set(requestIDHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return exchange{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return exchange{}, err
	}
	return exchange{resp.StatusCode, payload, resp.Header.Get(server.CacheHeader)}, nil
}

// scrape reads the daemon's /metrics as series name (labels included)
// to value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %q: %w", line, err)
		}
		series[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return series, nil
}

// reply is the part of a /v1/allocate response the checks need.
type reply struct {
	Function string `json:"function"`
	Digest   string `json:"digest"`
	Tier     string `json:"tier"`
	Stats    struct {
		MovesRemaining int `json:"moves_remaining"`
		SpillLoads     int `json:"spill_loads"`
		SpillStores    int `json:"spill_stores"`
	} `json:"stats"`
}

// served identifies one distinct allocation the daemon returned.
type served struct {
	item         int
	tier, digest string
}

// sweep posts the corpus functions order names (a permutation of the
// first len(order) items) once each from serveClients clients, and
// returns the replies by corpus index.
func (w *serveWorkload) sweep(d *daemon, order []int) ([]reply, error) {
	replies := make([]reply, len(order))
	errs := make([]error, serveClients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				i := order[k]
				ex, err := d.post(w, w.items[i].body, 0)
				if err == nil {
					err = ex.decode(&replies[i])
				}
				if err != nil {
					errs[c] = fmt.Errorf("%s: %w", w.items[i].name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return replies, errors.Join(errs...)
}

// load is what the closed-loop clients observed.
type load struct {
	attempted, failed int
	ok                [2]int // 200 responses to untraced and traced requests
	full              int    // 200 responses at pref-full quality
	lat               []float64
	hitLat, missLat   []float64
	seen              map[served]struct{}
	firstErr          error
}

func (l *load) merge(o *load) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.ok[0] += o.ok[0]
	l.ok[1] += o.ok[1]
	l.full += o.full
	l.lat = append(l.lat, o.lat...)
	l.hitLat = append(l.hitLat, o.hitLat...)
	l.missLat = append(l.missLat, o.missLat...)
	for k := range o.seen {
		l.seen[k] = struct{}{}
	}
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

// drive runs one closed-loop client per picker until more reports
// false. Requests that start in a traced slice carry a request id and
// are recorded as client spans.
func (w *serveWorkload) drive(d *daemon, pickers []func() int, more func() bool, sl traceSlices, tr *tracer) *load {
	loads := make([]load, len(pickers))
	var ids atomic.Int64
	var wg sync.WaitGroup
	for c, pick := range pickers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &loads[c]
			l.seen = map[served]struct{}{}
			for more() {
				i := pick()
				t0 := time.Now()
				var id int64
				mode := 0
				if sl.traced(t0) {
					id, mode = ids.Add(1), 1
				}
				ex, err := d.post(w, w.items[i].body, id)
				t1 := time.Now()
				l.attempted++
				if id > 0 {
					tr.add("http.request", t0, t1, 0, id)
				}
				// Only the fields the checks need: decoding the function
				// text too would add client allocations to the daemon's.
				var rep struct {
					Digest string `json:"digest"`
					Tier   string `json:"tier"`
				}
				if err == nil {
					err = ex.decode(&rep)
				}
				if err != nil {
					l.failed++
					if l.firstErr == nil {
						l.firstErr = fmt.Errorf("%s: %w", w.items[i].name, err)
					}
					continue
				}
				l.ok[mode]++
				lat := ms(t1.Sub(t0))
				l.lat = append(l.lat, lat)
				if ex.cache == "hit" {
					l.hitLat = append(l.hitLat, lat)
				} else {
					l.missLat = append(l.missLat, lat)
				}
				if !w.cfg.Tier || rep.Tier == "full" {
					l.full++
				}
				l.seen[served{i, rep.Tier, rep.Digest}] = struct{}{}
			}
		}()
	}
	wg.Wait()
	all := &load{seen: map[served]struct{}{}}
	for i := range loads {
		all.merge(&loads[i])
	}
	return all
}

// pickers returns one seeded corpus-index generator per client: Zipf
// over a seeded ranking of the corpus for serve-hot-tier, uniform for
// serve-cold.
func (w *serveWorkload) pickers(rng *rand.Rand, rank []int) []func() int {
	ps := make([]func() int, serveClients)
	for c := range ps {
		r := rand.New(rand.NewSource(rng.Int63()))
		if w.cfg.Tier {
			z := rand.NewZipf(r, zipfS, 1, uint64(len(rank)-1))
			ps[c] = func() int { return rank[z.Uint64()] }
		} else {
			n := len(w.items)
			ps[c] = func() int { return r.Intn(n) }
		}
	}
	return ps
}

// runServe runs serve-cold or serve-hot-tier: the daemon in this
// process on a loopback listener, serveClients closed-loop clients.
func runServe(name string, o options) (res *result, tr *tracer, err error) {
	rng := rand.New(rand.NewSource(o.seed))
	vs := values{}
	if o.trace {
		tr = newTracer()
	}

	// Set-up: generate the corpus, start the daemon, and post the
	// first-touch functions once each; serve-hot-tier then sends as many
	// Zipf requests as it has functions, so the cache holds the hot set.
	var w *serveWorkload
	var d *daemon
	var warm []reply
	var warmSeen map[served]struct{}
	var rank []int
	var setups []float64
	defer func() {
		if d != nil {
			err = errors.Join(err, d.close())
		}
	}()
	for range setupReps {
		if d != nil {
			err := d.close()
			d = nil
			if err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		w = newServeWorkload(name, o.small)
		if d, err = startDaemon(w.cfg, tr); err != nil {
			return nil, nil, err
		}
		if warm, err = w.sweep(d, rng.Perm(w.firstTouch)); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		if w.cfg.Tier {
			if rank == nil {
				rank = rng.Perm(len(w.items))
			}
			var budget atomic.Int64
			budget.Store(int64(len(w.items)))
			l := w.drive(d, w.pickers(rng, rank), func() bool { return budget.Add(-1) >= 0 }, traceSlices{}, nil)
			if l.failed > 0 {
				return nil, nil, fmt.Errorf("warm-up: %d of %d requests failed: %w", l.failed, l.attempted, l.firstErr)
			}
			warmSeen = l.seen
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	_, med, _ := quartiles(setups)
	vs.set("setup_s", med, len(setups))

	var before map[string]float64
	if o.trace {
		if before, err = d.scrape(); err != nil {
			return nil, nil, err
		}
	}
	pickers := w.pickers(rng, rank)
	runtime.GC()
	rt0 := readRuntime()
	start := time.Now()
	stop := start.Add(o.seconds)
	sl := traceSlices{start, o.trace}
	l := w.drive(d, pickers, func() bool { return time.Now().Before(stop) }, sl, tr)
	elapsed := time.Since(start)
	rt1 := readRuntime()
	if l.failed > 0 {
		fmt.Fprintf(os.Stderr, "prefbench: %s: %d of %d requests failed, first: %v\n", name, l.failed, l.attempted, l.firstErr)
	}
	ok := l.ok[0] + l.ok[1]
	vs.set("funcs_per_s", ratio(float64(ok), elapsed.Seconds()), ok)
	vs.set("latency_ms_p50", percentile(l.lat, 0.50), len(l.lat))
	vs.set("latency_ms_p99", percentile(l.lat, 0.99), len(l.lat))
	vs.set("ok_frac", ratio(float64(ok), float64(l.attempted)), l.attempted)
	vs.set("full_tier_frac", ratio(float64(l.full), float64(ok)), ok)
	recordRuntime(vs, rt0, rt1, elapsed.Seconds(), ok)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	vs.set("peak_rss_mb", rss, 1)
	if o.trace {
		after, err := d.scrape()
		if err != nil {
			return nil, nil, err
		}
		recordServeLayers(vs, tr, l, before, after, sl, start.Add(elapsed))
	}
	err = d.close()
	d = nil
	if err != nil {
		return nil, nil, err
	}

	for k := range warmSeen {
		l.seen[k] = struct{}{}
	}
	// Quality of what the daemon served on first touch: the warm-up
	// pass, summed in corpus order.
	m := prefcolor.NewMachine(16)
	var cycles float64
	var spills, moves int
	for i, r := range warm {
		out, err := prefcolor.ParseFunction(r.Function)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing the allocation of %s: %w", w.items[i].name, err)
		}
		cycles += prefcolor.EstimateCycles(out, m).Cycles
		spills += r.Stats.SpillLoads + r.Stats.SpillStores
		moves += r.Stats.MovesRemaining
		l.seen[served{i, r.Tier, r.Digest}] = struct{}{}
	}
	vs.set("est_cycles", cycles, len(warm))
	vs.set("spill_instrs", float64(spills), len(warm))
	vs.set("moves_remaining", float64(moves), len(warm))

	checked, mismatches := w.check(l.seen)
	res, err = finish(name, o.trace, vs, l.attempted, l.failed, checked, mismatches)
	return res, tr, err
}

// recordServeLayers sets a traced serve run's per-layer metrics from the
// spans, the client's view of cache and tier headers, and the change in
// the daemon's /metrics over the timed phase.
func recordServeLayers(vs values, tr *tracer, l *load, before, after map[string]float64, sl traceSlices, end time.Time) {
	// Join each handler span to the client span of the same request.
	client := map[int64]int{}
	for i, s := range tr.spans {
		if s.name == "http.request" {
			client[s.req] = i + 1
		}
	}
	for i := range tr.spans {
		if s := &tr.spans[i]; s.name == "server.handler" {
			s.parent = client[s.req]
		}
	}
	self, count := tr.layerTimes()
	n := count["http.request"]
	vs.set("http.transport.ms", ratio(ms(self["http.request"]), float64(n)), n)
	handler := tr.durations("server.handler")
	vs.set("server.handler.ms_p50", percentile(handler, 0.50), len(handler))
	vs.set("server.handler.ms_p99", percentile(handler, 0.99), len(handler))
	tracedWall := sl.tracedWall(end)
	vs.set("trace.attributed_frac", ratio(float64(self["http.request"]+self["server.handler"]),
		float64(tracedWall)*serveClients), n)
	untracedWall := end.Sub(sl.start) - tracedWall
	vs.set("trace.overhead_frac", 1-ratio(ratio(float64(l.ok[1]), tracedWall.Seconds()),
		ratio(float64(l.ok[0]), untracedWall.Seconds())), l.ok[1])

	vs.set("tier.hit_ms_p50", percentile(l.hitLat, 0.50), len(l.hitLat))
	vs.set("tier.miss_ms_p50", percentile(l.missLat, 0.50), len(l.missLat))
	vs.set("tier.miss_ms_p99", percentile(l.missLat, 0.99), len(l.missLat))

	delta := func(series string) float64 { return after[series] - before[series] }
	secs := end.Sub(sl.start).Seconds()
	var phaseWall float64
	for k, v := range after {
		if strings.HasPrefix(k, "prefgcd_alloc_phase_wall_seconds{") {
			phaseWall += v - before[k]
		}
	}
	jobs := delta("prefgcd_jobs_executed_total")
	vs.set("server.compute.ms_per_job", ratio(1000*phaseWall, jobs), int(jobs))
	hits, misses := delta("prefgcd_cache_hits_total"), delta("prefgcd_cache_misses_total")
	vs.set("server.cache.hit_frac", ratio(hits, hits+misses), int(hits+misses))
	evictions := delta("prefgcd_cache_evictions_total")
	vs.set("server.cache.evictions_per_s", ratio(evictions, secs), int(evictions))
	shared := delta("prefgcd_singleflight_shared_total")
	vs.set("server.singleflight.shared", shared, int(shared))
	rejected := delta(`prefgcd_requests_total{endpoint="allocate",code="429"}`)
	vs.set("server.rejected_429", rejected, int(rejected))
	dropped := delta("prefgcd_jobs_deadline_dropped_total")
	vs.set("server.jobs_dropped", dropped, int(dropped))
	gets := delta("prefgcd_workspace_pool_gets_total")
	vs.set("server.workspace_pool.hit_frac", ratio(gets-delta("prefgcd_workspace_pool_news_total"), gets), int(gets))
	upgrades := delta("prefgcd_tier_upgrades_total")
	vs.set("tier.upgrades_per_s", ratio(upgrades, secs), int(upgrades))
	sheds := delta("prefgcd_tier_upgrade_sheds_total")
	vs.set("tier.sheds_per_s", ratio(sheds, secs), int(sheds))
	vs.set("tier.upgrade_s_mean", ratio(delta("prefgcd_tier_upgrade_seconds_total"), upgrades), int(upgrades))
	vs.set("tier.quality_ratio", ratio(delta("prefgcd_tier_fast_cycles_total"), delta("prefgcd_tier_full_cycles_total")), int(upgrades))
}

// check recomputes every distinct allocation the daemon returned with an
// in-process oracle — linearscan.Run for fast-tier responses, pref-full
// through regalloc.Run for the rest — and counts digest mismatches.
func (w *serveWorkload) check(seen map[served]struct{}) (checked, mismatches int) {
	type key struct {
		item int
		fast bool
	}
	want := map[key]string{}
	for s := range seen {
		want[key{s.item, s.tier == "fast"}] = ""
	}
	keys := make([]key, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a].item < keys[b].item || keys[a].item == keys[b].item && !keys[a].fast && keys[b].fast
	})
	digests := make([]string, len(keys))
	m := prefcolor.NewMachine(16)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(keys); k = int(next.Add(1)) - 1 {
				item := w.items[keys[k].item]
				f, err := w.decode(item.body)
				var out *ir.Func
				var st *regalloc.Stats
				if err == nil && keys[k].fast {
					out, st, err = linearscan.Run(f, m, linearscan.RunOptions{})
				} else if err == nil {
					out, st, err = regalloc.Run(f, m, prefcolor.PreferenceDirected(), regalloc.Options{})
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "prefbench: %s: oracle %s: %v\n", w.name, item.name, err)
					continue
				}
				digests[k] = bench.FuncDigest(f.Name, st, out)
			}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		want[k] = digests[i]
	}
	for s := range seen {
		checked++
		if exp := want[key{s.item, s.tier == "fast"}]; exp == "" || exp != s.digest {
			mismatches++
			fmt.Fprintf(os.Stderr, "prefbench: %s: %s (tier %q): digest %.12s, oracle %.12s\n",
				w.name, w.items[s.item].name, s.tier, s.digest, exp)
		}
	}
	return checked, mismatches
}
