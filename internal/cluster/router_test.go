package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"prefcolor/internal/ir"
	"prefcolor/internal/server"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// distinctFunc returns a unique small function per i, so tests can
// spread keys across shards and bypass caches at will.
func distinctFunc(i int) string {
	return fmt.Sprintf(`func distinct%d(v0) {
b0:
  v1 = add v0, v0
  v2 = addimm v1, %d
  ret v2
}
`, i, i)
}

type testReplica struct {
	s  *server.Server
	ts *httptest.Server
}

// startReplicas brings up n in-process replicas r0..r(n-1) with the
// given per-replica sizing.
func startReplicas(t *testing.T, n int, cfg server.Config) []*testReplica {
	t.Helper()
	reps := make([]*testReplica, n)
	for i := range reps {
		c := cfg
		c.ReplicaID = fmt.Sprintf("r%d", i)
		s := server.New(c)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		reps[i] = &testReplica{s: s, ts: ts}
	}
	return reps
}

func newTestRouter(t *testing.T, reps []*testReplica, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	for i, rep := range reps {
		cfg.Replicas = append(cfg.Replicas, ReplicaConfig{
			ID:      fmt.Sprintf("r%d", i),
			BaseURL: rep.ts.URL,
		})
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // deterministic: passive detection only
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })
	return rt, front
}

func postAllocate(t *testing.T, url, src string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(server.AllocateRequest{Source: src})
	resp, err := http.Post(url+"/v1/allocate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// digestOf extracts the allocation digest from a 200 body.
func digestOf(t *testing.T, body []byte) string {
	t.Helper()
	var r struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("parsing response %q: %v", body, err)
	}
	if r.Digest == "" {
		t.Fatalf("response has no digest: %s", body)
	}
	return r.Digest
}

// oracleDigest asks a standalone replica — outside the cluster under
// test — for the ground-truth digest.
func oracleDigest(t *testing.T, oracle *httptest.Server, src string) string {
	t.Helper()
	resp, body := postAllocate(t, oracle.URL, src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle: HTTP %d: %s", resp.StatusCode, body)
	}
	return digestOf(t, body)
}

// keyOf mirrors the router's keying for a default-spec text request.
func keyOf(t *testing.T, src string) server.Key {
	t.Helper()
	keys := server.NewKeyResolver(16)
	canon, _, err := keys.ResolveText(src)
	if err != nil {
		t.Fatal(err)
	}
	var spec server.Spec
	if _, err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	return server.KeyFor(canon, spec)
}

// TestRouterRoutesToHomeShard pins the sharding contract: every
// request lands on the shard the ring names as its key's home, and a
// repeat of the same function hits that shard's cache.
func TestRouterRoutesToHomeShard(t *testing.T) {
	reps := startReplicas(t, 3, server.Config{Workers: 2, QueueSize: 16, CacheEntries: 64})
	rt, front := newTestRouter(t, reps, Config{})
	homes := map[string]bool{}
	for i := 0; i < 12; i++ {
		src := distinctFunc(i)
		want := rt.Home(keyOf(t, src))
		homes[want] = true
		resp, body := postAllocate(t, front.URL, src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("func %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get(server.ReplicaHeader); got != want {
			t.Errorf("func %d served by %s, home is %s", i, got, want)
		}
		if got := resp.Header.Get(server.CacheHeader); got != "miss" {
			t.Errorf("func %d first request: cache %q, want miss", i, got)
		}
		resp2, _ := postAllocate(t, front.URL, src)
		if got := resp2.Header.Get(server.CacheHeader); got != "hit" {
			t.Errorf("func %d repeat: cache %q, want hit", i, got)
		}
		if got := resp2.Header.Get(server.ReplicaHeader); got != want {
			t.Errorf("func %d repeat served by %s, home is %s", i, got, want)
		}
	}
	if len(homes) < 2 {
		t.Errorf("12 distinct functions all homed on %v — ring not spreading", homes)
	}
}

// TestDrainHandoffMidBatch drains a replica while a routed batch has
// requests in flight on it. The contract: requests already admitted
// run to completion on the draining replica, refused ones hand off to
// ring successors — the client sees zero 5xx and every digest matches
// a standalone oracle.
func TestDrainHandoffMidBatch(t *testing.T) {
	const n = 40
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	var once sync.Once

	reps := make([]*testReplica, 0, 3)
	for i := 0; i < 3; i++ {
		cfg := server.Config{
			Workers: 2, QueueSize: 64, CacheEntries: 64,
			ReplicaID: fmt.Sprintf("r%d", i),
		}
		if i == 1 { // the victim: first job announces itself, all jobs block
			cfg.JobStartHook = func() {
				once.Do(func() { started <- struct{}{} })
				<-gate
			}
		}
		s := server.New(cfg)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		reps = append(reps, &testReplica{s: s, ts: ts})
	}
	rt, front := newTestRouter(t, reps, Config{})
	victim := reps[1]

	oracleSrv := server.New(server.Config{Workers: 2, QueueSize: 64, CacheEntries: 64})
	oracle := httptest.NewServer(oracleSrv.Handler())
	t.Cleanup(func() { oracle.Close(); oracleSrv.Close() })

	funcs := make([]string, n)
	homedOnVictim := 0
	for i := range funcs {
		funcs[i] = distinctFunc(i)
		if rt.Home(keyOf(t, funcs[i])) == "r1" {
			homedOnVictim++
		}
	}
	if homedOnVictim == 0 {
		t.Fatal("no batch function homes on the victim — test proves nothing")
	}

	type batchResult struct {
		Results []struct {
			Digest string `json:"digest"`
			Error  string `json:"error"`
			Code   int    `json:"code"`
		} `json:"results"`
	}
	done := make(chan batchResult, 1)
	go func() {
		body, _ := json.Marshal(struct {
			Functions []string `json:"functions"`
		}{funcs})
		resp, err := http.Post(front.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		defer resp.Body.Close()
		var br batchResult
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Errorf("decoding batch response: %v", err)
		}
		done <- br
	}()

	// A victim worker has a batch item in flight; drain the victim
	// now, then let its admitted work finish.
	<-started
	victim.s.StartDrain()
	close(gate)

	br := <-done
	if len(br.Results) != n {
		t.Fatalf("batch returned %d results, want %d", len(br.Results), n)
	}
	for i, r := range br.Results {
		if r.Code >= 500 {
			t.Errorf("result %d: client-visible %d (%s) despite handoff", i, r.Code, r.Error)
			continue
		}
		if r.Error != "" {
			t.Errorf("result %d: error %q", i, r.Error)
			continue
		}
		if want := oracleDigest(t, oracle, funcs[i]); r.Digest != want {
			t.Errorf("result %d: digest %s, oracle says %s", i, r.Digest, want)
		}
	}
	if state, _ := rt.ReplicaState("r1"); state != "draining" {
		t.Errorf("router believes victim is %q, want draining", state)
	}
}

// retries429 reads the router's 429-retry counter.
func retries429(rt *Router) int64 {
	rt.metrics.mu.Lock()
	defer rt.metrics.mu.Unlock()
	return rt.metrics.retries["429"]
}

// TestQueueBackpressureUnderRestart saturates a one-worker replica's
// admission queue and pins the router's backpressure path: the
// replica's 429 + Retry-After is honored (bounded pause, same-replica
// retry) rather than failed over, and the same contract holds after
// the replica is killed and resurrected at a new address.
func TestQueueBackpressureUnderRestart(t *testing.T) {
	var mu sync.Mutex
	gate := make(chan struct{})
	blocking := true
	hook := func() {
		mu.Lock()
		b, g := blocking, gate
		mu.Unlock()
		if b {
			<-g
		}
	}
	mkServer := func() (*server.Server, *httptest.Server) {
		s := server.New(server.Config{
			Workers: 1, QueueSize: 1, CacheEntries: 16,
			ReplicaID: "r0", JobStartHook: hook,
		})
		return s, httptest.NewServer(s.Handler())
	}
	s0, ts0 := mkServer()
	t.Cleanup(func() { ts0.Close(); s0.Close() })
	rep := &testReplica{s: s0, ts: ts0}
	rt, front := newTestRouter(t, []*testReplica{rep}, Config{
		Retry429:   50,
		Max429Wait: 2 * time.Millisecond,
	})

	saturate := func(base int) (release func(), wait func()) {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ { // one in the worker, one queued
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, body := postAllocate(t, front.URL, distinctFunc(base+i))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("saturating request %d: HTTP %d: %s", i, resp.StatusCode, body)
				}
			}(i)
		}
		// Wait until the queue is actually full: a probe request must
		// bounce with 429 at the replica (observed via router retries).
		before := retries429(rt)
		probe := make(chan struct{})
		go func() {
			defer close(probe)
			resp, body := postAllocate(t, front.URL, distinctFunc(base+2))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("probe request: HTTP %d: %s", resp.StatusCode, body)
			}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for retries429(rt) == before {
			if time.Now().After(deadline) {
				t.Fatal("router never saw a 429 from the saturated replica")
			}
			time.Sleep(time.Millisecond)
		}
		return func() {
				mu.Lock()
				blocking = false
				g := gate
				mu.Unlock()
				close(g)
			}, func() {
				wg.Wait()
				<-probe
			}
	}

	release, wait := saturate(0)
	if got := retries429(rt); got == 0 {
		t.Fatalf("429 retries = %d, want > 0", got)
	}
	release()
	wait() // every request — including the 429-bounced probe — ends 200

	// Restart: kill the replica (connections sever), point the router
	// at the resurrected instance on a fresh address, and require the
	// backpressure contract to hold across the restart.
	ts0.CloseClientConnections()
	ts0.Close()
	if resp, _ := postAllocate(t, front.URL, distinctFunc(100)); resp.StatusCode != http.StatusBadGateway {
		t.Errorf("request against dead single replica: HTTP %d, want 502", resp.StatusCode)
	}
	if state, _ := rt.ReplicaState("r0"); state != "down" {
		t.Errorf("router believes dead replica is %q, want down", state)
	}

	mu.Lock()
	gate = make(chan struct{})
	blocking = true
	mu.Unlock()
	s1, ts1 := mkServer()
	t.Cleanup(func() { ts1.Close(); s1.Close() })
	if err := rt.UpdateReplica("r0", ts1.URL); err != nil {
		t.Fatal(err)
	}
	if state, _ := rt.ReplicaState("r0"); state != "healthy" {
		t.Errorf("resurrected replica is %q, want healthy", state)
	}
	release2, wait2 := saturate(200)
	release2()
	wait2()
}

// TestRouter429Propagates pins the give-up path: when retries are
// disabled the replica's refusal reaches the client as a 429 with its
// Retry-After hint intact, so backpressure composes through the
// router.
func TestRouter429Propagates(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 1)
	var once sync.Once
	s := server.New(server.Config{
		Workers: 1, QueueSize: 1, CacheEntries: 16, ReplicaID: "r0",
		JobStartHook: func() {
			once.Do(func() { started <- struct{}{} })
			<-gate
		},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	_, front := newTestRouter(t, []*testReplica{{s: s, ts: ts}}, Config{Retry429: -1})

	fire := func(i int) { // fire-and-forget saturating request
		body, _ := json.Marshal(server.AllocateRequest{Source: distinctFunc(i)})
		resp, err := http.Post(front.URL+"/v1/allocate", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	go fire(0) // occupies the worker
	<-started

	// Probe with fresh keys and a short client timeout: a probe that
	// wins the lone queue slot hangs on the gated worker (the timeout
	// abandons it), and every probe after that must bounce with 429.
	probe := &http.Client{Timeout: 200 * time.Millisecond}
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; ; i++ {
		body, _ := json.Marshal(server.AllocateRequest{Source: distinctFunc(i)})
		resp, err := probe.Post(front.URL+"/v1/allocate", "application/json", bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 lost its Retry-After through the router")
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("never saw a 429 through the router")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterBinaryAllocate pins cross-format keying: the binary wire
// form of a function routes to the same shard and digest as its text
// form — content addressing is format-independent end to end.
func TestRouterBinaryAllocate(t *testing.T) {
	reps := startReplicas(t, 3, server.Config{Workers: 2, QueueSize: 16, CacheEntries: 64})
	rt, front := newTestRouter(t, reps, Config{})

	src := distinctFunc(7)
	resp, body := postAllocate(t, front.URL, src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text allocate: HTTP %d: %s", resp.StatusCode, body)
	}
	textDigest := digestOf(t, body)
	textReplica := resp.Header.Get(server.ReplicaHeader)

	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	breq, err := http.NewRequest(http.MethodPost, front.URL+"/v1/allocate",
		bytes.NewReader(ir.EncodeBinary(f)))
	if err != nil {
		t.Fatal(err)
	}
	breq.Header.Set("Content-Type", server.BinaryContentType)
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	bbody, _ := io.ReadAll(bresp.Body)
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("binary allocate: HTTP %d: %s", bresp.StatusCode, bbody)
	}
	if got := digestOf(t, bbody); got != textDigest {
		t.Errorf("binary digest %s != text digest %s", got, textDigest)
	}
	if got := bresp.Header.Get(server.ReplicaHeader); got != textReplica {
		t.Errorf("binary served by %s, text by %s — formats shard apart", got, textReplica)
	}
	if got := bresp.Header.Get(server.CacheHeader); got != "hit" {
		t.Errorf("binary request after text: cache %q, want hit (same key)", got)
	}
	_ = rt
}

// TestRouterHealthzAndMetrics exercises the operational surface:
// aggregate health degrades as shards go down and the Prometheus
// rendering carries the per-shard counters.
func TestRouterHealthzAndMetrics(t *testing.T) {
	reps := startReplicas(t, 2, server.Config{Workers: 1, QueueSize: 8, CacheEntries: 16})
	_, front := newTestRouter(t, reps, Config{})

	for i := 0; i < 4; i++ {
		resp, body := postAllocate(t, front.URL, distinctFunc(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with all replicas up: HTTP %d", hresp.StatusCode)
	}

	// Sever both replicas; passive detection marks them down.
	for _, rep := range reps {
		rep.ts.CloseClientConnections()
		rep.ts.Close()
	}
	postAllocate(t, front.URL, distinctFunc(50))
	hresp, err = http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with all replicas down: HTTP %d, want 503", hresp.StatusCode)
	}

	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		"prefgcd_router_requests_total",
		"prefgcd_router_forwards_total",
		`prefgcd_router_cache_misses_total{replica="r0"}`,
		"prefgcd_router_retries_total",
		`prefgcd_router_replica_state{replica="r0"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics rendering missing %q", want)
		}
	}
}

// TestRouterActiveProber covers the wall-clock path the simulator
// turns off: with probing enabled a downed replica is discovered and
// a resurrected one returns to rotation without any client traffic.
func TestRouterActiveProber(t *testing.T) {
	reps := startReplicas(t, 2, server.Config{Workers: 1, QueueSize: 8, CacheEntries: 16})
	rt, _ := newTestRouter(t, reps, Config{HealthInterval: 10 * time.Millisecond})

	reps[1].ts.CloseClientConnections()
	reps[1].ts.Close()
	waitState := func(id, want string) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if got, _ := rt.ReplicaState(id); got == want {
				return
			}
			if time.Now().After(deadline) {
				got, _ := rt.ReplicaState(id)
				t.Fatalf("replica %s stuck in %q, want %q", id, got, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitState("r1", "down")

	s := server.New(server.Config{Workers: 1, QueueSize: 8, CacheEntries: 16, ReplicaID: "r1"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	if err := rt.UpdateReplica("r1", ts.URL); err != nil {
		t.Fatal(err)
	}
	waitState("r1", "healthy")

	s.StartDrain()
	waitState("r1", "draining")
}

// TestRouterBodyMemoAndKeyHeader pins the parse-free forwarding path:
// a repeat JSON body routes from the raw-body memo without re-parsing,
// the forwarded request carries the router-resolved X-Prefgcd-Key, and
// a replica trusting that header serves its cache hit without parsing
// the body itself.
func TestRouterBodyMemoAndKeyHeader(t *testing.T) {
	reps := startReplicas(t, 2, server.Config{
		Workers: 2, QueueSize: 16, CacheEntries: 64, TrustKeyHeader: true,
	})
	rt, front := newTestRouter(t, reps, Config{})

	src := distinctFunc(3)
	resp, body := postAllocate(t, front.URL, src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: HTTP %d: %s", resp.StatusCode, body)
	}
	first := digestOf(t, body)
	resp2, body2 := postAllocate(t, front.URL, src)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat request: HTTP %d: %s", resp2.StatusCode, body2)
	}
	if got := digestOf(t, body2); got != first {
		t.Errorf("repeat digest %s != first %s", got, first)
	}
	if got := resp2.Header.Get(server.CacheHeader); got != "hit" {
		t.Errorf("repeat request: cache %q, want hit", got)
	}

	rt.metrics.mu.Lock()
	hits, parses := rt.metrics.bodyHits, rt.metrics.bodyParses
	rt.metrics.mu.Unlock()
	if parses != 1 || hits != 1 {
		t.Errorf("body memo: %d parses, %d hits; want 1 and 1", parses, hits)
	}

	// The memo routes by raw bytes, so the decision must match a fresh
	// parse: same canonical key both times.
	want := keyOf(t, src)
	bodyJSON, _ := json.Marshal(server.AllocateRequest{Source: src})
	req := httptest.NewRequest(http.MethodPost, "/v1/allocate", nil)
	req.Header.Set("Content-Type", "application/json")
	routed, _, err := rt.keys.ResolveAllocate(req, bodyJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got := routed.Key; got != want {
		t.Errorf("memoized route key %v != fresh key %v", got, want)
	}

	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `prefgcd_router_body_memo_total{outcome="hit"}`) {
		t.Error("metrics missing body memo counters")
	}
}

func TestRouterConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no replicas: want error")
	}
	if _, err := New(Config{Replicas: []ReplicaConfig{{ID: "a"}}}); err == nil {
		t.Error("missing BaseURL: want error")
	}
	if _, err := New(Config{Replicas: []ReplicaConfig{
		{ID: "a", BaseURL: "http://x"}, {ID: "a", BaseURL: "http://y"},
	}}); err == nil {
		t.Error("duplicate ID: want error")
	}
	rt, err := New(Config{
		Replicas:       []ReplicaConfig{{ID: "a", BaseURL: "http://x"}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.UpdateReplica("nope", "http://y"); err == nil {
		t.Error("unknown replica update: want error")
	}
	if _, ok := rt.ReplicaState("nope"); ok {
		t.Error("unknown replica state: want ok=false")
	}
}

// TestRouterAllocateContentLength checks that a replica's miss and hit
// replies reach the client through the router with their Content-Length
// and unchunked, for a function whose reply is well past net/http's
// 2 KiB chunking threshold.
func TestRouterAllocateContentLength(t *testing.T) {
	reps := startReplicas(t, 2, server.Config{Workers: 2, QueueSize: 16, CacheEntries: 64})
	_, front := newTestRouter(t, reps, Config{})
	src := workload.Generate(workload.Benchmarks()[0], target.UsageModel(16))[0].String()
	for _, cache := range []string{"miss", "hit"} {
		resp, body := postAllocate(t, front.URL, src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", cache, resp.StatusCode, body)
		}
		if len(body) < 4096 {
			t.Fatalf("%s: reply of %d bytes is too small to be chunked", cache, len(body))
		}
		if got := resp.Header.Get(server.CacheHeader); got != cache {
			t.Errorf("cache header %q, want %q", got, cache)
		}
		if got, want := resp.Header.Get("Content-Length"), strconv.Itoa(len(body)); got != want {
			t.Errorf("%s: Content-Length %q, body %s bytes", cache, got, want)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: ContentLength %d, TransferEncoding %v, body %d bytes", cache, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestRouterCountsClientGone checks that a forward the router's own
// client abandons is answered and counted 499, as a replica counts it,
// not 502 as if the replicas had failed.
func TestRouterCountsClientGone(t *testing.T) {
	// The stand-in replica holds every request until its caller hangs
	// up; reading the body first lets net/http notice the hang-up.
	reached := make(chan struct{}, 1)
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reached <- struct{}{}
		<-r.Context().Done()
	}))
	defer stuck.Close()
	_, front := newTestRouter(t, []*testReplica{{ts: stuck}}, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(server.AllocateRequest{Source: distinctFunc(0)})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/allocate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-reached
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled request completed")
	}

	const want = `prefgcd_router_requests_total{endpoint="allocate",code="499"} 1`
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(front.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(text), want) {
			if strings.Contains(string(text), `code="502"`) {
				t.Errorf("a 502 was counted:\n%s", text)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics lack %q:\n%s", want, text)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
