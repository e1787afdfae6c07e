package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
)

const smallFunc = `func small(v0, v1) {
b0:
  v2 = add v0, v1
  v3 = mul v2, v0
  branch v3, b1, b2
b1:
  v4 = sub v3, v1
  jump b2
b2:
  ret v3
}
`

// batchResponse is the /v1/batch reply.
type batchResponse struct {
	Results []allocateResponse `json:"results"`
}

// distinctFunc returns a unique small function per i, for tests that
// must bypass the cache and single-flight dedup.
func distinctFunc(i int) string {
	return fmt.Sprintf(`func distinct%d(v0) {
b0:
  v1 = add v0, v0
  v2 = addimm v1, %d
  ret v2
}
`, i, i)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
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

func TestAllocateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r allocateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("first request reported cached")
	}
	if r.Stats.Allocator != "pref-full" {
		t.Errorf("allocator = %q, want pref-full", r.Stats.Allocator)
	}

	// The served function must match a local run bit for bit.
	f, err := ir.Parse(smallFunc)
	if err != nil {
		t.Fatal(err)
	}
	alloc, _ := bench.NewAllocator("pref-full")
	out, stats, err := regalloc.RunChecked(f, target.UsageModel(16), alloc, regalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Function != out.String() {
		t.Errorf("served function differs from local run:\n%s\nvs\n%s", r.Function, out)
	}
	if want := bench.FuncDigest(f.Name, stats, out); r.Digest != want {
		t.Errorf("digest = %s, want %s", r.Digest, want)
	}
}

// TestCachedResponseDeterminism is the cached-vs-fresh fingerprint
// assertion: the second identical request is served from the cache and
// must carry the same bench.AllocationDigest fingerprint as a freshly
// computed allocation.
func TestCachedResponseDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := AllocateRequest{Source: smallFunc, Spec: Spec{Allocator: "pref-full"}}

	_, body1 := postJSON(t, ts.URL+"/v1/allocate", req)
	_, body2 := postJSON(t, ts.URL+"/v1/allocate", req)
	var r1, r2 allocateResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second identical request was not served from the cache")
	}
	if r1.Cached {
		t.Fatal("first request claimed to be cached")
	}
	if r1.Digest != r2.Digest || r1.Function != r2.Function {
		t.Errorf("cached response diverged from computed response")
	}

	// Fresh ground truth via the bench digest over the same input.
	f, err := ir.Parse(smallFunc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := bench.AllocationDigestOpts([]*ir.Func{f}, target.UsageModel(16), "pref-full", regalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := sha256Single(t, r2)
	if single != fresh {
		t.Errorf("cached digest chain %s != fresh AllocationDigest %s", single, fresh)
	}
}

// sha256Single recomputes the whole-corpus AllocationDigest from one
// served response, proving the server's per-function record composes
// into the bench digest.
func sha256Single(t *testing.T, r allocateResponse) string {
	t.Helper()
	f, err := ir.Parse(r.Function)
	if err != nil {
		t.Fatalf("served function does not re-parse: %v", err)
	}
	st := &regalloc.Stats{
		SpilledWebs: r.Stats.SpilledWebs,
		SpillLoads:  r.Stats.SpillLoads,
		SpillStores: r.Stats.SpillStores,
	}
	// FuncDigest(name, …) over a single record is AllocationDigest of
	// the singleton corpus.
	return bench.FuncDigest(f.Name, st, f)
}

func TestAllocateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  AllocateRequest
	}{
		{"empty source", AllocateRequest{}},
		{"parse error", AllocateRequest{Source: "func broken(... xxx"}},
		{"bad allocator", AllocateRequest{Source: smallFunc, Spec: Spec{Allocator: "nope"}}},
		{"bad machine", AllocateRequest{Source: smallFunc, Spec: Spec{Machine: "vax"}}},
		{"bad k", AllocateRequest{Source: smallFunc, Spec: Spec{K: 1}}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/allocate", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}
}

// TestQueueSaturation429 fills the one-worker, one-slot queue with
// gated jobs and asserts the next interactive request is refused with
// 429 and a Retry-After hint, then drains and verifies the gated work
// still completed.
func TestQueueSaturation429(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1, QueueSize: 1, JobStartHook: func() { <-gate }})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: distinctFunc(i)})
			codes[i] = resp.StatusCode
		}(i)
	}

	// Wait until one job occupies the worker and one the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Depth() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: distinctFunc(99)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue returned %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After hint")
	}

	close(gate)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("gated request %d finished with %d, want 200", i, c)
		}
	}
}

// TestDeadlineDropsQueuedJob gates the worker long enough for the
// request's 1ms budget to lapse while queued; the worker must drop the
// job without allocating and the client must see 504.
func TestDeadlineDropsQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: 4, JobStartHook: func() { time.Sleep(50 * time.Millisecond) }})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, body := postJSON(t, ts.URL+"/v1/allocate",
		AllocateRequest{Source: smallFunc, TimeoutMS: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("error body %q does not mention the deadline", body)
	}
}

// TestSingleFlightHTTP sends concurrent identical requests through the
// full HTTP path and asserts the allocator ran exactly once. Run under
// -race this pins the publication of the shared result.
func TestSingleFlightHTTP(t *testing.T) {
	var jobs atomic.Int64
	gate := make(chan struct{})
	s := New(Config{Workers: 2, QueueSize: 16, JobStartHook: func() {
		jobs.Add(1)
		<-gate
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	const callers = 8
	var wg sync.WaitGroup
	digests := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("caller %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var r allocateResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Error(err)
				return
			}
			digests[i] = r.Digest
		}(i)
	}

	// Wait for every caller to either join the flight or (the leader)
	// start the job, then open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for jobs.Load() < 1 || s.flights.Shared() < callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("flights never converged: jobs=%d shared=%d", jobs.Load(), s.flights.Shared())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := jobs.Load(); got != 1 {
		t.Errorf("allocator ran %d times for %d identical requests, want 1", got, callers)
	}
	for i := 1; i < callers; i++ {
		if digests[i] != digests[0] {
			t.Errorf("caller %d digest %s != caller 0 digest %s", i, digests[i], digests[0])
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8})
	req := BatchRequest{Functions: []string{
		distinctFunc(1), "func broken(", distinctFunc(2), distinctFunc(1),
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r batchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(r.Results))
	}
	if r.Results[0].Error != "" || r.Results[2].Error != "" {
		t.Errorf("valid items errored: %+v / %+v", r.Results[0], r.Results[2])
	}
	if r.Results[1].Code != http.StatusBadRequest {
		t.Errorf("broken item code = %d, want 400", r.Results[1].Code)
	}
	// Items 0 and 3 are identical: same digest whichever of cache or
	// single-flight served the duplicate.
	if r.Results[0].Digest != r.Results[3].Digest {
		t.Errorf("duplicate items disagree: %s vs %s", r.Results[0].Digest, r.Results[3].Digest)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
	postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`prefgcd_requests_total{endpoint="allocate",code="200"} 2`,
		"prefgcd_cache_hits_total 1",
		"prefgcd_cache_misses_total 1",
		"prefgcd_jobs_executed_total 1",
		"prefgcd_queue_capacity 64",
		`prefgcd_alloc_phase_wall_seconds{phase="select"}`,
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	_ = s
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server returned %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz returned %d, want 503", hresp.StatusCode)
	}
}

func TestPprofExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", resp.StatusCode)
	}
}
