package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/server"
	"prefcolor/internal/target"
)

// TestLoadgenSmoke is the end-to-end service check: a live server
// under sustained concurrent traffic from the compress corpus, with a
// deliberately tiny queue so admission control engages. It asserts
//
//   - zero hard errors and zero cross-request digest mismatches,
//   - at least one cache hit (identical requests recur),
//   - 429s observed (the queue bound was exceeded and load was shed),
//   - every retained response re-validated: regalloc.RunChecked on the
//     same input reproduces the served code and digest bit for bit, so
//     the daemon returned zero invalid allocations. The daemon runs
//     every job on a sync.Pool-recycled workspace while the reference
//     here uses fresh state, so this doubles as the borrow/return
//     invariance check under concurrent load,
//   - the workspace pool reports borrows on /metrics (pooling actually
//     engaged during the run).
func TestLoadgenSmoke(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// compress functions are cheap (cache hits recur fast); the large
	// profile's are expensive enough to keep the single worker busy, so
	// the 1-slot queue saturates and 429s are guaranteed, not lucky.
	m := target.UsageModel(16)
	corpus, err := CorpusFromProfiles("compress,large", m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Options{
		BaseURL:       ts.URL,
		Corpus:        corpus,
		Concurrency:   8,
		Duration:      1200 * time.Millisecond,
		Allocator:     "pref-full",
		Seed:          42,
		KeepResponses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("requests=%d ok=%d hits=%d rejected=%d timeouts=%d errors=%d rps=%.0f p50=%.2fms p99=%.2fms",
		rep.Requests, rep.OK, rep.CacheHits, rep.Rejected429, rep.Timeouts,
		rep.Errors, rep.ThroughputRPS, rep.LatencyP50MS, rep.LatencyP99MS)

	if rep.Errors != 0 {
		t.Errorf("hard errors: %d", rep.Errors)
	}
	if rep.DigestMismatches != 0 {
		t.Errorf("digest mismatches across requests: %d", rep.DigestMismatches)
	}
	if rep.OK == 0 {
		t.Fatal("no successful requests")
	}
	if rep.CacheHits < 1 {
		t.Error("no cache hits despite recurring requests")
	}
	if rep.Rejected429 < 1 {
		t.Error("queue bound never produced a 429 under 8-way load on a 1-slot queue")
	}
	if len(rep.Responses) == 0 {
		t.Fatal("no responses retained for validation")
	}

	// Re-validate every served allocation against the full oracle.
	for _, r := range rep.Responses {
		f, err := ir.Parse(corpus[r.Item].Source)
		if err != nil {
			t.Fatalf("%s: corpus source does not parse: %v", r.Name, err)
		}
		alloc, err := bench.NewAllocator("pref-full")
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := regalloc.RunChecked(f, m, alloc, regalloc.Options{})
		if err != nil {
			t.Errorf("%s: oracle rejects reference allocation: %v", r.Name, err)
			continue
		}
		if out.String() != r.Function {
			t.Errorf("%s: served code differs from RunChecked reference", r.Name)
		}
		if want := bench.FuncDigest(f.Name, stats, out); r.Digest != want {
			t.Errorf("%s: served digest %s != reference %s", r.Name, r.Digest, want)
		}
	}

	// The workspace pool must have been exercised: every executed job
	// borrows, and with one worker the second borrow onward is a hit.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	if !strings.Contains(metrics, "prefgcd_workspace_pool_gets_total") {
		t.Error("/metrics is missing the workspace pool counters")
	}
	if strings.Contains(metrics, "prefgcd_workspace_pool_gets_total 0\n") {
		t.Error("workspace pool reports zero borrows after a loaded run")
	}
}

func TestCorpusFromProfiles(t *testing.T) {
	m := target.UsageModel(16)
	corpus, err := CorpusFromProfiles("compress,jess", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 20 { // compress has 8 functions, jess 12
		t.Errorf("corpus size %d, want 20", len(corpus))
	}
	for _, item := range corpus {
		if _, err := ir.Parse(item.Source); err != nil {
			t.Errorf("%s does not re-parse: %v", item.Name, err)
		}
	}
	if _, err := CorpusFromProfiles("nosuch", m); err == nil {
		t.Error("unknown profile accepted")
	}
	large, err := CorpusFromProfiles("large", m)
	if err != nil {
		t.Fatal(err)
	}
	if len(large) != 40 {
		t.Errorf("large corpus size %d, want 40", len(large))
	}
}

func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run(context.Background(), Options{BaseURL: "http://x"}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := Run(context.Background(), Options{Corpus: []Item{{Name: "a", Source: "b"}}}); err == nil {
		t.Error("missing base URL accepted")
	}
}

// TestRunMaxRequests pins the request budget: the run must stop at the
// budget even with time left on the clock.
func TestRunMaxRequests(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueSize: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	m := target.UsageModel(16)
	corpus, err := CorpusFromProfiles("compress", m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Corpus:      corpus[:2],
		Concurrency: 2,
		Duration:    30 * time.Second,
		MaxRequests: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 6 {
		t.Errorf("requests = %d, want exactly 6", rep.Requests)
	}
	if rep.DurationSec > 20 {
		t.Errorf("run took %.1fs; budget did not stop it", rep.DurationSec)
	}
}

// TestRunColdBinary exercises the cold-path measurement mode over the
// binary wire format: every request must bypass the cache (zero hits,
// all samples in the cold bucket) while digests still agree with the
// textual path.
func TestRunColdBinary(t *testing.T) {
	srv := server.New(server.Config{Workers: 2, QueueSize: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	m := target.UsageModel(16)
	corpus, err := CorpusFromProfiles("compress", m)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range corpus {
		if len(item.Binary) == 0 {
			t.Fatalf("%s: corpus item has no binary encoding", item.Name)
		}
	}

	// Warm the cache via the textual path first, so any cache leak into
	// the cold run would show up as a hit.
	warm, err := Run(context.Background(), Options{
		BaseURL: ts.URL, Corpus: corpus[:2], Concurrency: 2,
		Duration: 30 * time.Second, MaxRequests: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Errors != 0 || warm.OK == 0 {
		t.Fatalf("warm-up failed: %+v", warm)
	}

	rep, err := Run(context.Background(), Options{
		BaseURL: ts.URL, Corpus: corpus[:2], Concurrency: 2,
		Duration: 30 * time.Second, MaxRequests: 8,
		Cold: true, Binary: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("hard errors: %d", rep.Errors)
	}
	if rep.OK == 0 {
		t.Fatal("no successful binary requests")
	}
	if rep.CacheHits != 0 {
		t.Errorf("cold run saw %d cache hits, want 0", rep.CacheHits)
	}
	if rep.Hot.Requests != 0 {
		t.Errorf("hot bucket holds %d samples in a cold run", rep.Hot.Requests)
	}
	if rep.Cold.Requests != rep.OK {
		t.Errorf("cold bucket %d != ok %d", rep.Cold.Requests, rep.OK)
	}
	if rep.Cold.LatencyP50MS <= 0 {
		t.Error("cold bucket has no p50")
	}
	if rep.DigestMismatches != 0 {
		t.Errorf("digest mismatches: %d", rep.DigestMismatches)
	}
}

// stallingServer answers every request 200 with the start of a JSON
// body, then holds the rest back until the client goes away. Every
// exchange is still mid-body when a run's deadline passes.
func stallingServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"digest":`)
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRunBodyCutByDeadline: a 200 whose body the run deadline cuts off
// is the run ending, like a request the deadline cancels before its
// response arrives — not a hard error.
func TestRunBodyCutByDeadline(t *testing.T) {
	ts := stallingServer(t)
	rep, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Corpus:      []Item{{Name: "f", Source: "func f() {\nb0:\n  ret\n}\n"}},
		Concurrency: 2,
		Duration:    150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no request was sent")
	}
	if rep.Errors != 0 || rep.OK != 0 {
		t.Errorf("errors = %d, ok = %d; want 0 and 0 for bodies cut off by the deadline", rep.Errors, rep.OK)
	}
}

// TestRunCountsTruncatedBody: a body that breaks off while the run is
// still going is a hard error.
func TestRunCountsTruncatedBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"digest":`)
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Corpus:      []Item{{Name: "f", Source: "func f() {\nb0:\n  ret\n}\n"}},
		Concurrency: 1,
		Duration:    30 * time.Second,
		MaxRequests: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 3 {
		t.Errorf("errors = %d, want 3 (one per truncated body)", rep.Errors)
	}
}
