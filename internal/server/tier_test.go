package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prefcolor/internal/bench"
	"prefcolor/internal/ir"
	"prefcolor/internal/linearscan"
	"prefcolor/internal/lru"
	"prefcolor/internal/regalloc"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// oracleDigest computes the digest a non-tiered daemon would serve for
// src under the default spec.
func oracleDigest(t *testing.T, src, allocator string) string {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	alloc, _ := bench.NewAllocator(allocator)
	out, stats, err := regalloc.RunChecked(f, target.UsageModel(16), alloc, regalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bench.FuncDigest(f.Name, stats, out)
}

// TestTierFastThenUpgrade is the tier-mode contract end to end: the
// first response is a fast-tier allocation served inside the request,
// an idle worker then re-runs pref-full, and polling the same
// request observes the cache entry atomically swapped to the full
// tier — with exactly the digest a non-tiered daemon would serve.
func TestTierFastThenUpgrade(t *testing.T) {
	_, ts := newTestServer(t, Config{Tier: true})

	resp, body := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first allocateResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Tier != "fast" {
		t.Fatalf("first response tier = %q, want fast", first.Tier)
	}
	if got := resp.Header.Get(TierHeader); got != "fast" {
		t.Fatalf("%s = %q, want fast", TierHeader, got)
	}
	if first.Stats.Allocator != "linearscan" {
		t.Fatalf("fast-tier allocator = %q, want linearscan", first.Stats.Allocator)
	}
	if first.Cycles <= 0 {
		t.Fatalf("fast-tier cycles = %g, want > 0", first.Cycles)
	}

	// The fast answer is itself a real allocation: it matches a local
	// fast-path run bit for bit.
	f, err := ir.Parse(smallFunc)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := linearscan.Run(f, target.UsageModel(16), linearscan.RunOptions{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := bench.FuncDigest(f.Name, stats, out); first.Digest != want {
		t.Fatalf("fast-tier digest = %s, want %s", first.Digest, want)
	}

	// Poll until the background upgrade swaps the entry.
	var full allocateResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &full); err != nil {
			t.Fatal(err)
		}
		if full.Tier == "full" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("entry never upgraded; last tier %q", full.Tier)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := resp.Header.Get(TierHeader); got != "full" {
		t.Fatalf("%s = %q, want full", TierHeader, got)
	}
	if !full.Cached {
		t.Error("upgraded response not served from cache")
	}
	if full.Stats.Allocator != "pref-full" {
		t.Errorf("upgraded allocator = %q, want pref-full", full.Stats.Allocator)
	}
	if want := oracleDigest(t, smallFunc, "pref-full"); full.Digest != want {
		t.Errorf("upgraded digest = %s, want the non-tiered oracle's %s", full.Digest, want)
	}

	// The escalation shows up on /metrics.
	mresp, mbody := get(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	for _, want := range []string{
		`prefgcd_tier_served_total{tier="fast"}`,
		`prefgcd_tier_served_total{tier="full"}`,
		"prefgcd_tier_upgrades_total 1",
	} {
		if !strings.Contains(mbody, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestTierScope pins which requests tier: only cacheable pref-full
// ones. An explicit baseline allocator and a no_cache request both
// take the ordinary path and carry no tier.
func TestTierScope(t *testing.T) {
	_, ts := newTestServer(t, Config{Tier: true})
	for _, req := range []AllocateRequest{
		{Spec: Spec{Allocator: "chaitin"}, Source: smallFunc},
		{Spec: Spec{NoCache: true}, Source: smallFunc},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/allocate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var r allocateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Tier != "" {
			t.Errorf("%+v: tier = %q, want none", req.Spec, r.Tier)
		}
		if h := resp.Header.Get(TierHeader); h != "" {
			t.Errorf("%+v: header %s = %q, want unset", req.Spec, TierHeader, h)
		}
	}
}

// TestTierDrainStopsUpgrades pins the drain interaction: a draining
// server admits no new upgrade jobs. TestCloseCancelsRunningUpgrade
// covers Close with an upgrade mid-flight.
func TestTierDrainStopsUpgrades(t *testing.T) {
	s := New(Config{Tier: true})
	defer s.Close()
	s.StartDrain()
	key := Key{1}
	s.enqueueUpgrade(key, srcInput{text: smallFunc}, Spec{}, target.UsageModel(16), 1)
	if d, _ := s.upgradeDepth(); d != 0 {
		t.Fatalf("draining server queued an upgrade (depth %d)", d)
	}
	s.upgrades.pmu.Lock()
	pending := len(s.upgrades.pending)
	s.upgrades.pmu.Unlock()
	if pending != 0 {
		t.Fatalf("draining server left %d pending upgrade keys", pending)
	}
}

// TestTierUpgradeHotFirst pins the queue's escalation order: a
// worker pops the pending job whose cache entry has served the most
// hits, so one hot key enqueued behind a cold backlog upgrades first,
// while untouched keys keep their arrival (FIFO) order.
func TestTierUpgradeHotFirst(t *testing.T) {
	u := &upgrader{pending: map[Key]struct{}{}}
	cache := lru.New[Key, *entry](8)
	for i := 0; i < 5; i++ {
		key := Key{byte(i)}
		cache.Add(key, &entry{Tier: tierFast})
		if !u.push(upgradeJob{key: key}) {
			t.Fatalf("push %d shed below capacity", i)
		}
	}
	// Key 3 arrives last in hit order but hottest: poll it a few times.
	hot := Key{3}
	for i := 0; i < 3; i++ {
		if _, ok := cache.Get(hot); !ok {
			t.Fatal("hot entry missing")
		}
	}
	if got := cache.Hits(hot); got != 3 {
		t.Fatalf("Hits(hot) = %d, want 3", got)
	}

	var order []byte
	for {
		job, ok := u.pop(cache.Hits)
		if !ok {
			break
		}
		order = append(order, job.key[0])
	}
	want := []byte{3, 0, 1, 2, 4}
	if string(order) != string(want) {
		t.Fatalf("pop order = %v, want hot key 3 first then FIFO %v", order, want)
	}
	if d := len(u.queue); d != 0 {
		t.Fatalf("queue not drained: %d left", d)
	}

	// Shedding: a full queue rejects the push.
	for i := 0; i < upgradeQueueCap; i++ {
		if !u.push(upgradeJob{key: Key{9}}) {
			t.Fatalf("push %d below capacity shed", i)
		}
	}
	if u.push(upgradeJob{key: Key{10}}) {
		t.Fatal("push above capacity accepted")
	}
}

// TestTrustKeyHeader pins the trusted-key fast path: with
// Config.TrustKeyHeader on, a request carrying the router-computed
// X-Prefgcd-Key header probes the cache without the replica parsing
// the body at all — proven by hitting the cache with a body the parser
// would reject.
func TestTrustKeyHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{TrustKeyHeader: true})

	resolver := NewKeyResolver(0)
	canon, _, err := resolver.ResolveText(smallFunc)
	if err != nil {
		t.Fatal(err)
	}
	keyHdr := EncodeKeyHeader(canon)

	post := func(body string) (*http.Response, allocateResponse) {
		t.Helper()
		buf, _ := json.Marshal(AllocateRequest{Source: body})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate", strings.NewReader(string(buf)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(KeyHeader, keyHdr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r allocateResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
				t.Fatal(err)
			}
		}
		return resp, r
	}

	resp, first := post(smallFunc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Same trusted key, unparseable body: the cache-hit path never
	// parses, so this must serve the cached entry.
	resp, second := post("func broken(")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trusted-key cache hit status %d", resp.StatusCode)
	}
	if !second.Cached || second.Digest != first.Digest {
		t.Fatalf("trusted-key request not served from cache (cached=%v digest match=%v)",
			second.Cached, second.Digest == first.Digest)
	}
	// A malformed header falls back to body resolution.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate",
		strings.NewReader(`{"source":"func broken("}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(KeyHeader, "zz")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key + broken body: status %d, want 400", resp2.StatusCode)
	}
}

// entryLoopFunc loops back into its entry block. At k=2 the fast path
// strands a spill temporary on it while pref-full succeeds.
const entryLoopFunc = `func f(v0, v1) {
b0:
  v2 = add v0, v1
  v0 = addimm v2, 3
  v1 = addimm v1, -1
  branch v1, b0, b1
b1:
  ret v2
}
`

// TestTierFallsBackToFull pins the tier's fallback: when the fast path
// fails, the request is answered by the full pipeline inline — a 200
// stamped tier "full" with the direct pref-full digest — and nothing
// is queued for upgrade.
func TestTierFallsBackToFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Tier: true})
	m := target.UsageModel(2)
	f := ir.MustParse(entryLoopFunc)
	if _, _, err := linearscan.Run(f, m, linearscan.RunOptions{}); err == nil {
		t.Fatal("fast path succeeded; the test needs an input it fails on")
	}
	alloc, _ := bench.NewAllocator("pref-full")
	out, stats, err := regalloc.RunChecked(f, m, alloc, regalloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bench.FuncDigest(f.Name, stats, out)

	resp, body := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Spec: Spec{K: 2}, Source: entryLoopFunc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r allocateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Tier != "full" || resp.Header.Get(TierHeader) != "full" {
		t.Fatalf("tier = %q, header %q, want full", r.Tier, resp.Header.Get(TierHeader))
	}
	if r.Digest != want {
		t.Fatalf("digest = %s, want the direct pref-full %s", r.Digest, want)
	}
	s.upgrades.pmu.Lock()
	pending := len(s.upgrades.pending)
	s.upgrades.pmu.Unlock()
	if d, _ := s.upgradeDepth(); d != 0 || pending != 0 {
		t.Fatalf("upgrade queued after a full-tier answer: depth %d, pending %d", d, pending)
	}
}

// TestLinearScanRejectsSpillOptions pins that an explicit linearscan
// request with a spill option the fast path does not implement is
// refused with 422 rather than served with the option ignored.
func TestLinearScanRejectsSpillOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, spec := range []Spec{
		{Allocator: "linearscan", Rematerialize: true},
		{Allocator: "linearscan", BlockLocalSpills: true},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Spec: spec, Source: smallFunc})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%+v: status %d, want 422: %s", spec, resp.StatusCode, body)
		}
	}
}

// tierKey is the cache key a default-spec pref-full request for src
// resolves to.
func tierKey(t *testing.T, src string) Key {
	t.Helper()
	canon, _, err := NewKeyResolver(0).ResolveText(src)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{}
	if _, err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	return KeyFor(canon, spec)
}

// assertUpgradedOnce waits for the upgrade lane to drain, then checks
// the tier invariants over the tiered requests for srcs: every key
// holds a full-tier entry, so none went back from full to fast, and
// the upgrades that ran, failed or were shed number exactly the keys,
// so no fast fill queued a second upgrade for a key.
func assertUpgradedOnce(t *testing.T, s *Server, srcs []string) {
	t.Helper()
	waitFor(t, "the upgrades to drain", func() bool {
		d, _ := s.upgradeDepth()
		s.upgrades.pmu.Lock()
		defer s.upgrades.pmu.Unlock()
		return d == 0 && len(s.upgrades.pending) == 0
	})
	keys := map[Key]bool{}
	for _, src := range srcs {
		key := tierKey(t, src)
		keys[key] = true
		if e, ok := s.cache.Peek(key); !ok || e.Tier != tierFull {
			t.Errorf("key of %.24q: cached %v, want a full-tier entry", src, ok)
		}
	}
	s.metrics.mu.Lock()
	ran := s.metrics.tierUpgrades + s.metrics.tierUpgradeFail + s.metrics.tierSheds
	s.metrics.mu.Unlock()
	if ran != int64(len(keys)) {
		t.Errorf("%d upgrades ran, failed or were shed for %d keys, want one each", ran, len(keys))
	}
}

// TestTierFillKeepsUpgradedEntry forces the interleaving in which a
// caller's cache probe misses, another caller's flight then fills the
// key, the upgrade swaps the entry to the full tier, and only then
// does the first caller join the key's flight. As that flight's
// leader it must serve the full entry it finds, not compute a fast one
// over it and queue a second upgrade.
func TestTierFillKeepsUpgradedEntry(t *testing.T) {
	s := New(Config{Tier: true, Workers: 1})
	var misses atomic.Int32
	held, release := make(chan struct{}), make(chan struct{})
	s.missHook = func() {
		if misses.Add(1) == 1 {
			close(held)
			<-release
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	body, err := json.Marshal(AllocateRequest{Source: smallFunc})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		code       int
		tier, body string
	}
	post := func() reply {
		resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", bytes.NewReader(body))
		if err != nil {
			return reply{body: err.Error()}
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return reply{resp.StatusCode, resp.Header.Get(TierHeader), string(b)}
	}

	first := make(chan reply, 1)
	go func() { first <- post() }() // misses, then holds before joining
	<-held
	if r := post(); r.code != http.StatusOK || r.tier != tierFast {
		t.Fatalf("second caller: status %d, tier %q, want 200 fast (%s)", r.code, r.tier, r.body)
	}
	key := tierKey(t, smallFunc)
	var full *entry
	waitFor(t, "the upgrade to swap the entry", func() bool {
		e, ok := s.cache.Peek(key)
		full = e
		return ok && e.Tier == tierFull
	})
	close(release)
	if r := <-first; r.code != http.StatusOK || r.tier != tierFull {
		t.Fatalf("first caller: status %d, tier %q, want 200 full (%s)", r.code, r.tier, r.body)
	}
	assertUpgradedOnce(t, s, []string{smallFunc})
	if e, _ := s.cache.Peek(key); e != full {
		t.Error("the upgraded entry was replaced")
	}
}

// An upgrade decodes the binary encoding its fast fill kept. That
// encoding is the same whether resolve or computeFast made it, and the
// full-tier reply computed from it is byte for byte the one computed
// from the request's text, with and without SSA optimization.
func TestUpgradeFromBinaryMatchesText(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	var srcs []string
	for _, p := range workload.Benchmarks()[:3] {
		for _, f := range workload.Generate(p, target.UsageModel(16)) {
			srcs = append(srcs, f.String())
		}
	}
	srcs = append(srcs, smallFunc)
	for _, optimize := range []bool{false, true} {
		spec := Spec{Optimize: optimize}
		machine, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			resolved := srcInput{text: src}
			if _, err := NewKeyResolver(0).resolve(&resolved); err != nil {
				t.Fatal(err)
			}
			fast := srcInput{text: src}
			if _, _, err := s.computeFast(ctx, &fast, spec, machine); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resolved.enc, fast.enc) {
				t.Fatalf("resolve and computeFast keep different encodings of %.24q", src)
			}
			fromText, _, err := s.compute(ctx, srcInput{text: src}, spec, machine, true, false)
			if err != nil {
				t.Fatal(err)
			}
			fromBinary, _, err := s.compute(ctx, srcInput{binary: fast.enc}, spec, machine, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fromText.Reply, fromBinary.Reply) {
				t.Fatalf("optimize=%v: reply from the binary encoding differs:\n got %s\nwant %s",
					optimize, fromBinary.Reply, fromText.Reply)
			}
		}
	}
}
