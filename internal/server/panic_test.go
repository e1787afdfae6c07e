package server

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"

	"prefcolor/internal/ir"
)

// A job that panics answers its own request 500 and leaves nothing in
// the cache; its worker lives on, so the next request is served and
// /healthz stays 200. Both job paths are covered: a cacheable request's
// flight and an uncached one.
func TestJobPanicContained(t *testing.T) {
	var panics atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1, JobStartHook: func() {
		if panics.CompareAndSwap(1, 0) {
			panic("injected")
		}
	}})
	for _, noCache := range []bool{false, true} {
		req := AllocateRequest{Source: smallFunc}
		req.NoCache = noCache
		panics.Store(1)
		entries := s.cache.Len()
		resp, body := postJSON(t, ts.URL+"/v1/allocate", req)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("no_cache=%v, panicking job: status %d, want 500 (%s)", noCache, resp.StatusCode, body)
		}
		if n := s.cache.Len(); n != entries {
			t.Fatalf("no_cache=%v: a panicked job moved the cache from %d to %d entries", noCache, entries, n)
		}
		resp, body = postJSON(t, ts.URL+"/v1/allocate", req)
		if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "miss" {
			t.Fatalf("no_cache=%v, next request: status %d, cache %q, want 200 miss (%s)",
				noCache, resp.StatusCode, resp.Header.Get(CacheHeader), body)
		}
		h, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		h.Body.Close()
		if h.StatusCode != http.StatusOK {
			t.Fatalf("no_cache=%v: /healthz %d after a panic, want 200", noCache, h.StatusCode)
		}
	}
}

// An upgrade that panics counts as a failed upgrade and releases its
// pending key, and the panic does not reach the caller.
func TestUpgradePanicContained(t *testing.T) {
	s := New(Config{Tier: true})
	defer s.Close()
	// SSA construction indexes the entry block, which a function with
	// no blocks lacks; no request can carry one, so only a bug could.
	in, spec := srcInput{f: &ir.Func{Name: "blockless"}}, Spec{Optimize: true}
	machine, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("prepare did not panic on the injected input")
			}
		}()
		prepare(in, spec)
	}()

	key := Key{7}
	s.upgrades.pending[key] = struct{}{}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("runUpgrade let a panic out: %v", p)
		}
	}()
	s.runUpgrade(context.Background(), upgradeJob{key: key, in: in, spec: spec, machine: machine})
	s.metrics.mu.Lock()
	failed := s.metrics.tierUpgradeFail
	s.metrics.mu.Unlock()
	if failed != 1 {
		t.Errorf("failed upgrades %d, want 1", failed)
	}
	s.upgrades.pmu.Lock()
	_, pending := s.upgrades.pending[key]
	s.upgrades.pmu.Unlock()
	if pending {
		t.Error("a panicked upgrade left its key pending")
	}
	if _, ok := s.cache.Get(key); ok {
		t.Error("a panicked upgrade cached an entry")
	}
}
