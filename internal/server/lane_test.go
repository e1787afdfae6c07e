package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prefcolor/internal/ir"
	"prefcolor/internal/target"
	"prefcolor/internal/workload"
)

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRequestStartsBeforeUpgrades pins the lane priority on one
// worker: a waiting request job always starts before a queued upgrade,
// including one submitted while an upgrade runs, and the upgrades run
// once no request waits. The hook records the upgrade queue's depth as
// each job starts: an upgrade leaves the queue before it starts, a
// request does not.
func TestRequestStartsBeforeUpgrades(t *testing.T) {
	starts := make(chan int, 64)
	release := make(chan struct{}, 64)
	var s *Server
	var ts *httptest.Server
	s, ts = newTestServer(t, Config{Tier: true, Workers: 1, JobStartHook: func() {
		d, _ := s.upgradeDepth()
		starts <- d
		<-release
	}})
	t.Cleanup(func() { close(release) }) // runs before the server closes

	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: distinctFunc(i)})
			if resp.StatusCode != http.StatusOK || resp.Header.Get(TierHeader) != tierFast {
				t.Errorf("request %d: status %d, tier %q, want 200 fast (%s)",
					i, resp.StatusCode, resp.Header.Get(TierHeader), body)
			}
		}()
	}
	next := func() int {
		t.Helper()
		select {
		case d := <-starts:
			return d
		case <-time.After(10 * time.Second):
			t.Fatal("no job started")
			return 0
		}
	}

	// Request 0 holds the worker while requests 1 and 2 queue.
	post(0)
	got := []int{next()}
	post(1)
	post(2)
	waitFor(t, "two queued requests", func() bool { return s.queue.Depth() == 3 })
	for i := 0; i < 3; i++ {
		release <- struct{}{}
		got = append(got, next())
	}
	// The first upgrade runs; request 3 arrives behind two more.
	post(3)
	waitFor(t, "request 3 queued", func() bool { return s.queue.Depth() == 1 })
	for i := 0; i < 4; i++ {
		release <- struct{}{}
		got = append(got, next())
	}
	release <- struct{}{}
	wg.Wait()

	// Requests 0-2 start with 0, 1 and 2 upgrades queued; the first
	// upgrade leaves 2; request 3 starts with those 2 still queued and
	// adds its own; the last three upgrades leave 2, 1 and 0.
	want := []int{0, 1, 2, 2, 2, 2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("upgrade queue depth at each job start %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("upgrade queue depth at each job start %v, want %v", got, want)
		}
	}
	waitFor(t, "four upgrades", func() bool {
		s.metrics.mu.Lock()
		defer s.metrics.mu.Unlock()
		return s.metrics.tierUpgrades == 4
	})
}

// TestCloseCancelsRunningUpgrade: Close cancels an upgrade held on a
// worker instead of waiting for it, does not count the cancellation as
// a failure, and leaves the fast entry in place.
func TestCloseCancelsRunningUpgrade(t *testing.T) {
	var jobs atomic.Int64
	held, release := make(chan struct{}), make(chan struct{})
	s := New(Config{Tier: true, Workers: 1, JobStartHook: func() {
		if jobs.Add(1) == 2 { // the upgrade the first request queued
			close(held)
			<-release
		}
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/allocate", AllocateRequest{Source: smallFunc})
	if resp.StatusCode != http.StatusOK || resp.Header.Get(TierHeader) != tierFast {
		t.Fatalf("status %d, tier %q, want 200 fast (%s)", resp.StatusCode, resp.Header.Get(TierHeader), body)
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the upgrade never started")
	}
	var key Key
	s.upgrades.pmu.Lock()
	for k := range s.upgrades.pending {
		key = k
	}
	s.upgrades.pmu.Unlock()

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	<-s.queue.lowCtx.Done()
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with an upgrade in flight")
	}

	s.metrics.mu.Lock()
	failed, upgrades := s.metrics.tierUpgradeFail, s.metrics.tierUpgrades
	s.metrics.mu.Unlock()
	if failed != 0 || upgrades != 0 {
		t.Errorf("failed upgrades %d, upgrades %d; want 0, 0", failed, upgrades)
	}
	if e, ok := s.cache.Get(key); !ok || e.Tier != tierFast {
		t.Errorf("entry after Close: present %v, want the fast entry", ok)
	}
}

// TestTierWorkspacesPerWorker: every pref-full run, upgrades included,
// happens on a worker, so under tier load mixed with untiered pref-full
// requests no more workspaces are ever built than there are workers.
func TestTierWorkspacesPerWorker(t *testing.T) {
	const workers = 2
	s, ts := newTestServer(t, Config{Tier: true, Workers: workers})
	var funcs []*ir.Func
	for _, b := range workload.Benchmarks()[:4] {
		funcs = append(funcs, workload.Generate(b, target.UsageModel(16))...)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, f := range funcs {
				req := AllocateRequest{Source: f.String()}
				req.NoCache = (i+c)%3 == 0
				if resp, body := postJSON(t, ts.URL+"/v1/allocate", req); resp.StatusCode != http.StatusOK {
					t.Errorf("client %d, func %d: status %d (%s)", c, i, resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "the upgrades to drain", func() bool {
		d, _ := s.upgradeDepth()
		s.upgrades.pmu.Lock()
		defer s.upgrades.pmu.Unlock()
		return d == 0 && len(s.upgrades.pending) == 0
	})

	s.metrics.mu.Lock()
	upgrades := s.metrics.tierUpgrades
	s.metrics.mu.Unlock()
	if upgrades == 0 {
		t.Fatal("no upgrade ran")
	}
	if _, news := s.workspaces.counters(); news > workers {
		t.Errorf("%d workspaces built for %d workers", news, workers)
	}
}

// TestLowLaneRunsOneAtATime: with a low-priority job running on one
// worker, the other, idle worker serves requests but does not start the
// next low-priority job.
func TestLowLaneRunsOneAtATime(t *testing.T) {
	var running atomic.Int32
	var overlapped atomic.Bool
	started, release := make(chan struct{}, 2), make(chan struct{})
	q := newQueue(1, 2, 2, func(context.Context) {
		if running.Add(1) > 1 {
			overlapped.Store(true)
		}
		started <- struct{}{}
		<-release
		running.Add(-1)
	})
	defer q.Close()
	q.AddLow()
	q.AddLow()
	<-started
	served := make(chan struct{})
	if !q.TrySubmit(func() { close(served) }) {
		t.Fatal("request refused")
	}
	<-served
	// Time for the idle worker to take the second token, were it free to.
	time.Sleep(20 * time.Millisecond)
	release <- struct{}{}
	<-started
	release <- struct{}{}
	if overlapped.Load() {
		t.Fatal("two low-priority jobs ran at once")
	}
}
