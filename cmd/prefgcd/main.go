// Command prefgcd is the allocation daemon: it serves the
// preference-directed allocator (and every baseline configuration)
// over HTTP/JSON with a bounded admission queue, a single-flight LRU
// result cache, per-request deadlines, Prometheus metrics, and pprof.
//
// Serve mode (the default):
//
//	prefgcd [-addr localhost:8377] [-workers 4] [-queue 64] [-cache 1024]
//	        [-default-timeout 30s] [-max-timeout 2m]
//
// The daemon drains gracefully on SIGINT/SIGTERM: admission stops,
// queued allocations finish, then the process exits.
//
// Load mode (-load) drives sustained concurrent traffic against a
// running daemon from the synthetic workload corpora and prints the
// throughput/latency/cache report (loadgen.Report) as JSON on stdout:
//
//	prefgcd -load -addr http://localhost:8377 -duration 5s -concurrency 8 \
//	        -corpus compress,large > load.json
//
// Load mode exits non-zero if any request failed hard, any two
// responses for the same function disagreed, or none succeeded; with
// -tier also if no full-tier response arrived or one diverged from the
// local pref-full oracle. It doubles as a CI smoke check.
//
// Cluster mode (-cluster) serves a consistent-hashing router at -addr
// over -replicas in-process shards, so each shard's LRU stays disjoint
// and hot; -router instead points the router at already-running
// daemons:
//
//	prefgcd -cluster -replicas 3 -addr localhost:8400
//	prefgcd -router r0=localhost:8401,r1=localhost:8402 -addr localhost:8400
//
// Sim mode (-sim) runs one deterministic fault-injection round —
// scripted kill/drain/resurrect against a seeded cluster plus a
// single-replica baseline — and prints the result (sim.Result) as JSON
// on stdout; it exits non-zero on any invariant violation and prints
// the reproducer line:
//
//	prefgcd -sim -seed 1 -replicas 3 -requests 600 -corpus all > sim.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prefcolor/internal/server"
	"prefcolor/internal/server/loadgen"
	"prefcolor/internal/target"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected so tests can drive the binary
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefgcd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	// Serve-mode flags.
	addr := fs.String("addr", "localhost:8377", "serve: listen address; load: daemon base URL")
	workers := fs.Int("workers", 0, "allocation worker pool size (0 = 4)")
	queueSize := fs.Int("queue", 0, "admission queue bound (0 = 64)")
	cacheEntries := fs.Int("cache", 0, "result cache entries (0 = 1024, negative disables)")
	defaultTimeout := fs.Duration("default-timeout", 0, "per-request deadline when none given (0 = 30s)")
	maxTimeout := fs.Duration("max-timeout", 0, "cap on requested deadlines (0 = 2m)")
	tier := fs.Bool("tier", false, "serve: answer pref-full requests with the linear-scan fast tier and upgrade in the background; load: drive and verify a tier-mode daemon")
	upgradeQueue := fs.Int("upgrade-queue", 0, "serve: tier upgrade queue bound (0 = 256)")

	// Cluster-mode flags.
	clusterMode := fs.Bool("cluster", false, "serve a consistent-hashing router over in-process replicas")
	replicas := fs.Int("replicas", 3, "cluster/sim: shard count")
	router := fs.String("router", "", "serve a router over external replicas: comma list of id=url")

	// Sim-mode flags.
	simMode := fs.Bool("sim", false, "run one deterministic cluster fault-injection round and exit")
	schedule := fs.String("schedule", "", "sim: explicit fault schedule (e.g. kill@120:1,resurrect@200:1; default derives from -seed)")
	events := fs.Int("events", 0, "sim: fault events in the derived schedule (0 = 4)")

	// Load-mode flags.
	load := fs.Bool("load", false, "drive load against a running daemon instead of serving")
	duration := fs.Duration("duration", 5*time.Second, "load: run duration")
	concurrency := fs.Int("concurrency", 8, "load: client goroutines")
	corpus := fs.String("corpus", "compress,large", "load: workload profiles (comma list, \"all\", or \"large\")")
	allocator := fs.String("alloc", "pref-full", "load: allocator name sent with every request")
	k := fs.Int("k", 16, "load: machine register count")
	machine := fs.String("machine", "ia64", "load: machine model (ia64, x86, s390)")
	requests := fs.Int("requests", 0, "load: stop after this many requests (0 = duration only)")
	seed := fs.Int64("seed", 1, "load: corpus-picking RNG seed")
	cold := fs.Bool("cold", false, "load: send no_cache on every request (honest cold-path latency)")
	binary := fs.Bool("binary", false, "load: post the binary IR wire format instead of JSON/text")

	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *simMode {
		return runSim(stdout, stderr, simCLIConfig{
			seed: *seed, replicas: *replicas, requests: *requests,
			events: *events, schedule: *schedule, corpus: *corpus,
			cache: *cacheEntries,
		})
	}
	if *clusterMode || *router != "" {
		return serveCluster(stdout, stderr, clusterConfig{
			addr: *addr, replicas: *replicas, router: *router,
			srv: server.Config{
				Workers:        *workers,
				QueueSize:      *queueSize,
				CacheEntries:   *cacheEntries,
				DefaultTimeout: *defaultTimeout,
				MaxTimeout:     *maxTimeout,
			},
		})
	}
	if *load {
		return runLoad(stdout, stderr, loadConfig{
			addr: *addr, duration: *duration, concurrency: *concurrency,
			corpus: *corpus, allocator: *allocator, k: *k, machine: *machine,
			requests: *requests, seed: *seed, cold: *cold, binary: *binary,
			tier: *tier,
		})
	}
	return serve(stdout, stderr, *addr, server.Config{
		Workers:          *workers,
		QueueSize:        *queueSize,
		CacheEntries:     *cacheEntries,
		DefaultTimeout:   *defaultTimeout,
		MaxTimeout:       *maxTimeout,
		Tier:             *tier,
		UpgradeQueueSize: *upgradeQueue,
	})
}

func serve(stdout, stderr io.Writer, addr string, cfg server.Config) int {
	s := server.New(cfg)
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "prefgcd: serving on %s\n", addr)

	select {
	case err := <-errCh:
		// Listen failed before any signal.
		s.Close()
		fmt.Fprintln(stderr, "prefgcd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let in-flight
	// handlers finish, then drain the queued allocations.
	fmt.Fprintln(stdout, "prefgcd: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "prefgcd: shutdown:", err)
	}
	s.Close()
	fmt.Fprintln(stdout, "prefgcd: drained")
	return 0
}

type loadConfig struct {
	addr        string
	duration    time.Duration
	concurrency int
	corpus      string
	allocator   string
	k           int
	machine     string
	requests    int
	seed        int64
	cold        bool
	binary      bool
	tier        bool
}

func runLoad(stdout, stderr io.Writer, cfg loadConfig) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "prefgcd:", err)
		return 1
	}
	var m *target.Machine
	switch cfg.machine {
	case "ia64":
		m = target.UsageModel(cfg.k)
	case "x86":
		m = target.X86Like(cfg.k)
	case "s390":
		m = target.S390Like(cfg.k)
	default:
		return fail(fmt.Errorf("unknown machine %q (want ia64, x86, or s390)", cfg.machine))
	}
	items, err := loadgen.CorpusFromProfiles(cfg.corpus, m)
	if err != nil {
		return fail(err)
	}
	base := cfg.addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, loadgen.Options{
		BaseURL:     base,
		Corpus:      items,
		Concurrency: cfg.concurrency,
		Duration:    cfg.duration,
		MaxRequests: cfg.requests,
		Allocator:   cfg.allocator,
		Machine:     cfg.machine,
		K:           cfg.k,
		Seed:        cfg.seed,
		Cold:        cfg.cold,
		Binary:      cfg.binary,
		Tier:        cfg.tier,
	})
	if err != nil {
		return fail(err)
	}
	if err := writeJSON(stdout, rep); err != nil {
		return fail(err)
	}
	if rep.Errors > 0 {
		return fail(fmt.Errorf("%d hard errors during load", rep.Errors))
	}
	if rep.DigestMismatches > 0 {
		return fail(fmt.Errorf("%d digest mismatches: the daemon served diverging allocations", rep.DigestMismatches))
	}
	if rep.OK == 0 {
		return fail(errors.New("no successful requests"))
	}
	if cfg.tier {
		// A warm daemon may serve everything full-tier (all upgrades
		// already landed); only a daemon that never upgrades — or one
		// whose upgrades diverge from the oracle — fails.
		if rep.Tier == nil || rep.Tier.FullServed == 0 {
			return fail(errors.New("tier mode: no full-tier responses; upgrades never landed"))
		}
		if rep.Tier.OracleMismatches > 0 {
			return fail(fmt.Errorf("tier mode: %d full-tier digests diverged from the pref-full oracle", rep.Tier.OracleMismatches))
		}
	}
	return 0
}

// writeJSON prints v as indented JSON followed by a newline.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
