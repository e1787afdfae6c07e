package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prefcolor/internal/cluster"
	"prefcolor/internal/cluster/sim"
	"prefcolor/internal/server"
)

// clusterConfig is the -cluster serve mode: a consistent-hashing
// router at -addr over either N in-process replicas or an external
// replica set from -router.
type clusterConfig struct {
	addr     string
	replicas int    // in-process replica count when routerSpec is empty
	router   string // "id=url,id=url" external replica set
	srv      server.Config
}

// parseReplicaSpec reads the -router value: comma-separated id=url
// pairs naming already-running prefgcd daemons.
func parseReplicaSpec(spec string) ([]cluster.ReplicaConfig, error) {
	var out []cluster.ReplicaConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("replica %q: want id=url", part)
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		out = append(out, cluster.ReplicaConfig{ID: id, BaseURL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no replicas in %q", spec)
	}
	return out, nil
}

// serveCluster runs the router (and, without -router, its in-process
// replica fleet) until SIGINT/SIGTERM, then drains: the router stops
// probing, each replica refuses new admissions while queued work
// finishes.
func serveCluster(stdout, stderr io.Writer, cfg clusterConfig) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "prefgcd:", err)
		return 1
	}

	var (
		replicas []cluster.ReplicaConfig
		local    []*server.Server
	)
	if cfg.router != "" {
		var err error
		if replicas, err = parseReplicaSpec(cfg.router); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "prefgcd: routing over %d external replicas\n", len(replicas))
	} else {
		if cfg.replicas <= 0 {
			cfg.replicas = 3
		}
		for i := 0; i < cfg.replicas; i++ {
			scfg := cfg.srv
			scfg.ReplicaID = fmt.Sprintf("r%d", i)
			// In-process replicas sit behind our own router on loopback,
			// so the router-resolved X-Prefgcd-Key is trustworthy and the
			// replica's cache-hit path stays parse-free.
			scfg.TrustKeyHeader = true
			s := server.New(scfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return fail(err)
			}
			hs := &http.Server{Handler: s.Handler()}
			go hs.Serve(ln)
			defer hs.Close()
			local = append(local, s)
			replicas = append(replicas, cluster.ReplicaConfig{
				ID:      scfg.ReplicaID,
				BaseURL: "http://" + ln.Addr().String(),
			})
			fmt.Fprintf(stdout, "prefgcd: replica %s on %s\n", scfg.ReplicaID, ln.Addr())
		}
	}

	rt, err := cluster.New(cluster.Config{Replicas: replicas})
	if err != nil {
		return fail(err)
	}
	front := &http.Server{Addr: cfg.addr, Handler: rt.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- front.ListenAndServe() }()
	fmt.Fprintf(stdout, "prefgcd: router serving on %s (%d shards)\n", cfg.addr, len(replicas))

	select {
	case err := <-errCh:
		rt.Close()
		for _, s := range local {
			s.Close()
		}
		return fail(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "prefgcd: draining cluster")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := front.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "prefgcd: shutdown:", err)
	}
	rt.Close()
	for _, s := range local {
		s.Close()
	}
	fmt.Fprintln(stdout, "prefgcd: drained")
	return 0
}

// simCLIConfig is the -sim mode: one deterministic fault-injection
// round plus the single-replica baseline, printed as the sim.Result
// JSON.
type simCLIConfig struct {
	seed     int64
	replicas int
	requests int
	events   int
	schedule string
	corpus   string
	cache    int
}

func runSim(stdout, stderr io.Writer, cli simCLIConfig) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "prefgcd:", err)
		return 1
	}
	cfg := sim.Config{
		Seed:         cli.seed,
		Replicas:     cli.replicas,
		Requests:     cli.requests,
		Events:       cli.events,
		Corpus:       cli.corpus,
		CacheEntries: cli.cache,
		Baseline:     true,
	}
	if cli.schedule != "" {
		sched, err := sim.ParseSchedule(cli.schedule)
		if err != nil {
			return fail(err)
		}
		cfg.Schedule = sched
		if cfg.Schedule == nil {
			cfg.Schedule = sim.Schedule{} // explicit "none": fault-free
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := sim.Run(ctx, cfg)
	if err != nil {
		return fail(err)
	}
	if err := writeJSON(stdout, res); err != nil {
		return fail(err)
	}
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(stderr, "prefgcd: violation:", v)
		}
		fmt.Fprintln(stderr, "prefgcd: reproduce with:", res.Reproducer)
		return 1
	}
	return 0
}
