// Command crowserve runs the CROW reproduction as a long-lived HTTP
// service: simulations and whole experiments are submitted as jobs, queued
// with priorities and admission control, executed on the shared memoizing
// engine (identical submissions are cache hits), observable as an SSE event
// stream, and cancellable — see DESIGN.md §8.
//
// Quickstart:
//
//	crowserve -addr :8080 -j 4 &
//	curl -s localhost:8080/v1/jobs -d '{"experiment": "fig8"}'
//	curl -s localhost:8080/v1/jobs -d '{"options": {"Mechanism": "crow-cache", "Workloads": ["mcf"]}}'
//	curl -N localhost:8080/v1/jobs/j000001/events
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, inflight jobs
// finish (bounded by -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crowdram/crow"
	"crowdram/internal/engine"
	"crowdram/internal/exp"
	"crowdram/internal/obs"
	"crowdram/internal/service"
)

// Connection timeouts. A client that trickles its request headers, or an
// idle keep-alive connection, cannot hold a server goroutine forever. There
// is deliberately no write timeout: /events follow streams stay open for
// the life of a job.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crowserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 2, "jobs serviced concurrently")
		jobs         = flag.Int("j", 0, "max simulations in flight across all jobs (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue", 64, "admitted-but-not-started job bound; beyond it submissions get 503")
		insts        = flag.Int64("insts", 300_000, "measured instructions per core")
		mixes        = flag.Int("mixes", 3, "four-core mixes per workload group")
		seed         = flag.Int64("seed", 1, "random seed")
		runTimeout   = flag.Duration("run-timeout", 0, "per-simulation wall-clock limit (0 = none)")
		jobTimeout   = flag.Duration("job-timeout", 0, "default per-job deadline (0 = none; overridable per job)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown bound for inflight jobs")
		verify       = flag.Bool("verify", false, "run the correctness oracle alongside every simulation")
		telemetry    = flag.Int64("telemetry-interval", 0, "stream per-bank interval telemetry every N DRAM cycles on job SSE streams (0 = off)")
		enablePprof  = flag.Bool("pprof", false, "expose Go profiling endpoints under /debug/pprof/")
		storeDir     = flag.String("store", "", "persist results to this directory; identical submissions survive restarts (empty = memory only)")
		storeMaxMB   = flag.Int64("store-max-mb", 0, "on-disk cap for -store in MiB; least-recently-used results are evicted (0 = unbounded)")
		retainJobs   = flag.Int("retain-jobs", 0, "finished jobs kept visible in the job table (0 = default 512, negative = unlimited)")
		retainFor    = flag.Duration("retain-for", 0, "age after which finished jobs leave the job table (0 = no TTL)")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "log line format: text, json")
		slowJob      = flag.Duration("slow-job", 0, "warn about jobs whose admission-to-done wall time exceeds this (0 = off)")
		spanCap      = flag.Int("span-cap", 0, "per-job span ring capacity (0 = default 4096, negative = disable span tracing)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	var backing engine.Backing[crow.Report]
	if *storeDir != "" {
		st, err := exp.OpenStore(*storeDir, *storeMaxMB<<20)
		if err != nil {
			return fmt.Errorf("open result store: %w", err)
		}
		stats := st.Stats()
		logger.Info("result store opened",
			"dir", *storeDir, "results", stats.Files,
			"disk_mib", float64(stats.Bytes)/(1<<20))
		backing = st
	}

	svc := service.New(service.Config{
		Scale:             exp.Scale{Insts: *insts, Warmup: *insts / 10, MixesPerGroup: *mixes, Seed: *seed},
		Workers:           *workers,
		EngineWorkers:     *jobs,
		QueueDepth:        *queueDepth,
		RunTimeout:        *runTimeout,
		JobTimeout:        *jobTimeout,
		Verify:            *verify,
		TelemetryInterval: *telemetry,
		Backing:           backing,
		RetainJobs:        *retainJobs,
		RetainFor:         *retainFor,
		Logger:            logger,
		SlowJob:           *slowJob,
		SpanCapacity:      *spanCap,
	})
	handler := svc.Handler()
	if *enablePprof {
		// Mount the service API next to the runtime profilers on one mux:
		// `go tool pprof http://host/debug/pprof/profile` works against a
		// live server without a side port.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			"addr", *addr, "workers", *workers, "queue", *queueDepth)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
	}

	// Drain the job service first so inflight work completes, then close
	// the listener. A second signal, or the drain timeout, forces it.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		logger.Warn("second signal, cancelling inflight jobs")
		cancel()
	}()
	if err := svc.Drain(ctx); err != nil {
		logger.Warn("drain cut short", "error", err)
	}
	shutdownCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("drained, bye")
	return nil
}
