// Command sagserved runs the sagrelay solve service: an HTTP JSON API that
// accepts scenario solve jobs, runs them on a bounded worker pool with
// cooperative cancellation, and answers repeated requests from a
// content-addressed result cache. With -data-dir it is also crash-safe:
// every job is journaled to disk and replayed after a restart.
//
// Usage:
//
//	sagserved -addr :8080
//	sagserved -addr 127.0.0.1:0 -workers 4 -max-job-time 30s
//	sagserved -data-dir /var/lib/sagserved      # durable job journal
//	sagserved -fault 'milp.node=error:p=0.01'   # chaos: arm fault injection
//	sagserved -pprof-addr 127.0.0.1:6060        # net/http/pprof side server
//	sagserved -rate 5 -burst 10                 # per-client rate limiting
//	sagserved -log-format json -log-level debug # structured logs on stderr
//
// The end-to-end gates are go test cases: internal/serve for the service,
// and this package's TestKill9MidSolveReplaysJournal for the kill -9 drill,
// which re-executes the test binary as a child server.
//
// Logs go to stderr through log/slog with job_id/batch_id/client correlation
// fields. The -pprof-addr side listener additionally serves the flight
// recorder at /debug/flight (last K completed jobs, failures retained
// preferentially); SIGQUIT dumps the ring to stderr without stopping the
// process.
//
// See the README quickstart for the curl workflow and the crash-recovery
// runbook for -data-dir operations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling handlers for the -pprof-addr side server
	"os"
	"os/signal"
	"syscall"
	"time"

	"sagrelay/internal/fault"
	"sagrelay/internal/obs"
	"sagrelay/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sagserved:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sagserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks one)")
		workers    = fs.Int("workers", 0, "concurrent solve jobs (0 = all CPUs)")
		queue      = fs.Int("queue", 64, "queued-job bound before submissions get 429")
		cacheEnts  = fs.Int("cache", 256, "result cache entries")
		maxJobTime = fs.Duration("max-job-time", 2*time.Minute, "default and maximum per-job deadline")
		dataDir    = fs.String("data-dir", "", "durable job journal directory (empty = in-memory only)")
		faultSpec  = fs.String("fault", os.Getenv("SAGFAULT"),
			"fault-injection spec, e.g. 'milp.node=error:p=0.01,serve.job=panic:n=3' (default $SAGFAULT; empty = off)")
		faultSeed       = fs.Int64("fault-seed", 1, "fault-injection rng seed")
		shutdownTimeout = fs.Duration("shutdown-timeout", 10*time.Second,
			"SIGINT/SIGTERM drain budget before in-flight solves are cancelled (and, with a journal, re-run on the next start)")
		pprofAddr = fs.String("pprof-addr", "",
			"listen address for a net/http/pprof side server (empty = profiling off; keep it loopback-only)")
		rate = fs.Float64("rate", 0,
			"per-client request rate limit in requests/second (0 = no rate limiting)")
		burst = fs.Int("burst", 0,
			"per-client token-bucket burst (0 = derive from -rate)")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		flightRec = fs.Int("flight-records", obs.DefaultFlightRecords,
			"completed-job flight records retained in memory (failures kept preferentially)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	lvl, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, lvl)
	if err != nil {
		return err
	}

	if *faultSpec != "" {
		if err := fault.EnableSpec(*faultSpec, *faultSeed); err != nil {
			return err
		}
		logger.Warn("fault injection armed", "spec", *faultSpec, "seed", *faultSeed)
	}

	opts := serve.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cacheEnts,
		MaxJobTime:    *maxJobTime,
		DataDir:       *dataDir,
		FlightRecords: *flightRec,
		Logger:        logger,
		Rate:          *rate,
		Burst:         *burst,
	}
	srv, err := serve.NewServer(opts)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		m := srv.MetricsSnapshot()
		logger.Info("journal opened", "dir", *dataDir,
			"restored", m["journal_restored_jobs"], "replaying", m["journal_replayed_jobs"])
	}

	// The flight recorder rides the pprof side listener: both are debug
	// surfaces that must never share a port with the job API.
	fh := srv.FlightHandler()
	http.Handle("GET /debug/flight", fh)
	http.Handle("GET /debug/flight/", fh)
	if *pprofAddr != "" {
		// The pprof import registered its handlers on http.DefaultServeMux;
		// serve that mux on a separate listener so profiling never shares a
		// port (or an exposure surface) with the job API.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		go func() {
			logger.Info(fmt.Sprintf("pprof and flight recorder on http://%s", pln.Addr()))
			if err := http.Serve(pln, nil); err != nil {
				logger.Error("pprof server stopped", "err", err)
			}
		}()
	}

	// SIGQUIT dumps the flight ring to stderr and keeps serving — the
	// in-flight postmortem tool for a wedged or misbehaving deployment.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			logger.Warn("SIGQUIT: dumping flight recorder")
			os.Stderr.Write(srv.FlightRecorder().Dump())
			os.Stderr.Write([]byte("\n"))
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Info(fmt.Sprintf("listening on http://%s", ln.Addr()))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "budget", shutdownTimeout.String())
	}

	// Graceful shutdown: stop the listener, then drain in-flight jobs; past
	// the budget every remaining solve is cancelled via its context and, with
	// a journal, left without a terminal record so the next start re-runs it.
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	httpErr := httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("drain budget expired, in-flight jobs interrupted", "err", err)
	}
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	logger.Info("shut down cleanly")
	return nil
}
