// Command rvcoord is the campaign coordinator: the fault-tolerance
// layer that turns a fleet of rvserved workers into one reliable
// sweep. It loads a single campaign spec, owns the unfinished cell
// index set, and hands out bounded, heartbeat-renewed shard leases
// over HTTP. A worker that dies mid-lease simply stops heartbeating:
// the lease expires and its cells are re-granted to the next worker.
// Results fold through the order-independent aggregator (duplicates
// from reassigned leases are no-ops), and once every cell is done,
// GET /v1/report serves the exact bytes a single-process
// `rvsweep -json` run of the same spec prints.
//
// Endpoints (see internal/serve/coord):
//
//	GET  /v1/spec       the campaign spec workers must run
//	POST /v1/lease      acquire work (?worker=name)
//	POST /v1/heartbeat  keep a lease alive (?lease=ID)
//	POST /v1/complete   upload a lease's results as NDJSON (?lease=ID)
//	GET  /v1/status     progress counters
//	GET  /v1/report     final report; 409 + Retry-After until complete
//	GET  /healthz       200 ok (with the build version)
//	GET  /metrics       Prometheus text exposition (lease lifecycle, pool state)
//
// Start workers with `rvserved -coordinator http://host:8748`; poll
// /v1/report until it answers 200.
//
// Exit codes: 0 clean shutdown; 1 runtime error; 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"meetpoly"
	"meetpoly/internal/buildinfo"
	"meetpoly/internal/serve/coord"
	"meetpoly/internal/telemetry/logx"
)

// idleTimeout closes keep-alive connections that carry no request for
// this long.
const idleTimeout = 2 * time.Minute

func main() {
	var (
		addr       = flag.String("addr", ":8748", "address to listen on")
		specPath   = flag.String("spec", "", "path to the campaign sweep spec JSON (required)")
		leaseCells = flag.Int("lease-cells", coord.DefaultLeaseCells, "max cells per lease")
		leaseTTL   = flag.Duration("lease-ttl", coord.DefaultLeaseTTL, "lease lifetime without a heartbeat")
		retryAfter = flag.Duration("retry-after", coord.DefaultRetryAfter, "Retry-After hint for waiting workers and premature report fetches")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		version    = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("rvcoord"))
		return
	}
	level, err := logx.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvcoord:", err)
		flag.Usage()
		os.Exit(2)
	}
	logger := logx.New(os.Stderr, level)
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "rvcoord: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	spec, err := meetpoly.LoadSweepSpecFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvcoord:", err)
		os.Exit(1)
	}
	reg := meetpoly.NewMetrics()
	buildinfo.InfoGauge(reg, "rvcoord")
	c, err := coord.New(coord.Config{
		Spec:       spec,
		LeaseCells: *leaseCells,
		LeaseTTL:   *leaseTTL,
		RetryAfter: *retryAfter,
		Metrics:    reg,
		Log:        logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvcoord:", err)
		os.Exit(1)
	}

	total, _ := meetpoly.CountSweep(spec)
	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// A client that never finishes its request headers, or parks an
	// idle keep-alive connection, must not hold it open forever.
	httpSrv := &http.Server{Addr: *addr, Handler: mux,
		ReadHeaderTimeout: 10 * time.Second, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening",
		logx.F("campaign", spec.Name), logx.F("cells", int64(total)), logx.F("addr", *addr))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "rvcoord:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "rvcoord: shutdown:", err)
		os.Exit(1)
	}
}
