// Command prisimd serves simulations over HTTP: a bounded job queue with
// backpressure (429 + Retry-After), a worker pool over one shared prisim
// Engine, per-job cancellation and timeout, SSE progress streaming,
// Prometheus-format metrics, and graceful drain on SIGTERM/SIGINT.
//
// Every simulate and program job resolves its point through the daemon's
// fabric coordinator: the content-addressed result store first, then the
// point's in-flight run, then the Engine. The store is memory-only unless
// -store names a log file, which survives restarts. With -coordinator the
// daemon also mounts the experiment fabric control plane
// (/api/v1/fabric/...): matrix submissions expand into content-hashed
// points, warm points serve from the store, and cold points shard across
// registered worker daemons, or run on up to -local-slots local slots. A
// worker joins a coordinator with -join.
//
// Usage:
//
//	prisimd -addr :8064 -queue 32 -workers 0 -job-timeout 10m
//	prisimd -addr :8070 -coordinator -store /var/lib/prisim/results.log
//	prisimd -addr :8071 -join http://coordinator:8070
//	curl -s localhost:8064/api/v1/jobs -d '{"kind":"simulate","benchmark":"mcf"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"prisim"
	"prisim/internal/fabric"
	"prisim/internal/service"
	"prisim/prisimclient"
)

func main() {
	addr := flag.String("addr", ":8064", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queue depth before 429 (0 = 4x workers)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job execution limit (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM before in-flight jobs are cancelled")
	ff := flag.Uint64("ff", 0, fmt.Sprintf("default fast-forward instructions per run (0 = engine default %d)", prisim.DefaultFastForward))
	run := flag.Uint64("run", 0, fmt.Sprintf("default measured instructions per run (0 = engine default %d)", prisim.DefaultRun))
	storePath := flag.String("store", "", "durable content-addressed result store (append-only log file; empty = none)")
	progSource := flag.Int("program-max-source", 0, fmt.Sprintf("max program source bytes per submission (0 = %d)", service.DefaultMaxProgramSource))
	progRun := flag.Uint64("program-max-run", 0, fmt.Sprintf("max committed instructions per program job; larger requests are rejected (0 = %d)", service.DefaultMaxProgramRun))
	progMem := flag.Uint64("program-max-memory", 0, fmt.Sprintf("max simulated memory footprint bytes per program job (0 = %d)", service.DefaultMaxProgramMemory))
	coordinator := flag.Bool("coordinator", false, "run the experiment fabric control plane (/api/v1/fabric/...)")
	localSlots := flag.Int("local-slots", 0, "matrix points the coordinator executes on this daemon's engine when no worker is free (0 = workers only)")
	join := flag.String("join", "", "coordinator URL to register this daemon with as a worker")
	advertise := flag.String("advertise", "", "URL the coordinator should reach this daemon at (default http://127.0.0.1:PORT)")
	nodeID := flag.String("node-id", "", "node name stamped on computed results (default host-pid)")
	quiet := flag.Bool("quiet", false, "suppress request/job logging")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("prisimd", prisim.Version)
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: prisimd [flags] (run 'prisimd -h' for flags)")
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "prisimd: ", log.LstdFlags|log.Lmsgprefix)
	if *nodeID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "prisimd"
		}
		*nodeID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	if *coordinator && *storePath == "" {
		logger.Printf("warning: -coordinator without -store: results and matrix state will not survive a restart")
	}
	store, err := fabric.OpenStore(*storePath)
	if err != nil {
		logger.Printf("%v", err)
		os.Exit(1)
	}
	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	// One Engine runs every point: the job workers' and the local slots'.
	fcfg := fabric.Config{
		Store:      store,
		NodeID:     *nodeID,
		LocalSlots: *localSlots,
		Engine: prisim.NewEngine(
			prisim.WithBudget(*ff, *run),
			prisim.WithParallelism(effWorkers+max(*localSlots, 0)),
		),
	}
	if !*quiet {
		fcfg.Logger = logger
	}
	coord, err := fabric.New(fcfg)
	if err != nil {
		logger.Printf("coordinator: %v", err)
		os.Exit(1)
	}

	cfg := service.Config{
		Workers:     effWorkers,
		QueueDepth:  *queue,
		JobTimeout:  *jobTimeout,
		Coordinator: coord,
		Fabric:      *coordinator,
		Programs: service.ProgramLimits{
			MaxSourceBytes: *progSource,
			MaxRun:         *progRun,
			MaxMemoryBytes: *progMem,
		},
	}
	if !*quiet {
		cfg.Logger = logger
	}
	srv := service.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	effQueue := *queue
	if effQueue <= 0 {
		effQueue = 4 * effWorkers
	}
	logger.Printf("version=%s node=%s addr=%s workers=%d queue=%d job-timeout=%s drain-timeout=%s coordinator=%t store=%q",
		prisim.Version, *nodeID, ln.Addr(), effWorkers, effQueue, *jobTimeout, *drainTimeout, *coordinator, *storePath)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	joinCtx, joinStop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer joinStop()
	if *join != "" {
		go registerWithCoordinator(joinCtx, logger, *join, advertiseURL(*advertise, ln.Addr()))
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigCh:
		logger.Printf("signal=%s draining (deadline %s)", sig, *drainTimeout)
	case err := <-errCh:
		logger.Printf("serve: %v", err)
		srv.Close()
		os.Exit(1)
	}

	// Stop intake first (readyz flips to 503 and new submits get 503),
	// then drain jobs, then close the HTTP listener, then release the
	// fabric state: coordinator before store, because the coordinator
	// appends to the store until it stops.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("drain: %v", err)
	} else {
		logger.Printf("drained cleanly")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
	coord.Close()
	if err := store.Close(); err != nil {
		logger.Printf("store close: %v", err)
	}
	logger.Printf("exit")
}

// advertiseURL resolves the URL a coordinator should reach this daemon at:
// the -advertise flag verbatim, else http://127.0.0.1:PORT from the bound
// listener (an unspecified listen host is not routable from elsewhere, so
// loopback is the only safe default).
func advertiseURL(flagVal string, bound net.Addr) string {
	if flagVal != "" {
		if !strings.Contains(flagVal, "://") {
			return "http://" + flagVal
		}
		return flagVal
	}
	host, port := "127.0.0.1", ""
	if tcp, ok := bound.(*net.TCPAddr); ok {
		port = fmt.Sprintf("%d", tcp.Port)
		if tcp.IP != nil && !tcp.IP.IsUnspecified() && !tcp.IP.IsLoopback() {
			host = tcp.IP.String()
		}
	}
	return fmt.Sprintf("http://%s:%s", host, port)
}

// registerWithCoordinator announces this daemon as a fabric worker,
// retrying while the coordinator comes up. Registration is idempotent on
// the coordinator side, so retrying after a transient failure is safe.
func registerWithCoordinator(ctx context.Context, logger *log.Logger, coordURL, selfURL string) {
	if !strings.Contains(coordURL, "://") {
		coordURL = "http://" + coordURL
	}
	c := prisimclient.NewClient(coordURL)
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		info, err := c.RegisterWorker(ctx, selfURL)
		if err == nil {
			logger.Printf("joined coordinator=%s as worker=%s advertise=%s", coordURL, info.ID, selfURL)
			return
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
	logger.Printf("join %s failed: %v", coordURL, lastErr)
}
