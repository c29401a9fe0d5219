package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neusight/internal/cluster"
	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/observe"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
	"neusight/internal/tile"
)

// serveCmd runs the multi-engine HTTP prediction service around either a
// predictor saved by train (-model/-tiles) or a reduced one trained
// in-process (-quick). The registry always carries the neusight, roofline,
// and gpusim engines; -quick additionally trains the comparison baselines
// (habitat, liregression, direct-mlp, direct-transformer) on the generated
// dataset so every engine of the standard set is routable via /v2.
//
// Every engine shares one cache of -cache entries and a pool of -workers
// behind a -queue bound on requests in flight, past which the service
// answers 503; -warmup replays a workload trace into the cache before the
// listener opens, and -trace-record appends the served keys to one for
// the next restart. SIGINT/SIGTERM trigger a graceful shutdown: the
// listener closes immediately, in-flight requests drain up to -drain, then
// the process exits cleanly (flushing the trace, if recording).
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	modelPath := fs.String("model", "", "trained predictor path (from `neusight train`)")
	tilePath := fs.String("tiles", "tiles.json", "tile database path")
	quickTrain := fs.Bool("quick", false, "train a reduced predictor in-process instead of loading one")
	cacheSize := fs.Int("cache", serve.DefaultCacheSize, "prediction LRU cache entries, shared by every engine (negative disables)")
	workers := fs.Int("workers", 0, "max concurrent backend predictions (0 = GOMAXPROCS)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	queue := fs.Int("queue", 0, fmt.Sprintf("in-flight request bound before 503 backpressure (0 = %d, negative = unbounded)", serve.DefaultQueue))
	tracePath := fs.String("trace-record", "", "append served (kernel, GPU, engine) keys to this JSONL workload trace")
	warmupPath := fs.String("warmup", "", "replay this workload trace to warm caches before accepting traffic")
	traceCompact := fs.Int("trace-compact", 0, "age out trace keys not requested within the last K replays (0 = off; requires -trace-record)")
	engineList := fs.String("engines", "", "serve only these non-trainable engines, comma-separated (no -model/-quick needed; e.g. roofline,gpusim)")
	peers := fs.String("peers", "", "comma-separated addresses of peer serve processes forming a cluster (any one live member joins a running cluster)")
	steer := fs.String("steer", cluster.SteerProxy, "cluster steering for requests owned by a peer: proxy (forward to the owner) or off (serve locally)")
	advertise := fs.String("advertise", "", "address peers reach this process at (default: -addr with an empty host replaced by 127.0.0.1)")
	clusterListen := fs.String("cluster-listen", "", "optional extra listener serving only the cluster control routes (/v2/cluster/*)")
	clusterToken := fs.String("cluster-token", "", "shared bearer token required on all /v2/cluster/* control routes (every member must use the same one)")
	healthInterval := fs.Duration("health-interval", 0, "cluster health-sweep cadence driving the suspect/dead failure detector (0 = default 1s)")
	observeFlag := fs.Bool("observe", false, "accept measured kernel latencies on POST /v2/observe and track prediction drift (retrainable engines background-retrain past -drift-threshold)")
	driftThreshold := fs.Float64("drift-threshold", observe.DefaultThreshold, "rolling-MAPE level above which a retrainable engine recalibrates from observations (requires -observe)")
	planDir := fs.String("plan-dir", "", "persist /v2/plan job checkpoints to this directory so interrupted sweeps restore as resumable after a restart (default: in-memory only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceCompact < 0 {
		return fmt.Errorf("serve: -trace-compact must be >= 0, got %d", *traceCompact)
	}
	if *traceCompact > 0 && *tracePath == "" {
		return fmt.Errorf("serve: -trace-compact requires -trace-record")
	}
	if !*observeFlag && *driftThreshold != observe.DefaultThreshold {
		return fmt.Errorf("serve: -drift-threshold requires -observe")
	}
	if *driftThreshold <= 0 {
		return fmt.Errorf("serve: -drift-threshold must be positive, got %v", *driftThreshold)
	}
	// A -model ignored under -quick would silently drop every calibration
	// the process saves; reject the pair before -quick trains anything.
	if *quickTrain && *modelPath != "" {
		return fmt.Errorf("serve: pass -model or -quick, not both")
	}
	clustered := *peers != ""
	if (*clusterListen != "" || *advertise != "" || *clusterToken != "" || *healthInterval != 0) && !clustered {
		return fmt.Errorf("serve: -cluster-listen, -advertise, -cluster-token, and -health-interval require -peers")
	}
	// Validate -steer before the expensive model loading/training below: a
	// typo'd mode must fail in milliseconds, not after a -quick train.
	if *steer != cluster.SteerProxy && *steer != cluster.SteerOff {
		return fmt.Errorf("serve: unknown -steer mode %q (want %s or %s)", *steer, cluster.SteerProxy, cluster.SteerOff)
	}
	// Setting -steer at all, even to its default, needs a cluster.
	steerSet := false
	fs.Visit(func(f *flag.Flag) { steerSet = steerSet || f.Name == "steer" })
	if steerSet && !clustered {
		return fmt.Errorf("serve: -steer requires -peers")
	}
	reg := predict.NewRegistry()
	defaultEngine := predict.EngineNeuSight
	// p is the core predictor, the one engine that calibrates (nil under
	// -engines). ds is the -quick run's generated dataset, retained so
	// calibration retrains keep the offline distribution under the folded
	// observations (nil for -model: calibration then fine-tunes the
	// loaded weights, with their own forecasts as the base set).
	var p *core.Predictor
	var ds *dataset.Dataset
	if *engineList != "" {
		// Model-free serving: only engines that need no training can run
		// without a predictor (-model) or an in-process dataset (-quick).
		if *quickTrain || *modelPath != "" {
			return fmt.Errorf("serve: -engines replaces -model/-quick")
		}
		names := splitPeers(*engineList)
		if len(names) == 0 {
			return fmt.Errorf("serve: -engines lists no engine")
		}
		for _, name := range names {
			spec, ok := findEngineSpec(name)
			if !ok {
				return fmt.Errorf("serve: unknown engine %q (see `neusight engines`)", name)
			}
			eng := spec.build()
			if _, trainable := eng.(predict.Trainable); trainable {
				return fmt.Errorf("serve: engine %q needs training — use -quick instead of -engines", name)
			}
			reg.MustRegister(eng)
		}
		defaultEngine = names[0]
	} else {
		switch {
		case *quickTrain:
			fmt.Println("training a reduced in-process predictor...")
			var tdb *tile.DB
			ds, tdb = quickDataset()
			p = core.NewPredictor(quickCoreConfig(), tdb)
			p.Train(ds)
		case *modelPath != "":
			tdb, err := tile.LoadDB(*tilePath)
			if err != nil {
				return err
			}
			if p, err = core.Load(*modelPath, tdb); err != nil {
				return err
			}
		default:
			return fmt.Errorf("serve: pass -model (with -tiles), -quick, or -engines")
		}
		reg.MustRegister(predict.NewCoreEngine(p))
		for _, spec := range engineSpecs() {
			eng := spec.build()
			if tr, ok := eng.(predict.Trainable); ok {
				if ds == nil {
					continue // trainable baselines need the -quick dataset
				}
				fmt.Printf("training engine %s...\n", spec.name)
				if err := trainEngineSpec(tr, spec, ds); err != nil {
					return err
				}
			}
			reg.MustRegister(eng)
		}
	}
	svc := serve.NewMulti(reg, defaultEngine, serve.Config{CacheSize: *cacheSize, Workers: *workers, Queue: *queue})
	planMgr, err := plan.NewManager(*planDir, planResolver(reg, defaultEngine), plan.Options{})
	if err != nil {
		return err
	}
	svc.SetPlanner(planMgr)
	defer planMgr.Close()
	if *planDir != "" {
		restored := planMgr.List()
		if len(restored) > 0 {
			fmt.Printf("plan: %d checkpointed jobs restored from %s (cancelled ones resume via POST /v2/plan/{id})\n",
				len(restored), *planDir)
		}
	}
	if *observeFlag {
		mon := observe.NewMonitor(observe.Config{Threshold: *driftThreshold}, func(ctx context.Context, engine string, k kernels.Kernel, g gpu.Spec) (float64, error) {
			res, err := svc.PredictKernelEngine(ctx, engine, k, g)
			return res.Latency, err
		})
		// The core predictor is the one engine that folds observations
		// back in; every other engine is tracked alert-only.
		if p != nil {
			mon.RegisterRetrainer(predict.EngineNeuSight, calibrator(p, ds, *modelPath))
		}
		svc.SetObserver(mon)
		defer mon.Close()
		fmt.Printf("observation ingestion on POST /v2/observe (drift threshold %.0f%%, window %d, min samples %d)\n",
			*driftThreshold*100, observe.DefaultWindow, observe.DefaultMinSamples)
	}
	// The recorder attaches before warmup so a rotated trace
	// (-warmup old.jsonl -trace-record new.jsonl) re-records the warmed
	// working set into the new file — those keys become cache hits for all
	// later live traffic and would otherwise never reach the cache-fill
	// record hook. Pointing both flags at the same file stays duplicate-free:
	// the recorder seeds its dedup set from the file's existing entries.
	if *tracePath != "" {
		var rec *serve.TraceRecorder
		var err error
		if *traceCompact > 0 {
			rec, err = serve.NewTraceRecorderCompact(*tracePath, *traceCompact)
		} else {
			rec, err = serve.NewTraceRecorder(*tracePath)
		}
		if err != nil {
			return err
		}
		defer func() {
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "neusight: closing trace: %v\n", err)
			}
		}()
		svc.SetTraceRecorder(rec)
		fmt.Printf("recording workload trace to %s\n", *tracePath)
		if tc := rec.Compaction(); tc != nil {
			fmt.Printf("trace compaction: %d entries loaded, %d aged out (idle bound %d replays)\n",
				tc.Loaded, tc.AgedOut, tc.MaxIdleReplays)
		}
	}
	// Warm before listening: the first connection a client can open is
	// already served from a cache primed with the saved workload profile.
	if *warmupPath != "" {
		fmt.Printf("warming caches from trace %s...\n", *warmupPath)
		ws, err := svc.WarmFromTrace(context.Background(), *warmupPath)
		if err != nil {
			return err
		}
		fmt.Printf("warmup: %d entries, %d warmed, %d corrupt lines skipped, %d failed, %.0f ms\n",
			ws.Entries, ws.Warmed, ws.Skipped, ws.Failed, ws.DurationMs)
	}
	var handler http.Handler = serve.NewHandler(svc)
	var node *cluster.Node
	if clustered {
		self := *advertise
		if self == "" {
			self = deriveSelf(*addr)
		}
		n, err := cluster.NewNode(cluster.Config{
			Self:           self,
			Peers:          splitPeers(*peers),
			Steer:          *steer,
			Registry:       reg,
			DefaultEngine:  svc.DefaultEngine(),
			Invalidate:     svc.InvalidateEngine,
			Token:          *clusterToken,
			HealthInterval: *healthInterval,
			TraceDump:      svc.TraceJSONL,
			WarmOwned: func(data []byte, owns func(engine, gpuName string) bool) (int, error) {
				return svc.WarmFromTraceData(context.Background(), data, owns)
			},
		})
		if err != nil {
			return err
		}
		node = n
		planMgr.SetDispatcher(node.PlanDispatcher())
		// One gossip round before the listener opens: the seeds learn of
		// this member and hand back their membership and generation views,
		// so one live member in -peers is enough to join a running cluster
		// with its full ring. The trace warmup then primes the keys this
		// member is about to own — its first steered request should be a
		// cache hit, not a cold model run. Neither step can fail the start:
		// an unreachable seed costs at most one push and one poll deadline,
		// is skipped by the warmup, and is readmitted by its first contact.
		node.SyncNow()
		warmed, skipped, werr := node.WarmFromOwners(context.Background())
		if werr != nil {
			fmt.Fprintf(os.Stderr, "neusight: start-up warmup: %v\n", werr)
		}
		fmt.Printf("cluster start-up: members [%s], %d forecasts warmed (%d peers skipped)\n",
			strings.Join(node.Members(), " "), warmed, skipped)
		handler = node.Handler(handler)
		node.Start()
		defer node.Stop()
		if *clusterListen != "" {
			cln, err := net.Listen("tcp", *clusterListen)
			if err != nil {
				return err
			}
			ctrl := &http.Server{Handler: node.ControlHandler(), ReadHeaderTimeout: 10 * time.Second}
			go ctrl.Serve(cln)
			defer ctrl.Close()
			fmt.Printf("cluster control routes on %s\n", cln.Addr())
		}
		fmt.Printf("cluster: self %s, peers [%s], steering %s\n",
			node.Self(), strings.Join(node.Peers(), " "), node.Mode())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving engines [%s] on %s, default %s (cache %d entries)\n",
		strings.Join(reg.List(), " "), ln.Addr(), svc.DefaultEngine(), *cacheSize)
	fmt.Println("endpoints: POST /v2/predict/kernel|batch|graph (per-request \"engine\")  GET /v2/engines  GET /v2/stats")
	fmt.Println("           GET /v2/healthz  GET /metrics")
	fmt.Println("           POST|GET /v2/plan (what-if capacity sweeps)  GET|POST|DELETE /v2/plan/{id} (poll, resume, cancel)")
	if *observeFlag {
		fmt.Println("           POST /v2/observe (measured latencies -> drift detection)")
	}
	if node != nil {
		fmt.Println("           GET|POST /v2/cluster/generations (gossip)  GET /v2/cluster/ring (assignments)")
		fmt.Println("           GET /v2/cluster/health (failure detector)  GET /v2/cluster/trace")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Release the signal handler as soon as the first signal lands: the
	// drain then proceeds, but a second SIGINT/SIGTERM gets default
	// handling and force-quits instead of being swallowed for -drain.
	go func() {
		<-ctx.Done()
		stop()
	}()
	srv := &http.Server{
		Handler: handler,
		// Bound slow clients on both directions so trickled headers,
		// unread responses, or abandoned connections cannot pin goroutines
		// and file descriptors indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return runServer(ctx, srv, ln, *drain)
}

// calibrator is the core predictor's retrainer: it folds a calibration
// set into p, which publishes the calibrated version with one generation
// step (the serving caches and cluster gossip invalidate on it), and —
// when p was loaded from modelPath — saves that version over the file,
// so a restart with the same flags serves the calibrated model. A failed
// save is returned with the path and the new generation: the published
// version keeps serving, and the monitor still resets its windows, so a
// disk that stays full costs one error per calibration, not a retrain per
// observation. Without a model file (-quick) a calibration lasts as long
// as the process, like its training.
func calibrator(p *core.Predictor, base *dataset.Dataset, modelPath string) observe.RetrainFunc {
	return func(calib []dataset.Sample) (uint64, error) {
		if rep := p.Calibrate(base, calib); len(rep.Trained) == 0 {
			return 0, fmt.Errorf("calibrate: no calibration sample falls in a trained category (%d skipped)", rep.Skipped)
		}
		if modelPath != "" {
			if err := p.Save(modelPath); err != nil {
				return p.Generation(), fmt.Errorf("calibrate: %w", err)
			}
		}
		return p.Generation(), nil
	}
}

// splitPeers parses the -peers flag: comma-separated addresses, blanks
// dropped.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// deriveSelf turns the -addr listen address into an address peers can
// reach: a bare port (":8080") advertises 127.0.0.1 — right for local
// multi-process clusters; multi-host deployments pass -advertise.
func deriveSelf(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// runServer serves srv on ln until ctx is cancelled (SIGINT/SIGTERM in
// production), then shuts down gracefully: the listener closes so no new
// connections are accepted, and in-flight requests get up to drain to
// complete before the remaining connections are torn down.
func runServer(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err // listener failed before any shutdown was requested
	case <-ctx.Done():
	}
	fmt.Printf("shutting down: draining in-flight requests (up to %v)...\n", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if serveErr := <-errCh; serveErr != nil && serveErr != http.ErrServerClosed {
		return serveErr
	}
	if err != nil {
		return fmt.Errorf("serve: drain timeout exceeded: %w", err)
	}
	fmt.Println("shutdown complete")
	return nil
}
