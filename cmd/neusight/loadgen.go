package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"neusight/internal/loadgen"
	"neusight/internal/serve"
)

// loadgenCmd offers one fixed-rate open-loop step (-rate/-duration) to a
// prediction service: either an external one (-target URL) or one it boots
// in-process on a loopback port (-self roofline|quick), so a run needs a
// single command and no background process management — which is how the
// scripts/check.sh smoke run uses it. The request stream is a generated
// mix (-mix over -models × -gpus) or a recorded trace (-trace); the result
// is one machine-readable JSON report (stdout, or -out). A rate ladder is
// a shell loop over -rate.
func loadgenCmd(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	target := fs.String("target", "", "base URL of the service under test (e.g. http://127.0.0.1:8080)")
	self := fs.String("self", "", "serve an in-process target instead of -target: roofline (analytical, instant) or quick (trains the reduced neusight predictor first)")
	queue := fs.Int("queue", 0, "-self only: in-flight request bound before 503 backpressure (0 = default, negative = unbounded)")
	workers := fs.Int("workers", 0, "-self only: max concurrent backend predictions (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", serve.DefaultCacheSize, "-self only: prediction LRU cache entries (negative disables)")

	arrival := fs.String("arrival", loadgen.ArrivalPoisson, "arrival process: poisson or bursty")
	burstOn := fs.Duration("burst-on", 20*time.Millisecond, "bursty: on-window length")
	burstOff := fs.Duration("burst-off", 80*time.Millisecond, "bursty: off-window length")
	seed := fs.Int64("seed", 1, "arrival-process and scenario seed (fixed seed = reproducible run)")

	rate := fs.Float64("rate", 0, "offered rate in requests/second")
	duration := fs.Duration("duration", 10*time.Second, "how long to offer arrivals")

	mix := fs.String("mix", "kernel=1", `request mix, e.g. "kernel=0.7,batch=0.2,graph=0.1"`)
	modelList := fs.String("models", "BERT-Large", "comma-separated workload names spanning the scenario (see list-models)")
	gpuList := fs.String("gpus", "H100,V100", "comma-separated GPU names spanning the scenario (see list-gpus)")
	batchSize := fs.Int("batch-size", 32, "kernels per batch request in the mix")
	graphBatch := fs.Int("graph-batch", 2, "workload batch size of graph requests in the mix")
	poolSize := fs.Int("pool", 512, "distinct pre-encoded requests in the scenario pool")
	engine := fs.String("engine", "", "per-request /v2 engine name (empty = server default)")
	tracePath := fs.String("trace", "", "replay this recorded workload trace instead of a generated mix")

	observeFeedback := fs.Bool("observe-feedback", false, "report each successful kernel request's measured latency back via POST /v2/observe after the run (target must run with -observe)")
	maxInFlight := fs.Int("max-inflight", 0, "cap on outstanding requests; arrivals past it are shed as drops (0 = default, negative = unbounded)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout; a timed-out request counts as errored")
	outPath := fs.String("out", "", "write the JSON report here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if (*target == "") == (*self == "") {
		return fmt.Errorf("loadgen: pass exactly one of -target or -self")
	}
	if *rate <= 0 {
		return fmt.Errorf("loadgen: pass a positive -rate")
	}

	spec := loadgen.ArrivalSpec{Process: *arrival, Seed: *seed}
	if *arrival == loadgen.ArrivalBursty {
		spec.On, spec.Off = *burstOn, *burstOff
	}

	scenario, err := buildScenario(*tracePath, *mix, *modelList, *gpuList, *engine, *batchSize, *graphBatch, *poolSize, *seed)
	if err != nil {
		return err
	}

	baseURL := *target
	if *self != "" {
		stop, urls, err := startSelfCluster(*self, 1, serve.Config{CacheSize: *cacheSize, Workers: *workers, Queue: *queue})
		if err != nil {
			return err
		}
		defer stop()
		baseURL = urls[0]
		fmt.Fprintf(os.Stderr, "loadgen: self-serving %s target on %s\n", *self, baseURL)
	}

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	tgt := loadgen.NewTarget(baseURL, *maxInFlight)
	defer tgt.Client.CloseIdleConnections()

	fmt.Fprintf(os.Stderr, "loadgen: offering %g/s for %v against %s\n", *rate, *duration, baseURL)
	res, err := loadgen.Run(ctx, tgt, loadgen.RunConfig{
		Rate:            *rate,
		Duration:        *duration,
		Arrival:         spec,
		Scenario:        scenario,
		MaxInFlight:     *maxInFlight,
		Timeout:         *timeout,
		ObserveFeedback: *observeFeedback,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d sent, %d ok, %d rejected, %d errored, %d dropped; p50 %.3fms p99 %.3fms p999 %.3fms\n",
		res.Sent, res.Succeeded, res.Rejected, res.Errored, res.Dropped, res.P50Ms, res.P99Ms, res.P999Ms)
	if *observeFeedback {
		fmt.Fprintf(os.Stderr, "loadgen: fed back %d observations via /v2/observe (%d rejected)\n",
			res.Observed, res.ObserveRejected)
	}
	return writeReport(loadgen.Report{
		Kind:     loadgen.ReportKind,
		Target:   baseURL,
		Scenario: scenario.Name,
		Arrival:  spec,
		Run:      &res,
	}, *outPath)
}

// writeReport marshals the report to -out or stdout.
func writeReport(report loadgen.Report, outPath string) error {
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath != "" {
		return os.WriteFile(outPath, enc, 0o644)
	}
	_, err = os.Stdout.Write(enc)
	return err
}

// buildScenario resolves the -trace/-mix flags into a request pool.
func buildScenario(tracePath, mix, modelList, gpuList, engine string, batchSize, graphBatch, poolSize int, seed int64) (*loadgen.Scenario, error) {
	if tracePath != "" {
		sc, skipped, err := loadgen.NewTraceReplay(tracePath, engine)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: trace %s: %d entries skipped (corrupt or not API-expressible)\n", tracePath, skipped)
		}
		return sc, nil
	}
	kw, bw, gw, err := parseMix(mix)
	if err != nil {
		return nil, err
	}
	return loadgen.NewMix(loadgen.MixConfig{
		KernelWeight: kw, BatchWeight: bw, GraphWeight: gw,
		Models: splitPeers(modelList), GPUs: splitPeers(gpuList),
		Engine: engine, BatchSize: batchSize, GraphBatch: graphBatch,
		PoolSize: poolSize, Seed: seed,
	})
}

// parseMix parses "kernel=0.7,batch=0.2,graph=0.1" into the three weights.
// Omitted kinds weigh zero.
func parseMix(s string) (kernel, batch, graph float64, err error) {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return 0, 0, 0, fmt.Errorf("loadgen: mix entry %q is not kind=weight", part)
		}
		w, perr := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if perr != nil || w < 0 {
			return 0, 0, 0, fmt.Errorf("loadgen: mix weight %q must be a non-negative number", val)
		}
		switch strings.TrimSpace(key) {
		case "kernel":
			kernel = w
		case "batch":
			batch = w
		case "graph":
			graph = w
		default:
			return 0, 0, 0, fmt.Errorf("loadgen: unknown mix kind %q (want kernel, batch, or graph)", key)
		}
	}
	if kernel+batch+graph == 0 {
		return 0, 0, 0, fmt.Errorf("loadgen: mix %q has no positive weight", s)
	}
	return kernel, batch, graph, nil
}
