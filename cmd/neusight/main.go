// Command neusight is the CLI front end of the framework: it lists the
// device and workload inventories and the prediction-engine registry,
// trains a predictor from a dataset, and forecasts model latencies on any
// registered GPU with any registered engine.
//
// Usage:
//
//	neusight list-gpus
//	neusight list-models
//	neusight engines
//	neusight train   -data data.csv -out model.json -tiles tiles.json
//	neusight predict -model model.json -tiles tiles.json \
//	                 -workload GPT3-XL -gpu H100 -batch 2 [-train] [-fused]
//	                 [-engine neusight]
//	neusight quick   -workload GPT3-XL -gpu H100 -batch 2 [-engine roofline]
//	neusight serve   -addr :8080 [-model model.json -tiles tiles.json | -quick | -engines roofline,gpusim]
//	                 [-shards 8] [-warmup trace.jsonl] [-trace-record trace.jsonl]
//	                 [-trace-compact 5] [-peers host2:8080,host3:8080]
//	                 [-join host2:8080] [-steer redirect|proxy|off]
//	                 [-advertise host1:8080] [-cluster-listen :9090]
//	                 [-cluster-token secret] [-health-interval 1s]
//	                 [-observe] [-drift-threshold 0.25] [-observe-store obs.jsonl]
//	neusight loadgen (-target http://host:8080 | -self roofline) \
//	                 (-rate 500 -duration 10s | -sweep 100:100:2000) \
//	                 [-arrival poisson|bursty -burst-on 20ms -burst-off 80ms]
//	                 [-mix kernel=0.7,batch=0.2,graph=0.1 -models BERT-Large -gpus H100,V100]
//	                 [-trace trace.jsonl] [-slo-p99 50 -slo-errors 0.01] [-out report.json]
//	neusight plan    (-target http://host:8080 | -self roofline [-self-cluster 3]) \
//	                 -model GPT3-XL -gpus A100-80GB,H100 -traffic 500 [-training]
//	                 [-poll id | -cancel id | -resume id] [-out plan.json]
//
// "quick" trains a reduced predictor in-process (no files needed) — the
// fastest way to get a forecast. "serve" exposes the engine registry as a
// concurrent HTTP JSON API (/v2 selects an engine per request) with
// prediction caching, request coalescing and a queue bound per shard;
// -shards splits traffic by (engine, GPU) onto several, and -warmup /
// -trace-record persist the workload profile across restarts. -peers forms
// a cluster with other serve processes: engine-generation changes gossip
// between members so a retrain anywhere invalidates every member's stale
// cache, and requests are steered (307 redirect or transparent proxy) to
// the member owning their (engine, GPU) shard; -join grows a running
// cluster by announcing this process to any existing member. "loadgen"
// drives a service
// (or one it boots in-process via -self) with open-loop Poisson or bursty
// traffic and, in -sweep mode, walks the offered rate up until an SLO
// breach to report the knee — the node's sustainable capacity. "plan"
// submits a what-if capacity sweep to a service's /v2/plan API — every
// (GPU, parallelism strategy, fleet size) candidate priced through the
// prediction stack and ranked by throughput-per-cost — and polls the
// resumable async job to completion.
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
	"text/tabwriter"
	"time"

	"neusight/internal/baselines"
	"neusight/internal/cluster"
	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/observe"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/report"
	"neusight/internal/serve"
	"neusight/internal/tile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list-gpus":
		err = listGPUs()
	case "list-models":
		err = listModels()
	case "engines":
		err = listEngines()
	case "train":
		err = train(os.Args[2:])
	case "predict":
		err = predictCmd(os.Args[2:])
	case "quick":
		err = quick(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "loadgen":
		err = loadgenCmd(os.Args[2:])
	case "plan":
		err = planCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "neusight: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "neusight: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: neusight <command> [flags]

commands:
  list-gpus     print the device registry (paper Table 4)
  list-models   print the workload zoo (paper Table 5)
  engines       print the prediction-engine registry
  train         train a predictor from a profiled dataset CSV
  predict       forecast a workload with a saved predictor (-engine picks another engine)
  quick         train a reduced predictor in-process and forecast
  serve         run the concurrent multi-engine HTTP prediction service
  loadgen       offer open-loop load to a service and find its SLO knee
  plan          submit/poll/cancel what-if capacity sweeps (/v2/plan) against a service or -self`)
}

func listGPUs() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tVENDOR\tYEAR\tPEAK TFLOPS\tMEM GB\tMEM BW GB/s\tSMs\tL2 MB")
	for _, g := range gpu.All() {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.0f\t%.0f\t%d\t%.0f\n",
			g.Name, g.Vendor, g.Year, g.PeakFLOPS, g.MemoryGB, g.MemoryBWGBs, g.SMs, g.L2CacheMB)
	}
	return w.Flush()
}

func listModels() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tYEAR\tPARAMS\tLAYERS\tHEADS\tHIDDEN\tSEQ LEN\tOOD DIMS")
	for _, c := range models.Table5() {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%v\n",
			c.Name, c.Year, c.ParamsDesc, c.Layers, c.Heads, c.Hidden, c.SeqLen, c.HasOODDims())
	}
	return w.Flush()
}

// listEngines builds the default engine registry (untrained — construction
// is cheap, training is not) and prints it alongside the catalog metadata.
func listEngines() error {
	reg := untrainedRegistry()
	catalog := map[string]predict.Info{}
	for _, info := range predict.Catalog() {
		catalog[info.Name] = info
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tSOURCE\tBATCH\tTRAINABLE\tDESCRIPTION")
	for _, name := range reg.List() {
		eng, err := reg.Get(name)
		if err != nil {
			return err
		}
		info := catalog[name]
		native := "sequential"
		if predict.NativeBatch(eng) {
			native = "native"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%v\t%s\n", name, info.Source, native, info.Trainable, info.Description)
	}
	return w.Flush()
}

// engineSpec is one row of the standard non-neusight engine wiring: how to
// construct the engine and how to prepare its training set. The neusight
// engine is special-cased everywhere — it wraps whichever core predictor
// the command loaded or trained.
type engineSpec struct {
	name  string
	build func() predict.Engine
	// prep trims the training set for engines with expensive fits; nil
	// means train on the full dataset. Consulted only for Trainable engines.
	prep func(ds *dataset.Dataset) *dataset.Dataset
}

// engineSpecs is the single name -> constructor table behind `engines`,
// `-engine` forecasts, and `serve -quick`: adding an engine here makes it
// listable, buildable, and servable at once instead of requiring four
// coordinated switch edits.
func engineSpecs() []engineSpec {
	cfg := quickDirectConfig()
	trCfg := cfg
	trCfg.Epochs = 8 // transformers train sample-by-sample; bound the budget
	return []engineSpec{
		{name: predict.EngineRoofline,
			build: func() predict.Engine { return predict.NewRooflineEngine() }},
		{name: predict.EngineGPUSim,
			build: func() predict.Engine { return predict.NewSimEngine(gpusim.New()) }},
		{name: predict.EngineHabitat,
			build: func() predict.Engine { return predict.NewHabitatEngine(baselines.NewHabitat(cfg, gpusim.New())) }},
		{name: predict.EngineLiRegression,
			build: func() predict.Engine { return predict.NewLiEngine(baselines.NewLiRegression()) }},
		{name: predict.EngineDirectMLP,
			build: func() predict.Engine { return predict.NewDirectMLPEngine(baselines.NewDirectMLP(cfg)) }},
		{name: predict.EngineDirectTransformer,
			build: func() predict.Engine {
				return predict.NewDirectTransformerEngine(baselines.NewDirectTransformer(trCfg, 2))
			},
			prep: func(ds *dataset.Dataset) *dataset.Dataset {
				if len(ds.Samples) > 1500 {
					return &dataset.Dataset{Samples: ds.Samples[:1500]}
				}
				return ds
			}},
	}
}

// findEngineSpec looks a standard engine up by name.
func findEngineSpec(name string) (engineSpec, bool) {
	for _, spec := range engineSpecs() {
		if spec.name == name {
			return spec, true
		}
	}
	return engineSpec{}, false
}

// trainEngineSpec fits a Trainable engine to ds, applying the spec's
// training-set preparation.
func trainEngineSpec(tr predict.Trainable, spec engineSpec, ds *dataset.Dataset) error {
	if spec.prep != nil {
		ds = spec.prep(ds)
	}
	return tr.Train(ds)
}

// untrainedRegistry registers one instance of every standard engine without
// training any of them — the registry shape `neusight engines` lists and
// the conformance suite checks.
func untrainedRegistry() *predict.Registry {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewCoreEngine(core.NewPredictor(core.DefaultConfig(), nil)))
	for _, spec := range engineSpecs() {
		reg.MustRegister(spec.build())
	}
	return reg
}

// quickDirectConfig sizes the in-process baseline training runs used by
// -engine forecasts and `serve -quick`.
func quickDirectConfig() baselines.DirectConfig {
	return baselines.DirectConfig{Hidden: 32, Layers: 2, Epochs: 20, BatchSize: 128, LR: 3e-3, Seed: 7}
}

func train(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dataPath := fs.String("data", "", "dataset CSV produced by datagen")
	outPath := fs.String("out", "neusight-model.json", "output predictor path")
	tilePath := fs.String("tiles", "tiles.json", "tile database path (read if present, else rebuilt)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("train: -data is required")
	}
	ds, err := dataset.LoadCSV(*dataPath)
	if err != nil {
		return err
	}
	tdb, err := tile.LoadDB(*tilePath)
	if err != nil {
		// Rebuild the tile database from the dataset's recorded tiles.
		tdb = tile.NewDB()
		for _, s := range ds.Samples {
			tdb.Add(s.Kernel, s.GPU, s.Tile)
		}
		if err := tdb.Save(*tilePath); err != nil {
			return err
		}
	}
	p := core.NewPredictor(core.DefaultConfig(), tdb)
	rep := p.Train(ds)
	for cat, l := range rep.FinalLoss {
		fmt.Printf("trained %-8v on %6d samples, final SMAPE %.3f\n", cat, rep.Samples[cat], l)
	}
	return p.Save(*outPath)
}

func predictCmd(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	modelPath := fs.String("model", "neusight-model.json", "trained predictor path")
	tilePath := fs.String("tiles", "tiles.json", "tile database path")
	workload := fs.String("workload", "GPT3-XL", "workload name (see list-models)")
	gpuName := fs.String("gpu", "H100", "target GPU (see list-gpus)")
	batch := fs.Int("batch", 2, "batch size")
	trainMode := fs.Bool("train", false, "forecast a training iteration instead of inference")
	fused := fs.Bool("fused", false, "apply the operator-fusion pass first")
	breakdown := fs.Bool("breakdown", false, "print per-category and per-kernel breakdown")
	engineName := fs.String("engine", predict.EngineNeuSight,
		"prediction engine (see `neusight engines`); trainable non-neusight engines are fitted in-process on simulated profiling data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineName != predict.EngineNeuSight {
		eng, err := buildAltEngine(*engineName)
		if err != nil {
			return err
		}
		return forecastEngine(eng, *workload, *gpuName, *batch, *trainMode, *fused, *breakdown)
	}
	tdb, err := tile.LoadDB(*tilePath)
	if err != nil {
		return err
	}
	p, err := core.Load(*modelPath, tdb)
	if err != nil {
		return err
	}
	return forecastOpts(p, *workload, *gpuName, *batch, *trainMode, *fused, *breakdown)
}

func quick(args []string) error {
	fs := flag.NewFlagSet("quick", flag.ExitOnError)
	workload := fs.String("workload", "GPT3-XL", "workload name (see list-models)")
	gpuName := fs.String("gpu", "H100", "target GPU (see list-gpus)")
	batch := fs.Int("batch", 2, "batch size")
	trainMode := fs.Bool("train", false, "forecast a training iteration instead of inference")
	fused := fs.Bool("fused", false, "apply the operator-fusion pass first")
	engineName := fs.String("engine", predict.EngineNeuSight, "prediction engine (see `neusight engines`)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineName != predict.EngineNeuSight {
		eng, err := buildAltEngine(*engineName)
		if err != nil {
			return err
		}
		return forecastEngine(eng, *workload, *gpuName, *batch, *trainMode, *fused, false)
	}
	fmt.Println("profiling simulated training GPUs and training a reduced predictor...")
	return forecast(quickPredictor(), *workload, *gpuName, *batch, *trainMode, *fused)
}

// quickDataset profiles the simulated training GPUs into a reduced dataset
// — the shared input of every in-process engine training.
func quickDataset() (*dataset.Dataset, *tile.DB) {
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 42, BMM: 300, FC: 150, EW: 120, Softmax: 60, LN: 60,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	return ds, tdb
}

// quickCoreConfig sizes the reduced in-process NeuSight training run —
// the one configuration behind both `quick` and `serve -quick`.
func quickCoreConfig() core.Config {
	return core.Config{Hidden: 48, Layers: 3, Epochs: 40, BatchSize: 256, LR: 3e-3, WeightDecay: 1e-4, Seed: 42}
}

// quickPredictor profiles the simulated training GPUs and trains a reduced
// in-process predictor — shared by the quick and serve subcommands.
func quickPredictor() *core.Predictor {
	ds, tdb := quickDataset()
	p := core.NewPredictor(quickCoreConfig(), tdb)
	p.Train(ds)
	return p
}

// buildAltEngine constructs a non-default engine for a one-off CLI
// forecast. The analytical and simulator engines are free; the trainable
// baselines are fitted to an in-process generated dataset first (they have
// no on-disk format — they exist for comparison, not production serving).
func buildAltEngine(name string) (predict.Engine, error) {
	for _, spec := range engineSpecs() {
		if spec.name != name {
			continue
		}
		eng := spec.build()
		tr, ok := eng.(predict.Trainable)
		if !ok {
			return eng, nil
		}
		fmt.Printf("training engine %s on simulated profiling data...\n", name)
		ds, _ := quickDataset()
		return eng, trainEngineSpec(tr, spec, ds)
	}
	return nil, fmt.Errorf("unknown engine %q (see `neusight engines`)", name)
}

// serveCmd runs the multi-engine HTTP prediction service around either a
// predictor saved by train (-model/-tiles) or a reduced one trained
// in-process (-quick). The registry always carries the neusight, roofline,
// and gpusim engines; -quick additionally trains the comparison baselines
// (habitat, liregression, direct-mlp, direct-transformer) on the generated
// dataset so every engine of the standard set is routable via /v2.
//
// -shards (default one) partitions traffic by (engine, GPU) onto that many
// shards, each with -cache entries, an even share of -workers and a
// -shard-queue bound past which it answers 503; -warmup replays a workload
// trace into the caches before the listener opens, and -trace-record
// appends the served keys to one for the next restart. SIGINT/SIGTERM
// trigger a graceful shutdown: the listener closes immediately, in-flight
// requests drain up to -drain, then the process exits cleanly (flushing
// the trace, if recording).
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	modelPath := fs.String("model", "", "trained predictor path (from `neusight train`)")
	tilePath := fs.String("tiles", "tiles.json", "tile database path")
	quickTrain := fs.Bool("quick", false, "train a reduced predictor in-process instead of loading one")
	cacheSize := fs.Int("cache", serve.DefaultCacheSize, "prediction LRU cache entries per shard, shared by the engines routed there (negative disables)")
	workers := fs.Int("workers", 0, "max concurrent backend predictions, split evenly across the shards, at least one each (0 = GOMAXPROCS)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	shards := fs.Int("shards", 0, "shard traffic by (engine, GPU) onto this many shards, each with its own cache, worker pool and queue (0 or 1 = one shard)")
	shardQueue := fs.Int("shard-queue", 0, fmt.Sprintf("per-shard in-flight request bound before 503 backpressure (0 = %d, negative = unbounded)", serve.DefaultShardQueue))
	tracePath := fs.String("trace-record", "", "append served (kernel, GPU, engine) keys to this JSONL workload trace")
	warmupPath := fs.String("warmup", "", "replay this workload trace to warm caches before accepting traffic")
	traceCompact := fs.Int("trace-compact", 0, "age out trace keys not requested within the last K replays (0 = off; requires -trace-record)")
	engineList := fs.String("engines", "", "serve only these non-trainable engines, comma-separated (no -model/-quick needed; e.g. roofline,gpusim)")
	peers := fs.String("peers", "", "comma-separated addresses of peer serve processes forming a cluster")
	join := fs.String("join", "", "join a running cluster by announcing this process to the given member address")
	steer := fs.String("steer", cluster.SteerRedirect, "cluster steering for requests owned by a peer: redirect (307), proxy (transparent), or off")
	advertise := fs.String("advertise", "", "address peers reach this process at (default: -addr with an empty host replaced by 127.0.0.1)")
	clusterListen := fs.String("cluster-listen", "", "optional extra listener serving only the cluster control routes (/v2/cluster/*)")
	clusterToken := fs.String("cluster-token", "", "shared bearer token required on all /v2/cluster/* control routes (every member must use the same one)")
	healthInterval := fs.Duration("health-interval", 0, "cluster health-sweep cadence driving the suspect/dead failure detector (0 = default 1s)")
	observeFlag := fs.Bool("observe", false, "accept measured kernel latencies on POST /v2/observe and track prediction drift (retrainable engines background-retrain past -drift-threshold)")
	driftThreshold := fs.Float64("drift-threshold", observe.DefaultThreshold, "rolling-MAPE level above which a retrainable engine recalibrates from observations (requires -observe)")
	observeStore := fs.String("observe-store", "", "persist observations to this bounded JSONL store, replayed into drift windows on restart (requires -observe)")
	observeCap := fs.Int("observe-cap", 0, fmt.Sprintf("observation store capacity in records, oldest evicted (0 = default %d; requires -observe-store)", observe.DefaultStoreCap))
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
	if !*observeFlag && (*observeStore != "" || *driftThreshold != observe.DefaultThreshold) {
		return fmt.Errorf("serve: -observe-store and -drift-threshold require -observe")
	}
	if *driftThreshold <= 0 {
		return fmt.Errorf("serve: -drift-threshold must be positive, got %v", *driftThreshold)
	}
	if *observeCap != 0 && *observeStore == "" {
		return fmt.Errorf("serve: -observe-cap requires -observe-store")
	}
	if *observeCap < 0 {
		return fmt.Errorf("serve: -observe-cap must be >= 0, got %d", *observeCap)
	}
	clustered := *peers != "" || *join != ""
	if (*clusterListen != "" || *advertise != "" || *clusterToken != "" || *healthInterval != 0) && !clustered {
		return fmt.Errorf("serve: -cluster-listen, -advertise, -cluster-token, and -health-interval require -peers or -join")
	}
	// Validate -steer before the expensive model loading/training below: a
	// typo'd mode must fail in milliseconds, not after a -quick train.
	switch *steer {
	case cluster.SteerRedirect, cluster.SteerProxy, cluster.SteerOff:
	default:
		return fmt.Errorf("serve: unknown -steer mode %q (want %s, %s, or %s)",
			*steer, cluster.SteerRedirect, cluster.SteerProxy, cluster.SteerOff)
	}
	if *steer != cluster.SteerRedirect && !clustered {
		return fmt.Errorf("serve: -steer requires -peers or -join")
	}
	reg := predict.NewRegistry()
	defaultEngine := predict.EngineNeuSight
	// baseDS is the -quick run's generated dataset, retained so calibration
	// retrains keep the offline distribution under the folded observations
	// (nil for -model and -engines: calibration then trains on observations
	// alone).
	var baseDS *dataset.Dataset
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
		var p *core.Predictor
		var ds *dataset.Dataset
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
			p, err = core.Load(*modelPath, tdb)
			if err != nil {
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
		baseDS = ds
	}
	svc := serve.NewMulti(reg, defaultEngine, serve.Config{
		CacheSize: *cacheSize, Workers: *workers,
		Shards: *shards, ShardQueue: *shardQueue,
	})
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
		ocfg := observe.Config{Threshold: *driftThreshold}
		if *observeStore != "" {
			st, err := observe.OpenStore(*observeStore, *observeCap)
			if err != nil {
				return err
			}
			ocfg.Store = st
		}
		mon := observe.NewMonitor(ocfg, func(ctx context.Context, engine string, k kernels.Kernel, g gpu.Spec) (float64, error) {
			res, err := svc.PredictKernelEngine(ctx, engine, k, g)
			return res.Latency, err
		})
		// Engines that can fold observations back in AND version their state
		// get a retrainer: a recalibration must bump the generation, or the
		// serving caches (local and cluster-wide, via gossip) would keep
		// answering from the pre-retrain model. Everything else is tracked
		// alert-only.
		for _, name := range reg.List() {
			eng, err := reg.Get(name)
			if err != nil {
				continue
			}
			cal, ok := eng.(predict.Calibrator)
			if !ok {
				continue
			}
			if _, ok := eng.(predict.Generational); !ok {
				continue
			}
			mon.RegisterRetrainer(name, func(calib []dataset.Sample) (uint64, error) {
				if err := cal.Calibrate(baseDS, calib); err != nil {
					return predict.Generation(eng), err
				}
				return predict.Generation(eng), nil
			})
		}
		if ocfg.Store != nil {
			replayed, skipped := mon.ReplayStore(context.Background())
			fmt.Printf("observe: store %s, %d persisted observations replayed (%d skipped)\n",
				*observeStore, replayed, skipped)
		}
		svc.SetObserver(mon)
		defer func() {
			if err := mon.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "neusight: closing observation store: %v\n", err)
			}
		}()
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
		if *join != "" {
			// Join before the listener opens: the seed hands back the
			// membership and generation views, and the trace warmup below
			// primes the shards this member is about to own — its first
			// steered request should be a cache hit, not a cold model run.
			if err := node.Join(context.Background(), *join); err != nil {
				return err
			}
			warmed, skipped, werr := node.WarmFromOwners(context.Background())
			if werr != nil {
				fmt.Fprintf(os.Stderr, "neusight: join warmup: %v\n", werr)
			}
			fmt.Printf("joined cluster via %s: members [%s], %d forecasts warmed (%d peers skipped)\n",
				*join, strings.Join(node.Members(), " "), warmed, skipped)
		}
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
	fmt.Printf("serving engines [%s] on %s, default %s (shards %d, cache %d entries/shard)\n",
		strings.Join(reg.List(), " "), ln.Addr(), svc.DefaultEngine(), svc.NumShards(), *cacheSize)
	fmt.Println("endpoints: POST /v2/predict/kernel|batch|graph (per-request \"engine\")  GET /v2/engines  GET /v2/stats")
	fmt.Println("           POST /v1/predict/kernel|batch|graph (default engine)  GET /v1/healthz  GET /v1/stats  GET /metrics")
	fmt.Println("           POST|GET /v2/plan (what-if capacity sweeps)  GET|POST|DELETE /v2/plan/{id} (poll, resume, cancel)")
	if *observeFlag {
		fmt.Println("           POST /v2/observe (measured latencies -> drift detection)")
	}
	if node != nil {
		fmt.Println("           GET|POST /v2/cluster/generations (gossip)  GET /v2/cluster/ring (assignments)")
		fmt.Println("           GET /v2/cluster/health (failure detector)  POST /v2/cluster/join  GET /v2/cluster/trace")
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

func forecast(p *core.Predictor, workload, gpuName string, batch int, trainMode, fused bool) error {
	return forecastOpts(p, workload, gpuName, batch, trainMode, fused, false)
}

func forecastOpts(p *core.Predictor, workload, gpuName string, batch int, trainMode, fused, breakdown bool) error {
	return forecastEngine(predict.NewCoreEngine(p), workload, gpuName, batch, trainMode, fused, breakdown)
}

// forecastEngine forecasts a registered workload with any engine. Engines
// with a whole-graph path (neusight) use it; others sum their per-kernel
// batch forecasts with the memory-bound fallback for operators the engine
// cannot model — the same aggregation the experiment harness applies.
func forecastEngine(eng predict.Engine, workload, gpuName string, batch int, trainMode, fused, breakdown bool) error {
	m, err := models.Lookup(workload)
	if err != nil {
		return err
	}
	g, err := gpu.Lookup(gpuName)
	if err != nil {
		return err
	}
	gr := m.InferenceGraph(batch)
	mode := "inference (first token)"
	if trainMode {
		gr = m.TrainingGraph(batch)
		mode = "training iteration (fwd+bwd)"
	}
	if fused {
		gr = graph.Fuse(gr)
		mode += ", fused"
	}
	ctx := context.Background()
	var lat float64
	var rep core.GraphReport
	if gp, ok := eng.(predict.GraphPredictor); ok {
		lat, rep, _ = gp.PredictGraph(ctx, gr, g)
	} else {
		lat, rep, _ = predict.PredictGraphKernels(ctx, eng, gr.Kernels(), g)
	}
	fmt.Printf("%s on %s, batch %d, %s\n", m.Name, g.Name, batch, mode)
	fmt.Printf("engine: %s\n", eng.Name())
	fmt.Printf("kernels: %d   total FLOPs: %.3g   predicted latency: %.1f ms\n",
		len(gr.Nodes), gr.TotalFLOPs(), lat)
	if rep.Fallbacks > 0 {
		fmt.Printf("note: %d kernels outside the engine's coverage used the memory-bound estimate\n", rep.Fallbacks)
	}
	if !m.FitsInMemory(batch, g, trainMode) {
		fmt.Printf("warning: estimated footprint %.1f GB exceeds %s memory (%.0f GB) — real execution would OOM\n",
			m.MemoryBytes(batch, trainMode)/1e9, g.Name, g.MemoryGB)
	}
	if breakdown {
		b := report.Analyze(gr, func(k kernels.Kernel) float64 {
			res, err := eng.PredictKernel(ctx, predict.Request{Kernel: k, GPU: g})
			if err != nil {
				return core.MemBoundLatency(k, g)
			}
			return res.Latency
		}, 8)
		fmt.Println()
		fmt.Print(b.Render())
	}
	return nil
}
