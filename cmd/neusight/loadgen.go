package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"neusight/internal/cluster"
	"neusight/internal/gpusim"
	"neusight/internal/loadgen"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// loadgenCmd drives the open-loop load harness against a prediction
// service: either an external one (-target URL) or one it boots in-process
// on a loopback port (-self roofline|quick) so capacity can be measured
// with a single command and no background process management — which is
// how the scripts/check.sh smoke sweeps use it.
//
// Two modes: -rate/-duration offers one fixed-rate step; -sweep
// "start:step:max" walks the offered rate up until an SLO breach
// (-slo-p99 / -slo-errors) and reports the knee — the highest rate the
// service sustained within SLO. Either way the result is one
// machine-readable JSON report (stdout, or -out).
//
// Cluster mode (-cluster, or -self-cluster N which boots N in-process
// members) discovers the membership from any seed's GET /v2/cluster/ring,
// fans the offered stream across every live member (-cluster-split), and
// aggregates per-member results into one cluster-wide report whose sweep
// finds the *cluster* knee. -fault kills a chosen member at a chosen
// sweep step so the report captures the error spike, the failover window,
// and the recovery.
func loadgenCmd(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	target := fs.String("target", "", "base URL of the service under test (e.g. http://127.0.0.1:8080)")
	self := fs.String("self", "", "serve an in-process target instead of -target: roofline (analytical, instant) or quick (trains the reduced neusight predictor first)")
	shards := fs.Int("shards", 0, "-self only: shard traffic by (engine, GPU) onto this many shards (0 or 1 = one shard)")
	shardQueue := fs.Int("shard-queue", 0, "-self only: per-shard in-flight bound before 503 backpressure (0 = default, negative = unbounded)")
	workers := fs.Int("workers", 0, "-self only: max concurrent backend predictions, split evenly across the shards (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", serve.DefaultCacheSize, "-self only: prediction LRU cache entries per shard (negative disables)")

	clusterMode := fs.Bool("cluster", false, "treat -target as cluster seed URL(s), comma-separated: discover members via GET /v2/cluster/ring and fan the offered stream across all of them")
	selfCluster := fs.Int("self-cluster", 0, "boot this many in-process cluster members as the target (needs -self for the engine mode; implies -cluster)")
	steer := fs.String("steer", cluster.SteerRedirect, "-self-cluster only: members' steering mode (redirect, proxy, off)")
	refreshRing := fs.Duration("refresh-ring", 0, "cluster: minimum ring-view age before it is re-fetched at a step boundary (0 = refresh before every step, tracking evictions and joins)")
	clusterToken := fs.String("cluster-token", "", "cluster: bearer token for the members' /v2/cluster control plane")
	clusterSplit := fs.String("cluster-split", loadgen.SplitOwnership, "cluster: how the stream splits across members — ownership (route each request to its shard owner) or uniform (equal shares; steering carries misplaced requests)")
	fault := fs.String("fault", "", `cluster sweep fault injection: "step=2" (self-cluster: auto-picks a victim), "step=2,member=host:port", or "step=2,member=host:port,pid=1234" (external cluster: SIGKILLs the pid)`)

	arrival := fs.String("arrival", loadgen.ArrivalPoisson, "arrival process: poisson or bursty")
	burstOn := fs.Duration("burst-on", 20*time.Millisecond, "bursty: on-window length")
	burstOff := fs.Duration("burst-off", 80*time.Millisecond, "bursty: off-window length")
	seed := fs.Int64("seed", 1, "arrival-process and scenario seed (fixed seed = reproducible run)")

	rate := fs.Float64("rate", 0, "fixed mode: offered rate in requests/second")
	duration := fs.Duration("duration", 10*time.Second, "fixed mode: step length")
	sweep := fs.String("sweep", "", `sweep mode: "start:step:max" offered-rate schedule (requests/second)`)
	stepDuration := fs.Duration("step-duration", 2*time.Second, "sweep: hold time per step")
	cooldown := fs.Duration("cooldown", 200*time.Millisecond, "sweep: pause between steps so backlog drains")
	sloP99 := fs.Float64("slo-p99", 0, "sweep SLO: breach when p99 latency exceeds this many milliseconds (0 = off)")
	sloErrors := fs.Float64("slo-errors", 0.01, "sweep SLO: breach when the error/503/drop rate exceeds this fraction (0 = off)")

	mix := fs.String("mix", "kernel=1", `request mix, e.g. "kernel=0.7,batch=0.2,graph=0.1"`)
	modelList := fs.String("models", "BERT-Large", "comma-separated workload names spanning the scenario (see list-models)")
	gpuList := fs.String("gpus", "H100,V100", "comma-separated GPU names spanning the scenario (see list-gpus)")
	batchSize := fs.Int("batch-size", 32, "kernels per batch request in the mix")
	graphBatch := fs.Int("graph-batch", 2, "workload batch size of graph requests in the mix")
	poolSize := fs.Int("pool", 512, "distinct pre-encoded requests in the scenario pool")
	engine := fs.String("engine", "", "per-request /v2 engine name (empty = server default)")
	tracePath := fs.String("trace", "", "replay this recorded workload trace instead of a generated mix")

	observeFeedback := fs.Bool("observe-feedback", false, "report each successful kernel request's measured latency back via POST /v2/observe after every step (target must run with -observe)")
	maxInFlight := fs.Int("max-inflight", 0, "cap on outstanding requests; arrivals past it are shed as drops (0 = default, negative = unbounded)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout; a timed-out request counts as errored")
	outPath := fs.String("out", "", "write the JSON report here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if (*target == "") == (*self == "") {
		return fmt.Errorf("loadgen: pass exactly one of -target or -self")
	}
	if *sweep == "" && *rate <= 0 {
		return fmt.Errorf("loadgen: pass -sweep start:step:max or a positive -rate")
	}
	if *sweep != "" && *rate > 0 {
		return fmt.Errorf("loadgen: -sweep and -rate are mutually exclusive")
	}
	if *selfCluster > 0 {
		if *self == "" {
			return fmt.Errorf("loadgen: -self-cluster needs -self roofline|quick for the member engine")
		}
		if *selfCluster < 2 {
			return fmt.Errorf("loadgen: -self-cluster wants at least 2 members")
		}
	}
	inCluster := *clusterMode || *selfCluster > 0
	if *fault != "" && (!inCluster || *sweep == "") {
		return fmt.Errorf("loadgen: -fault needs a cluster sweep (-cluster or -self-cluster, with -sweep)")
	}

	spec := loadgen.ArrivalSpec{Process: *arrival, Seed: *seed}
	if *arrival == loadgen.ArrivalBursty {
		spec.On, spec.Off = *burstOn, *burstOff
	}

	scenario, err := buildScenario(*tracePath, *mix, *modelList, *gpuList, *engine, *batchSize, *graphBatch, *poolSize, *seed)
	if err != nil {
		return err
	}

	svcCfg := serve.Config{
		CacheSize: *cacheSize, Workers: *workers,
		Shards: *shards, ShardQueue: *shardQueue,
	}
	var (
		baseURL    string
		seeds      []string
		killMember func(string) error
	)
	switch {
	case *selfCluster > 0:
		stop, ss, kill, err := startSelfCluster(*self, *selfCluster, *steer, svcCfg)
		if err != nil {
			return err
		}
		defer stop()
		seeds, killMember = ss, kill
		fmt.Fprintf(os.Stderr, "loadgen: self-serving a %d-member %s cluster (%s steering) on %s\n",
			*selfCluster, *self, *steer, strings.Join(seeds, ", "))
	case inCluster:
		seeds = splitPeers(*target)
	case *self != "":
		stop, url, err := startSelfTarget(*self, svcCfg)
		if err != nil {
			return err
		}
		defer stop()
		baseURL = url
		fmt.Fprintf(os.Stderr, "loadgen: self-serving %s target on %s\n", *self, url)
	default:
		baseURL = *target
	}

	runCfg := loadgen.RunConfig{
		Arrival:         spec,
		Scenario:        scenario,
		MaxInFlight:     *maxInFlight,
		Timeout:         *timeout,
		ObserveFeedback: *observeFeedback,
	}
	report := loadgen.Report{
		Kind:     loadgen.ReportKind,
		Target:   baseURL,
		Scenario: scenario.Name,
		Arrival:  spec,
	}
	if inCluster {
		report.Target = strings.Join(seeds, ",")
	}

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	if inCluster {
		return runClusterLoad(ctx, clusterLoadConfig{
			seeds: seeds, token: *clusterToken, split: *clusterSplit,
			refresh: *refreshRing, maxConns: *maxInFlight,
			sweep: *sweep, stepDur: *stepDuration, cooldown: *cooldown,
			sloP99: *sloP99, sloErrors: *sloErrors,
			rate: *rate, duration: *duration,
			fault: *fault, killMember: killMember,
			run: runCfg, report: report, outPath: *outPath,
		})
	}

	tgt := loadgen.NewTarget(baseURL, *maxInFlight)
	defer tgt.Client.CloseIdleConnections()

	if *sweep != "" {
		start, step, max, err := parseSweep(*sweep)
		if err != nil {
			return err
		}
		slo := loadgen.SLO{P99Ms: *sloP99, MaxErrorRate: *sloErrors}
		report.SLO = &slo
		fmt.Fprintf(os.Stderr, "loadgen: sweeping %g -> %g/s in steps of %g (%v per step) against %s\n",
			start, max, step, *stepDuration, baseURL)
		res, err := loadgen.Sweep(ctx, tgt, loadgen.SweepConfig{
			Start: start, Step: step, Max: max,
			StepDuration: *stepDuration,
			Cooldown:     *cooldown,
			SLO:          slo,
			Run:          runCfg,
		})
		if err != nil {
			return err
		}
		report.Sweep = &res
		for _, s := range res.Steps {
			fmt.Fprintf(os.Stderr, "  %8.0f/s offered: %7.1f/s achieved, p50 %.3fms p99 %.3fms p999 %.3fms, errors %.4f\n",
				s.OfferedRate, s.AchievedRate, s.P50Ms, s.P99Ms, s.P999Ms, s.ErrorRate)
		}
		switch {
		case res.Knee != nil:
			fmt.Fprintf(os.Stderr, "loadgen: knee at %g/s (p99 %.3fms, errors %.4f)",
				res.Knee.OfferedRate, res.Knee.P99Ms, res.Knee.ErrorRate)
			if res.Breached {
				fmt.Fprintf(os.Stderr, "; next step breached: %s\n", res.BreachReason)
			} else {
				fmt.Fprintf(os.Stderr, "; SLO held to the sweep ceiling — the true knee is at or above %g/s\n", max)
			}
		default:
			fmt.Fprintf(os.Stderr, "loadgen: no knee — the first step already breached: %s\n", res.BreachReason)
		}
	} else {
		runCfg.Rate = *rate
		runCfg.Duration = *duration
		fmt.Fprintf(os.Stderr, "loadgen: offering %g/s for %v against %s\n", *rate, *duration, baseURL)
		res, err := loadgen.Run(ctx, tgt, runCfg)
		if err != nil {
			return err
		}
		report.Run = &res
		fmt.Fprintf(os.Stderr, "loadgen: %d sent, %d ok, %d rejected, %d errored, %d dropped; p50 %.3fms p99 %.3fms p999 %.3fms\n",
			res.Sent, res.Succeeded, res.Rejected, res.Errored, res.Dropped, res.P50Ms, res.P99Ms, res.P999Ms)
		if *observeFeedback {
			fmt.Fprintf(os.Stderr, "loadgen: fed back %d observations via /v2/observe (%d rejected)\n",
				res.Observed, res.ObserveRejected)
		}
	}

	return writeReport(report, *outPath)
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

// clusterLoadConfig carries the resolved cluster-mode flags into
// runClusterLoad.
type clusterLoadConfig struct {
	seeds      []string
	token      string
	split      string
	refresh    time.Duration
	maxConns   int
	sweep      string
	stepDur    time.Duration
	cooldown   time.Duration
	sloP99     float64
	sloErrors  float64
	rate       float64
	duration   time.Duration
	fault      string
	killMember func(string) error
	run        loadgen.RunConfig
	report     loadgen.Report
	outPath    string
}

// runClusterLoad is the cluster half of loadgenCmd: drive the discovered
// membership through one step or a sweep, narrate progress to stderr, and
// write the aggregated report.
func runClusterLoad(ctx context.Context, cfg clusterLoadConfig) error {
	drv, err := loadgen.NewClusterDriver(loadgen.ClusterConfig{
		Seeds: cfg.seeds, Token: cfg.token, Split: cfg.split,
		RefreshInterval: cfg.refresh, MaxConns: cfg.maxConns,
	})
	if err != nil {
		return err
	}
	defer drv.Close()

	if cfg.sweep != "" {
		start, step, max, err := parseSweep(cfg.sweep)
		if err != nil {
			return err
		}
		slo := loadgen.SLO{P99Ms: cfg.sloP99, MaxErrorRate: cfg.sloErrors}
		cfg.report.SLO = &slo
		var plan *loadgen.FaultPlan
		if cfg.fault != "" {
			fstep, fmember, fpid, err := parseFault(cfg.fault)
			if err != nil {
				return err
			}
			kill := cfg.killMember
			if kill == nil {
				if fpid <= 0 {
					return fmt.Errorf("loadgen: -fault against an external cluster needs pid=<pid> to SIGKILL")
				}
				kill = func(string) error { return syscall.Kill(fpid, syscall.SIGKILL) }
			}
			plan = &loadgen.FaultPlan{Step: fstep, Member: fmember, Kill: kill}
		}
		fmt.Fprintf(os.Stderr, "loadgen: cluster-sweeping %g -> %g/s in steps of %g (%v per step) across %s\n",
			start, max, step, cfg.stepDur, cfg.report.Target)
		res, err := drv.ClusterSweep(ctx, loadgen.ClusterSweepConfig{
			Start: start, Step: step, Max: max,
			StepDuration: cfg.stepDur, Cooldown: cfg.cooldown,
			SLO: slo, Run: cfg.run, Fault: plan,
		})
		if err != nil {
			return err
		}
		cfg.report.ClusterSweep = &res
		for _, s := range res.Steps {
			loaded := 0
			for _, m := range s.Members {
				if m.Step != nil {
					loaded++
				}
			}
			note := ""
			if s.Fault != "" {
				note = "  [killed " + s.Fault + "]"
			}
			fmt.Fprintf(os.Stderr, "  %8.0f/s offered to %d members: %7.1f/s achieved, p50 %.3fms p99 %.3fms p999 %.3fms, errors %.4f%s\n",
				s.OfferedRate, loaded, s.AchievedRate, s.P50Ms, s.P99Ms, s.P999Ms, s.ErrorRate, note)
		}
		if res.Knee != nil {
			fmt.Fprintf(os.Stderr, "loadgen: cluster knee at %g/s (p99 %.3fms, errors %.4f)\n",
				res.Knee.OfferedRate, res.Knee.P99Ms, res.Knee.ErrorRate)
		} else {
			fmt.Fprintf(os.Stderr, "loadgen: no cluster knee — every step breached: %s\n", res.BreachReason)
		}
		if res.Fault != nil {
			fmt.Fprintf(os.Stderr, "loadgen: fault injected at step %d: killed %s\n", res.Fault.Step, res.Fault.Member)
		}
		for _, m := range res.Members {
			if m.State != cluster.MemberAlive {
				fmt.Fprintf(os.Stderr, "loadgen: member %s ended the sweep %s\n", m.Addr, m.State)
			}
		}
	} else {
		rc := cfg.run
		rc.Rate, rc.Duration = cfg.rate, cfg.duration
		fmt.Fprintf(os.Stderr, "loadgen: offering %g/s for %v across %s\n", cfg.rate, cfg.duration, cfg.report.Target)
		res, err := drv.ClusterStep(ctx, rc)
		if err != nil {
			return err
		}
		cfg.report.ClusterRun = &res
		fmt.Fprintf(os.Stderr, "loadgen: %d sent across %d members, %d ok, %d rejected, %d errored, %d dropped; p50 %.3fms p99 %.3fms p999 %.3fms\n",
			res.Sent, len(res.Members), res.Succeeded, res.Rejected, res.Errored, res.Dropped, res.P50Ms, res.P99Ms, res.P999Ms)
	}
	return writeReport(cfg.report, cfg.outPath)
}

// parseFault parses the -fault spec: comma-separated key=value pairs with
// keys step (1-based sweep step, required), member (address to kill), and
// pid (process to SIGKILL for external clusters).
func parseFault(s string) (step int, member string, pid int, err error) {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return 0, "", 0, fmt.Errorf("loadgen: fault entry %q is not key=value", part)
		}
		val = strings.TrimSpace(val)
		switch strings.TrimSpace(key) {
		case "step":
			v, perr := strconv.Atoi(val)
			if perr != nil || v < 1 {
				return 0, "", 0, fmt.Errorf("loadgen: fault step %q must be a positive integer", val)
			}
			step = v
		case "member":
			if val == "" {
				return 0, "", 0, fmt.Errorf("loadgen: fault member must not be empty")
			}
			member = val
		case "pid":
			v, perr := strconv.Atoi(val)
			if perr != nil || v <= 0 {
				return 0, "", 0, fmt.Errorf("loadgen: fault pid %q must be a positive integer", val)
			}
			pid = v
		default:
			return 0, "", 0, fmt.Errorf("loadgen: unknown fault key %q (want step, member, or pid)", key)
		}
	}
	if step < 1 {
		return 0, "", 0, fmt.Errorf("loadgen: fault spec %q needs step=<n>", s)
	}
	return step, member, pid, nil
}

// startSelfCluster boots n in-process cluster members wired all-to-all —
// a full local cluster behind one command, which is how the check.sh
// smoke sweep exercises cluster mode without managing processes. Returns a stop function, the member seed URLs, and
// a kill hook that tears one member down abruptly (listener, connections,
// and background loops) for -fault injection.
func startSelfCluster(mode string, n int, steer string, cfg serve.Config) (func(), []string, func(string) error, error) {
	newRegistry := func() (*predict.Registry, string) {
		reg := predict.NewRegistry()
		reg.MustRegister(predict.NewRooflineEngine())
		return reg, predict.EngineRoofline
	}
	switch mode {
	case "roofline":
	case "quick":
		fmt.Fprintln(os.Stderr, "loadgen: training a reduced in-process predictor for the cluster...")
		p := quickPredictor()
		newRegistry = func() (*predict.Registry, string) {
			reg := predict.NewRegistry()
			reg.MustRegister(predict.NewCoreEngine(p))
			reg.MustRegister(predict.NewRooflineEngine())
			reg.MustRegister(predict.NewSimEngine(gpusim.New()))
			return reg, predict.EngineNeuSight
		}
	default:
		return nil, nil, nil, fmt.Errorf("loadgen: unknown -self mode %q (want roofline or quick)", mode)
	}

	type member struct {
		addr string
		node *cluster.Node
		srv  *http.Server
		pm   *plan.Manager
	}
	members := make([]*member, 0, n)
	closeAll := func() {
		for _, m := range members {
			m.srv.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		reg, def := newRegistry()
		svc := serve.NewMulti(reg, def, cfg)
		node, err := cluster.NewNode(cluster.Config{
			Self:  ln.Addr().String(),
			Steer: steer,
			// Snappy failure detection: a local capacity sweep holds each
			// step for a second or two, so an injected kill must be
			// detected and failed over within a step, not the ~4s the
			// production defaults allow.
			PollInterval:   200 * time.Millisecond,
			HealthInterval: 200 * time.Millisecond,
			SuspectAfter:   1,
			DeadAfter:      2,
			Registry:       reg,
			DefaultEngine:  def,
			Invalidate:     svc.InvalidateEngine,
		})
		if err != nil {
			ln.Close()
			closeAll()
			return nil, nil, nil, err
		}
		// Every member gets an in-memory planner wired to the cluster's
		// fan-out hook, so a /v2/plan submitted to any member spreads its
		// configuration batches across all of them (scripts/plan_e2e.sh and
		// the --plan-sweep benchmark target this).
		pm, err := plan.NewManager("", planResolver(reg, def), plan.Options{})
		if err != nil {
			ln.Close()
			closeAll()
			return nil, nil, nil, err
		}
		pm.SetDispatcher(node.PlanDispatcher())
		svc.SetPlanner(pm)
		srv := &http.Server{Handler: node.Handler(serve.NewHandler(svc)), ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		members = append(members, &member{addr: ln.Addr().String(), node: node, srv: srv, pm: pm})
	}
	for i, m := range members {
		peers := make([]string, 0, n-1)
		for j, o := range members {
			if j != i {
				peers = append(peers, o.addr)
			}
		}
		m.node.SetPeers(peers)
		m.node.Start()
	}

	// Per-member idempotent teardown: the fault hook and the final stop
	// may both reach the same member (Node.Stop is once-only).
	kills := make(map[string]func(), n)
	seeds := make([]string, n)
	for i, m := range members {
		m := m
		var once sync.Once
		kills[m.addr] = func() {
			once.Do(func() {
				m.pm.Close()
				m.node.Stop()
				m.srv.Close()
			})
		}
		seeds[i] = "http://" + m.addr
	}
	stop := func() {
		for _, k := range kills {
			k()
		}
	}
	kill := func(addr string) error {
		k, ok := kills[addr]
		if !ok {
			return fmt.Errorf("loadgen: fault member %q is not one of the self-cluster members", addr)
		}
		k()
		return nil
	}
	return stop, seeds, kill, nil
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

// parseSweep parses the "start:step:max" offered-rate schedule.
func parseSweep(s string) (start, step, max float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf(`loadgen: -sweep wants "start:step:max", got %q`, s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, perr := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if perr != nil {
			return 0, 0, 0, fmt.Errorf("loadgen: -sweep field %q is not a number", p)
		}
		vals[i] = v
	}
	start, step, max = vals[0], vals[1], vals[2]
	if start <= 0 || step <= 0 || max < start {
		return 0, 0, 0, fmt.Errorf("loadgen: -sweep wants 0 < start <= max and step > 0, got %q", s)
	}
	return start, step, max, nil
}

// startSelfTarget boots an in-process prediction service on a loopback
// port and returns its base URL plus a stop function. The roofline mode is
// instant (analytical engine only); quick first trains the reduced
// neusight predictor the way `serve -quick` does, then serves it alongside
// the free engines.
func startSelfTarget(mode string, cfg serve.Config) (stop func(), baseURL string, err error) {
	reg := predict.NewRegistry()
	var def string
	switch mode {
	case "roofline":
		reg.MustRegister(predict.NewRooflineEngine())
		def = predict.EngineRoofline
	case "quick":
		fmt.Fprintln(os.Stderr, "loadgen: training a reduced in-process predictor...")
		p := quickPredictor()
		reg.MustRegister(predict.NewCoreEngine(p))
		reg.MustRegister(predict.NewRooflineEngine())
		reg.MustRegister(predict.NewSimEngine(gpusim.New()))
		def = predict.EngineNeuSight
	default:
		return nil, "", fmt.Errorf("loadgen: unknown -self mode %q (want roofline or quick)", mode)
	}
	svc := serve.NewMulti(reg, def, cfg)
	pm, err := plan.NewManager("", planResolver(reg, def), plan.Options{})
	if err != nil {
		return nil, "", err
	}
	svc.SetPlanner(pm)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: serve.NewHandler(svc), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return func() { pm.Close(); srv.Close() }, "http://" + ln.Addr().String(), nil
}
