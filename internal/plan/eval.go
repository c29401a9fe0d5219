package plan

import (
	"context"
	"fmt"

	"neusight/internal/core"
	"neusight/internal/distributed"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/network"
	"neusight/internal/predict"
)

// refServer is the in-hand reference system whose measured link
// utilization calibrates the predictor-side link model — the paper's
// methodology: measure one system you own, apply the utilization to the
// peak bandwidth of systems you don't.
const refServer = "A100x4-NVLink"

// linkModel is the calibrated intra-server link model shared by every
// cell. Calibration is deterministic (the simulator's hidden efficiencies
// are name-hashed), so this is a constant, not per-job state.
var linkModel = network.Calibrate(network.NewSim(), gpu.MustLookupServer(refServer))

// interTree prices the inter-node gradient all-reduce for multi-server
// fleets: the paper's Table 9 fat-tree at the calibrated utilization.
var interTree = network.Table9Hierarchy(linkModel.Util)

// hourlyUSD approximates on-demand cloud $/h per GPU for the registered
// devices. Absolute accuracy is not the point — the planner ranks
// configurations against each other, so only relative prices matter.
var hourlyUSD = map[string]float64{
	"P4":        0.60,
	"P100":      1.46,
	"V100":      2.48,
	"T4":        0.35,
	"A100-40GB": 2.93,
	"A100-80GB": 3.67,
	"L4":        0.81,
	"H100":      6.98,
	"B200":      11.00,
	"MI100":     2.10,
	"MI210":     2.60,
	"MI250":     3.20,
}

// gpuHourlyUSD returns the device's $/h: the table entry, or a
// matrix-peak-scaled estimate for devices the table does not list (new
// specs registered after this table was written).
func gpuHourlyUSD(g gpu.Spec) float64 {
	if usd, ok := hourlyUSD[g.Name]; ok {
		return usd
	}
	usd := 0.008 * g.PeakFLOPSFor(true)
	if usd < 0.30 {
		usd = 0.30
	}
	return usd
}

// serverFor synthesizes the server shape a cell is priced on: n identical
// devices of g behind the interconnect the vendor ships for that class —
// DGX-style switch fabric at 900 GB/s for recent datacenter NVIDIA parts,
// a 600 GB/s NVLink mesh for the A100 generation, 300 GB/s for everything
// older or non-NVIDIA.
func serverFor(g gpu.Spec, n int) gpu.ServerSpec {
	link, interconn := 300.0, "NVLink"
	if g.Vendor == gpu.NVIDIA && g.Year >= 2022 {
		link, interconn = 900, "DGX"
	} else if g.Year >= 2020 {
		link = 600
	}
	return gpu.ServerSpec{
		Name:        fmt.Sprintf("%sx%d-%s", g.Name, n, interconn),
		GPU:         g,
		NumGPUs:     n,
		LinkBWGBs:   link,
		Interconn:   interconn,
		NodeNICGbps: 100,
	}
}

// strategyOf maps a spec strategy string onto the distributed enum.
func strategyOf(s string) (distributed.Strategy, error) {
	switch s {
	case StrategyDP:
		return distributed.DataParallel, nil
	case StrategyTP:
		return distributed.TensorParallel, nil
	case StrategyPP:
		return distributed.PipelineParallel, nil
	default:
		return 0, fmt.Errorf("plan: unknown strategy %q", s)
	}
}

// Evaluate prices one matrix cell with eng. Cell-level problems (a
// strategy the batch cannot satisfy, an engine that rejects the GPU) land
// in Result.Error — the cell is evaluated, just unrankable. The returned
// error is non-nil only for context cancellation, in which case the cell
// must NOT be recorded: it stays pending so a resume re-evaluates it.
//
// The evaluation is two passes through the same distributed schedule so
// that plan results agree exactly with the direct batch path: pass one
// walks the schedule with a recording latency function to discover the
// unique compute kernels, one PredictKernels round prices them all, and
// pass two re-walks the schedule reading the memo. Kernels the engine
// cannot price fall back to the memory-bound estimate (counted in
// Fallbacks), mirroring core.FoldPredictions.
func Evaluate(ctx context.Context, eng predict.Engine, spec Spec, cfg Config) (Result, error) {
	res := Result{Config: cfg}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	g, err := gpu.Lookup(cfg.GPU)
	if err != nil {
		res.Error = err.Error()
		return res, nil
	}
	mc, err := models.Lookup(spec.Model)
	if err != nil {
		res.Error = err.Error()
		return res, nil
	}
	strat, err := strategyOf(cfg.Strategy)
	if err != nil {
		res.Error = err.Error()
		return res, nil
	}
	srv := serverFor(g, spec.GPUsPerServer)
	res.Server = srv.Name
	dp := distributed.Plan{
		Model:        mc,
		GlobalBatch:  spec.GlobalBatch,
		Server:       srv,
		Strategy:     strat,
		Training:     spec.Training,
		MicroBatches: spec.MicroBatches,
	}

	// Pass 1: discover the unique compute kernels the schedule evaluates.
	// Every kernel of a cell runs on g, so the kernel's identity alone
	// keys the memo.
	var order []kernels.Kernel
	memo := map[kernels.Key]float64{}
	record := func(k kernels.Kernel) float64 {
		if k.Category() == kernels.CatNetwork {
			return 0
		}
		key := k.Key()
		if _, ok := memo[key]; !ok {
			memo[key] = 0
			order = append(order, k)
		}
		return 0
	}
	if _, err := distributed.Estimate(dp, record, linkModel); err != nil {
		res.Error = err.Error()
		return res, nil
	}

	// One batch round prices every unique kernel.
	reqs := make([]predict.Request, len(order))
	for i, k := range order {
		reqs[i] = predict.Request{Kernel: k, GPU: g}
	}
	outs := eng.PredictKernels(ctx, reqs)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	for i, out := range outs {
		lat := out.Result.Latency
		if out.Err != nil {
			lat = core.MemBoundLatency(order[i], g)
			res.Fallbacks++
		}
		memo[order[i].Key()] = lat
	}

	// Pass 2: re-walk the same schedule reading the memo.
	lookup := func(k kernels.Kernel) float64 {
		if k.Category() == kernels.CatNetwork {
			return 0
		}
		return memo[k.Key()]
	}
	f, err := distributed.Estimate(dp, lookup, linkModel)
	if err != nil {
		res.Error = err.Error()
		return res, nil
	}
	res.IterationMs, res.ComputeMs, res.NetworkMs = f.TotalMs, f.ComputeMs, f.NetworkMs

	// Fleet scaling. Inference fleets are embarrassingly parallel — each
	// server sustains its own stream. Training fleets are data parallel
	// across servers: every iteration adds an inter-node gradient
	// all-reduce over the fat-tree, sized by the per-GPU parameter shard
	// (full under dp, 1/n under tp and pp).
	if cfg.Fleet > 1 && spec.Training {
		gradBytes := mc.NumParams() * 4
		if cfg.Strategy != StrategyDP {
			gradBytes /= float64(spec.GPUsPerServer)
		}
		inter := interTree.AllReduceMs(gradBytes, cfg.Fleet)
		res.IterationMs += inter
		res.NetworkMs += inter
	}
	if res.IterationMs > 0 {
		res.ThroughputRPS = float64(spec.GlobalBatch*cfg.Fleet) * 1e3 / res.IterationMs
	}

	// Per-GPU working set: dp shards the batch, tp and pp shard the model.
	perGPUBytes := 0.0
	switch cfg.Strategy {
	case StrategyDP:
		perGPUBytes = mc.MemoryBytes(spec.GlobalBatch/spec.GPUsPerServer, spec.Training)
	default:
		perGPUBytes = mc.MemoryBytes(spec.GlobalBatch, spec.Training) / float64(spec.GPUsPerServer)
	}
	res.FitsMemory = perGPUBytes <= g.MemoryGB*1e9*0.92

	res.CostPerHour = float64(cfg.Fleet*spec.GPUsPerServer) * gpuHourlyUSD(g)
	if res.CostPerHour > 0 {
		res.ThroughputPerCost = res.ThroughputRPS / res.CostPerHour
	}
	res.MeetsTraffic = spec.TrafficRPS == 0 || res.ThroughputRPS >= spec.TrafficRPS
	return res, nil
}

// EvaluateBatch prices cfgs sequentially with eng, stopping at context
// cancellation: the returned slice holds the cells evaluated before the
// cut, err reports why the batch is short. The cluster's remote-eval
// handler and the job manager's local path both call this, which is what
// keeps fan-out results byte-identical to local evaluation.
func EvaluateBatch(ctx context.Context, eng predict.Engine, spec Spec, cfgs []Config) ([]Result, error) {
	out := make([]Result, 0, len(cfgs))
	for _, cfg := range cfgs {
		res, err := Evaluate(ctx, eng, spec, cfg)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
