// Package plan is the fleet planner: it answers "what hardware should I
// buy and how should I parallelize" as a first-class served workload
// instead of an offline paper-figure experiment. A PlanSpec declares a
// scenario space — one model, an offered traffic level, and a candidate
// matrix of GPUs x parallelism strategies x fleet sizes — which the
// planner expands into the full configuration cross-product and evaluates
// cell by cell through the existing prediction stack: every cell's
// per-kernel latencies come from one batched `predict.Engine.PredictKernels`
// round, the distributed layer stitches them into an iteration forecast
// under the cell's strategy, and the network layer prices the intra-server
// collectives plus the inter-node fat-tree all-reduce for multi-server
// fleets. Cells are ranked by predicted throughput per dollar.
//
// A full matrix is millions of kernel predictions, so plans run as
// resumable async jobs (job.go): progress checkpoints per evaluated
// configuration to a crash-safe JSONL file (checkpoint.go, on the shared
// internal/jsonl log), and configuration batches fan out across the cluster's
// shard owners through a Dispatcher the cluster layer implements — a
// killed member's pending batches are re-dispatched to the survivors, so
// the job completes with every cell evaluated exactly once.
package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"neusight/internal/gpu"
	"neusight/internal/models"
)

// Strategy names a Spec may list. They map onto the distributed layer's
// Strategy enum; the planner speaks strings because specs travel as JSON.
const (
	StrategyDP = "dp" // data parallel
	StrategyTP = "tp" // tensor model parallel (Megatron)
	StrategyPP = "pp" // pipeline parallel (GPipe)
)

// MaxMatrix bounds one plan's configuration cross-product. Each cell costs
// a full graph's worth of kernel predictions, so an unbounded matrix could
// pin a cluster for hours; splitting a bigger scenario space across plans
// keeps every job individually cancellable.
const MaxMatrix = 4096

// Defaults applied by Normalize.
const (
	DefaultGPUsPerServer = 4
	DefaultGlobalBatch   = 8
	DefaultMicroBatches  = 4
)

// Spec declares one what-if scenario space: the workload, the traffic it
// must sustain, and the candidate matrix. The zero values of the optional
// fields select documented defaults (Normalize).
type Spec struct {
	// Model is the workload to place (a registered model name).
	Model string `json:"model"`
	// TrafficRPS is the offered traffic level in samples/s the fleet should
	// sustain; 0 means "no target" (every configuration meets it).
	TrafficRPS float64 `json:"traffic_rps,omitempty"`
	// Engine picks the prediction engine ("" = the serving default).
	Engine string `json:"engine,omitempty"`
	// GPUs are the candidate device names (registered GPU specs).
	GPUs []string `json:"gpus"`
	// Strategies are the candidate parallelism strategies (dp, tp, pp);
	// empty means all three.
	Strategies []string `json:"strategies,omitempty"`
	// FleetSizes are the candidate server counts; empty means 1, 2, 4.
	FleetSizes []int `json:"fleet_sizes,omitempty"`
	// GPUsPerServer sizes each server (>= 2; default 4).
	GPUsPerServer int `json:"gpus_per_server,omitempty"`
	// GlobalBatch is the per-server batch each iteration processes
	// (default max(8, GPUsPerServer)).
	GlobalBatch int `json:"global_batch,omitempty"`
	// Training forecasts training iterations instead of inference.
	Training bool `json:"training,omitempty"`
	// MicroBatches is the pipeline-parallel micro-batch count (default
	// min(4, GlobalBatch); only pp cells consult it).
	MicroBatches int `json:"micro_batches,omitempty"`
	// Seed fixes the evaluation order (the matrix is shuffled so partial
	// results sample the whole space, not one GPU's corner). The ranking
	// itself is deterministic regardless; the seed makes progress and
	// partial views reproducible too.
	Seed int64 `json:"seed,omitempty"`
}

// Config is one expanded matrix cell. Index is the cell's identity within
// its plan: checkpoint records, re-dispatch, and exactly-once accounting
// all key on it.
type Config struct {
	Index    int    `json:"index"`
	GPU      string `json:"gpu"`
	Strategy string `json:"strategy"`
	Fleet    int    `json:"fleet"`
}

// Key is the cell's human-readable identity, used for stable tie-breaks.
func (c Config) Key() string {
	return fmt.Sprintf("%s/%s/x%d", c.GPU, c.Strategy, c.Fleet)
}

// Result is one evaluated cell: the per-server iteration forecast, the
// fleet-wide throughput, and the cost-normalized ranking metric. A cell
// the evaluator could not price carries Error and ranks last.
type Result struct {
	Config
	// Server names the server shape the cell was priced on.
	Server string `json:"server"`
	// IterationMs is one iteration's latency on one server (compute +
	// intra-server collectives + the inter-node share for Fleet > 1).
	IterationMs float64 `json:"iteration_ms"`
	ComputeMs   float64 `json:"compute_ms"`
	NetworkMs   float64 `json:"network_ms"`
	// ThroughputRPS is the fleet-wide sustained samples/s.
	ThroughputRPS float64 `json:"throughput_rps"`
	// CostPerHour is the fleet's price (all servers, all GPUs) in $/h.
	CostPerHour float64 `json:"cost_per_hour"`
	// ThroughputPerCost is the ranking metric: samples/s per $/h.
	ThroughputPerCost float64 `json:"throughput_per_cost"`
	// MeetsTraffic reports ThroughputRPS >= Spec.TrafficRPS.
	MeetsTraffic bool `json:"meets_traffic"`
	// FitsMemory reports whether the per-GPU working set fits the device.
	FitsMemory bool `json:"fits_memory"`
	// Fallbacks counts kernels priced by the memory-bound estimate because
	// the engine could not predict them.
	Fallbacks int    `json:"fallbacks,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Normalize validates spec and fills defaults in place. It is called once
// at submission; every later consumer (local evaluation, remote eval
// handlers, resume) sees the normalized form.
func (s *Spec) Normalize() error {
	if s.Model == "" {
		return fmt.Errorf("plan: spec names no model")
	}
	if _, err := models.Lookup(s.Model); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if len(s.GPUs) == 0 {
		return fmt.Errorf("plan: spec lists no candidate GPUs")
	}
	seen := map[string]bool{}
	for _, name := range s.GPUs {
		if _, err := gpu.Lookup(name); err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		if seen[name] {
			return fmt.Errorf("plan: duplicate candidate GPU %q", name)
		}
		seen[name] = true
	}
	if len(s.Strategies) == 0 {
		s.Strategies = []string{StrategyDP, StrategyTP, StrategyPP}
	}
	seenStrat := map[string]bool{}
	for i, st := range s.Strategies {
		st = strings.ToLower(strings.TrimSpace(st))
		s.Strategies[i] = st
		switch st {
		case StrategyDP, StrategyTP, StrategyPP:
		default:
			return fmt.Errorf("plan: unknown strategy %q (want %s, %s, or %s)", st, StrategyDP, StrategyTP, StrategyPP)
		}
		if seenStrat[st] {
			return fmt.Errorf("plan: duplicate strategy %q", st)
		}
		seenStrat[st] = true
	}
	if len(s.FleetSizes) == 0 {
		s.FleetSizes = []int{1, 2, 4}
	}
	seenFleet := map[int]bool{}
	for _, f := range s.FleetSizes {
		if f < 1 || f > 4096 {
			return fmt.Errorf("plan: fleet size %d out of range [1, 4096]", f)
		}
		if seenFleet[f] {
			return fmt.Errorf("plan: duplicate fleet size %d", f)
		}
		seenFleet[f] = true
	}
	if s.GPUsPerServer == 0 {
		s.GPUsPerServer = DefaultGPUsPerServer
	}
	if s.GPUsPerServer < 2 || s.GPUsPerServer > 64 {
		return fmt.Errorf("plan: gpus_per_server %d out of range [2, 64] (the distributed layer needs at least 2)", s.GPUsPerServer)
	}
	if s.GlobalBatch == 0 {
		s.GlobalBatch = DefaultGlobalBatch
		if s.GlobalBatch < s.GPUsPerServer {
			s.GlobalBatch = s.GPUsPerServer
		}
	}
	if s.GlobalBatch < 1 || s.GlobalBatch > 1<<16 {
		return fmt.Errorf("plan: global_batch %d out of range [1, %d]", s.GlobalBatch, 1<<16)
	}
	if s.MicroBatches == 0 {
		s.MicroBatches = DefaultMicroBatches
		if s.MicroBatches > s.GlobalBatch {
			s.MicroBatches = s.GlobalBatch
		}
	}
	if s.MicroBatches < 1 || s.MicroBatches > s.GlobalBatch {
		return fmt.Errorf("plan: micro_batches %d out of range [1, global_batch=%d]", s.MicroBatches, s.GlobalBatch)
	}
	if s.TrafficRPS < 0 {
		return fmt.Errorf("plan: traffic_rps must be >= 0, got %v", s.TrafficRPS)
	}
	if n := len(s.GPUs) * len(s.Strategies) * len(s.FleetSizes); n > MaxMatrix {
		return fmt.Errorf("plan: matrix of %d cells exceeds the %d-cell limit; split the scenario space", n, MaxMatrix)
	}
	return nil
}

// Expand builds the full configuration cross-product of a normalized
// spec. Cell indexes follow the nested declaration order (GPU outermost,
// fleet innermost) and are stable across resubmission and resume; the
// returned slice is shuffled by Spec.Seed so evaluation samples the whole
// space instead of draining one GPU's cells first.
func Expand(s Spec) []Config {
	cfgs := make([]Config, 0, len(s.GPUs)*len(s.Strategies)*len(s.FleetSizes))
	i := 0
	for _, g := range s.GPUs {
		for _, st := range s.Strategies {
			for _, f := range s.FleetSizes {
				cfgs = append(cfgs, Config{Index: i, GPU: g, Strategy: st, Fleet: f})
				i++
			}
		}
	}
	rng := rand.New(rand.NewSource(s.Seed))
	rng.Shuffle(len(cfgs), func(a, b int) { cfgs[a], cfgs[b] = cfgs[b], cfgs[a] })
	return cfgs
}

// Rank orders evaluated cells for the job's ranking: cells meeting the
// traffic target first, then by throughput-per-cost descending, errored
// cells last. Ties break on the cell key so the ranking is stable across
// runs and members.
func Rank(results []Result) []Result {
	out := append([]Result(nil), results...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.Error == "") != (b.Error == "") {
			return a.Error == ""
		}
		if a.MeetsTraffic != b.MeetsTraffic {
			return a.MeetsTraffic
		}
		if a.ThroughputPerCost != b.ThroughputPerCost {
			return a.ThroughputPerCost > b.ThroughputPerCost
		}
		return a.Key() < b.Key()
	})
	return out
}
