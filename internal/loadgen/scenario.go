package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"neusight/internal/gpu"
	"neusight/internal/models"
	"neusight/internal/serve"
)

// Kind classifies one generated request by the endpoint it exercises.
type Kind int

const (
	KindKernel Kind = iota // POST /v2/predict/kernel
	KindBatch              // POST /v2/predict/batch
	KindGraph              // POST /v2/predict/graph
)

func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindBatch:
		return "batch"
	case KindGraph:
		return "graph"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Request is one pre-encoded request of a scenario: the endpoint path and
// the marshalled JSON body. Bodies are built once at scenario construction
// so the dispatch hot loop does no encoding work — an open-loop driver
// that stalls marshalling JSON under-offers exactly when the target is
// busiest.
type Request struct {
	Kind Kind
	Path string
	Body []byte
	// Kernels is how many kernel forecasts the request asks for: 1 for a
	// kernel request, the batch length for a batch request, 0 for a graph
	// request (the server prices the graph's kernels internally).
	Kernels int
	// Observe is the observation template for feedback mode: the same
	// kernel/GPU/engine the request predicts, with ObservedMs left for the
	// driver to fill with the measured latency. Only single-kernel
	// requests carry one — a batch or graph round trip has no one kernel
	// its latency belongs to.
	Observe *serve.ObserveRequest
	// Engine and GPU are the request's routing key — the same (engine,
	// GPU) pair the cluster's membership ring hashes to assign a shard
	// owner. The cluster driver uses them to send each request straight to
	// the member that owns it. Engine is empty when the request relies on
	// the server default.
	Engine string
	GPU    string
}

// Scenario is a finite pool of pre-encoded requests the driver cycles
// through. Pools repeat — deliberately: production prediction traffic
// repeats identical (kernel, GPU) questions, which is what the serving
// cache is built for, so a generator issuing only unique keys would
// measure an anti-adversarial workload no real deployment sees.
type Scenario struct {
	Name string
	reqs []Request
}

// Len returns the pool size.
func (s *Scenario) Len() int { return len(s.reqs) }

// Request returns the i-th request of the cycle.
func (s *Scenario) Request(i uint64) Request {
	return s.reqs[i%uint64(len(s.reqs))]
}

// MixConfig shapes a mixed scenario: a weighted blend of kernel, batch,
// and graph requests over a model × GPU matrix.
type MixConfig struct {
	// KernelWeight, BatchWeight, and GraphWeight set the request-type
	// ratio; they need not sum to 1. All zero means kernel-only.
	KernelWeight float64 `json:"kernel_weight"`
	BatchWeight  float64 `json:"batch_weight"`
	GraphWeight  float64 `json:"graph_weight"`
	// Models and GPUs span the matrix requests are drawn from. Every name
	// must be registered (see `neusight list-models` / `list-gpus`).
	Models []string `json:"models"`
	GPUs   []string `json:"gpus"`
	// Engine is the /v2 per-request engine field ("" = server default).
	Engine string `json:"engine,omitempty"`
	// BatchSize is the kernel count of each batch request (default 32).
	BatchSize int `json:"batch_size,omitempty"`
	// GraphBatch is the workload batch size of graph requests (default 2).
	GraphBatch int `json:"graph_batch,omitempty"`
	// PoolSize is how many distinct requests to pre-encode (default 512).
	PoolSize int `json:"pool_size,omitempty"`
	// Seed fixes the draw so a scenario is reproducible run to run.
	Seed int64 `json:"seed"`
}

// NewMix builds a mixed scenario from cfg. The kernel pool is the set of
// unique API-expressible kernel shapes across the named models' inference
// graphs — the same shapes live traffic repeats layer after layer.
func NewMix(cfg MixConfig) (*Scenario, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("loadgen: mix needs at least one model")
	}
	if len(cfg.GPUs) == 0 {
		return nil, fmt.Errorf("loadgen: mix needs at least one GPU")
	}
	if cfg.KernelWeight < 0 || cfg.BatchWeight < 0 || cfg.GraphWeight < 0 {
		return nil, fmt.Errorf("loadgen: mix weights must be non-negative")
	}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = 32
	}
	if batchSize > serve.MaxBatchKernels {
		return nil, fmt.Errorf("loadgen: batch size %d exceeds the server's %d-kernel limit", batchSize, serve.MaxBatchKernels)
	}
	graphBatch := cfg.GraphBatch
	if graphBatch <= 0 {
		graphBatch = 2
	}
	poolSize := cfg.PoolSize
	if poolSize <= 0 {
		poolSize = 512
	}
	// Canonical GPU names: the ring assignments the cluster driver matches
	// requests against use gpu.Spec.Name, so the pool must too.
	gpus := make([]string, len(cfg.GPUs))
	for i, name := range cfg.GPUs {
		g, err := gpu.Lookup(name)
		if err != nil {
			return nil, err
		}
		gpus[i] = g.Name
	}
	// Unique API-expressible kernel shapes across the model matrix,
	// sorted for seed-stable pool construction.
	shapes := map[string]serve.KernelRequest{}
	for _, name := range cfg.Models {
		m, err := models.Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, k := range m.InferenceGraph(graphBatch).Kernels() {
			if kb, ok := serve.KernelRequestOf(k); ok {
				shapes[k.Label()] = kb
			}
		}
	}
	labels := make([]string, 0, len(shapes))
	for l := range shapes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	if len(labels) == 0 {
		return nil, fmt.Errorf("loadgen: no API-expressible kernels in models %v", cfg.Models)
	}

	kw, bw, gw := cfg.KernelWeight, cfg.BatchWeight, cfg.GraphWeight
	if kw+bw+gw == 0 {
		kw = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc := &Scenario{Name: fmt.Sprintf("mix(kernel=%g,batch=%g,graph=%g)", kw, bw, gw)}
	for i := 0; i < poolSize; i++ {
		gpuName := gpus[rng.Intn(len(gpus))]
		var req Request
		var body any
		switch pick := rng.Float64() * (kw + bw + gw); {
		case pick < kw:
			kb := shapes[labels[rng.Intn(len(labels))]]
			kb.GPU = gpuName
			req = Request{Kind: KindKernel, Path: "/v2/predict/kernel", Kernels: 1,
				Observe: &serve.ObserveRequest{Kernel: kb, Engine: cfg.Engine}}
			body = serve.KernelRequestV2{KernelRequest: kb, Engine: cfg.Engine}
		case pick < kw+bw:
			ks := make([]serve.KernelRequest, batchSize)
			for j := range ks {
				ks[j] = shapes[labels[rng.Intn(len(labels))]]
			}
			req = Request{Kind: KindBatch, Path: "/v2/predict/batch", Kernels: batchSize}
			body = serve.BatchRequestV2{
				BatchRequest: serve.BatchRequest{GPU: gpuName, Kernels: ks},
				Engine:       cfg.Engine,
			}
		default:
			req = Request{Kind: KindGraph, Path: "/v2/predict/graph"}
			body = serve.GraphRequestV2{
				GraphRequest: serve.GraphRequest{
					Workload: cfg.Models[rng.Intn(len(cfg.Models))],
					GPU:      gpuName,
					Batch:    graphBatch,
				},
				Engine: cfg.Engine,
			}
		}
		enc, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("loadgen: encoding request %d: %w", i, err)
		}
		req.Body = enc
		req.Engine, req.GPU = cfg.Engine, gpuName
		sc.reqs = append(sc.reqs, req)
	}
	return sc, nil
}

// NewTraceReplay builds a scenario replaying a recorded workload trace
// (see serve.TraceRecorder) as kernel requests in file order — offered at
// whatever rate the driver is asked for, which is the difference between
// replaying a profile and warming from one. The trace is read by
// serve.ReadTrace, so damaged lines are skipped and counted exactly as
// warmup skips them; entries the kernel API cannot express
// (serve.KernelRequestOf) are skipped and counted too.
func NewTraceReplay(path, engine string) (*Scenario, int, error) {
	entries, skipped, err := serve.ReadTrace(path)
	if err != nil {
		return nil, 0, err
	}
	sc := &Scenario{Name: "trace(" + path + ")"}
	for _, e := range entries {
		k, err := e.Kernel()
		kb, ok := serve.KernelRequestOf(k)
		if err != nil || !ok {
			skipped++
			continue
		}
		kb.GPU = e.GPU
		eng := engine
		if eng == "" {
			eng = e.Engine
		}
		enc, err := json.Marshal(serve.KernelRequestV2{KernelRequest: kb, Engine: eng})
		if err != nil {
			return nil, skipped, err
		}
		sc.reqs = append(sc.reqs, Request{Kind: KindKernel, Path: "/v2/predict/kernel", Body: enc, Kernels: 1,
			Observe: &serve.ObserveRequest{Kernel: kb, Engine: eng},
			Engine:  eng, GPU: e.GPU})
	}
	if len(sc.reqs) == 0 {
		return nil, skipped, fmt.Errorf("loadgen: trace %s has no replayable entries (%d skipped)", path, skipped)
	}
	return sc, skipped, nil
}
