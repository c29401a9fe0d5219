package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/loadgen"
	"neusight/internal/models"
	"neusight/internal/plan"
	"neusight/internal/serve"
)

// evalGPUs is the paper's 8-device NVIDIA evaluation set (Fig. 7).
var evalGPUs = []string{"P4", "P100", "V100", "T4", "A100-40GB", "A100-80GB", "L4", "H100"}

// universeBatches are the workload batch sizes the shape universe spans.
var universeBatches = []int{1, 2, 4, 8, 16}

// apiOps is the operator set the kernel and batch endpoints accept — the
// same 11 ops as loadgen's unexported apiOps. A request for any other op is
// answered 400, so a drift here fails the first parity check.
var apiOps = map[kernels.Op]bool{
	kernels.OpBMM: true, kernels.OpLinear: true,
	kernels.OpEWAdd: true, kernels.OpEWMul: true, kernels.OpEWDiv: true,
	kernels.OpEWReLU: true, kernels.OpEWGELU: true, kernels.OpEWTanh: true,
	kernels.OpSoftmax: true, kernels.OpLayerNorm: true, kernels.OpEmbedding: true,
}

// shapeUniverse returns the unique kernels the kernel endpoint can express
// over the Table 5 inference graphs at the universe batch sizes, sorted by
// label so every pool built from it is seed-stable.
func shapeUniverse() []kernels.Kernel {
	shapes := map[string]kernels.Kernel{}
	for _, m := range models.Table5() {
		for _, b := range universeBatches {
			for _, k := range m.InferenceGraph(b).Kernels() {
				if apiOps[k.Op] {
					shapes[k.Label()] = k
				}
			}
		}
	}
	labels := make([]string, 0, len(shapes))
	for l := range shapes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]kernels.Kernel, len(labels))
	for i, l := range labels {
		out[i] = shapes[l]
	}
	return out
}

// request is one pre-encoded request of a pool. want holds the offline
// answer the served one must equal: one latency per kernel or batch item,
// one total for a graph; it is filled by expectations, never sent.
type request struct {
	Kind    loadgen.Kind
	Path    string
	Body    []byte
	Kernels int // kernel forecasts in the answer: 1, the batch length, or the graph's node count
	GPU     string
	want    []float64
}

func kernelBody(k kernels.Kernel, gpuName string) serve.KernelRequest {
	body := serve.KernelRequest{Op: k.Op.String(), B: k.B, M: k.M, K: k.K, N: k.N, GPU: gpuName}
	if k.DType == kernels.FP16 {
		body.DType = "fp16"
	}
	return body
}

// kernelFromBody rebuilds the kernel a request body names, the way the
// kernel endpoint does. Expected answers are derived from the bytes that
// are sent rather than from the kernels the pool was built from, so a pool
// that encodes something other than it meant to fails parity.
func kernelFromBody(req serve.KernelRequest) (kernels.Kernel, error) {
	op, ok := kernels.OpByName(req.Op)
	if !ok || !apiOps[op] {
		return kernels.Kernel{}, fmt.Errorf("op %q is not one the kernel endpoint accepts", req.Op)
	}
	var k kernels.Kernel
	switch op {
	case kernels.OpBMM:
		k = kernels.NewBMM(req.B, req.M, req.K, req.N)
	case kernels.OpLinear:
		k = kernels.NewLinear(req.M, req.K, req.N)
	case kernels.OpSoftmax:
		k = kernels.NewSoftmax(req.B, req.M)
	case kernels.OpLayerNorm:
		k = kernels.NewLayerNorm(req.B, req.M)
	case kernels.OpEmbedding:
		k = kernels.NewEmbedding(req.B, req.M, req.K)
	default:
		k = kernels.NewElementwise(op, req.B, req.M)
	}
	if req.DType == "fp16" {
		k = k.WithDType(kernels.FP16)
	}
	return k, nil
}

func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a request: %v", err)) // plain structs of ints and strings
	}
	return b
}

const (
	kernelPoolSize = 512
	kernelBatchLen = 128
)

// kernelPool is the request pool of serve_kernels_miss, serve_kernels_hit
// and cluster_proxy: half single-kernel requests, half batches of 128, in a
// seed-shuffled order. Requests take GPUs in a seed-permuted rotation and
// each GPU walks its own seed-permuted cycle of the shape universe, so
// between two uses of one (shape, GPU) key lie the rest of that GPU's
// shapes and as many keys of every other GPU — far more than the 512
// entries the miss workload's cache holds — while one pass over the pool
// touches every key, which is what fills the hit workload's cache.
func kernelPool(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	shapes := shapeUniverse()
	gpus := append([]string(nil), evalGPUs...)
	rng.Shuffle(len(gpus), func(i, j int) { gpus[i], gpus[j] = gpus[j], gpus[i] })
	cycles := make([][]kernels.Kernel, len(gpus))
	for g := range gpus {
		c := append([]kernels.Kernel(nil), shapes...)
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		cycles[g] = c
	}
	batch := make([]bool, kernelPoolSize)
	for i := range batch {
		batch[i] = i%2 == 1
	}
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })

	cursor := make([]int, len(gpus))
	next := func(g int) kernels.Kernel {
		k := cycles[g][cursor[g]%len(cycles[g])]
		cursor[g]++
		return k
	}
	pool := make([]request, kernelPoolSize)
	for i := range pool {
		g := i % len(gpus)
		if !batch[i] {
			pool[i] = request{Kind: loadgen.KindKernel, Path: "/v2/predict/kernel", GPU: gpus[g],
				Body: encode(serve.KernelRequestV2{KernelRequest: kernelBody(next(g), gpus[g])})}
			continue
		}
		ks := make([]serve.KernelRequest, kernelBatchLen)
		for j := range ks {
			ks[j] = kernelBody(next(g), "")
		}
		pool[i] = request{Kind: loadgen.KindBatch, Path: "/v2/predict/batch", GPU: gpus[g],
			Body: encode(serve.BatchRequestV2{BatchRequest: serve.BatchRequest{GPU: gpus[g], Kernels: ks}})}
	}
	return pool
}

// graphPool is the request pool of serve_graphs: every Table 5 model ×
// batch {1,2,4} × evaluation GPU × {inference, training, inference+fused},
// shuffled by seed.
func graphPool(seed int64) []request {
	var pool []request
	for _, m := range models.Table5() {
		for _, b := range []int{1, 2, 4} {
			for _, g := range evalGPUs {
				for _, v := range []struct{ training, fused bool }{{false, false}, {true, false}, {false, true}} {
					pool = append(pool, request{Kind: loadgen.KindGraph, Path: "/v2/predict/graph", GPU: g,
						Body: encode(serve.GraphRequestV2{GraphRequest: serve.GraphRequest{
							Workload: m.Name, GPU: g, Batch: b, Training: v.training, Fused: v.fused}})})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// pacedMixSeed fixes which requests the paced pool holds. loadgen.NewMix
// draws each request's kind at random, so a pool drawn from the run's seed
// would hold 18% graph requests for one seed and 22% for the next, and
// every per-request cost would move with the seed by more than any change
// it is meant to detect. The run's seed orders the pool and, through the
// arrival process, times it.
const pacedMixSeed = 7

// pacedPool is the historical BENCH_serve.json mix, kept for continuity:
// kernel 0.5 / batch-of-32 0.3 / graph 0.2 over BERT-Large and GPT2-Large
// on H100 and V100, drawn by loadgen.NewMix and shuffled by seed.
func pacedPool(seed int64) ([]request, error) {
	sc, err := loadgen.NewMix(loadgen.MixConfig{
		KernelWeight: 0.5, BatchWeight: 0.3, GraphWeight: 0.2,
		Models: []string{"BERT-Large", "GPT2-Large"}, GPUs: []string{"H100", "V100"},
		Seed: pacedMixSeed,
	})
	if err != nil {
		return nil, err
	}
	pool := make([]request, sc.Len())
	for i := range pool {
		r := sc.Request(uint64(i))
		pool[i] = request{Kind: r.Kind, Path: r.Path, Body: r.Body, GPU: r.GPU}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// buildGraph is the graph endpoint's construction, repeated here for the
// offline answer and the graph-layer timings.
func buildGraph(m models.Config, batch int, training, fused bool) *graph.Graph {
	var gr *graph.Graph
	if training {
		gr = m.TrainingGraph(batch)
	} else {
		gr = m.InferenceGraph(batch)
	}
	if fused {
		gr = graph.Fuse(gr)
	}
	return gr
}

// cell is one forecast of the Fig. 7 matrix.
type cell struct {
	Model    models.Config
	Batch    int
	GPU      gpu.Spec
	Training bool
}

// fig7Matrix is the paper's end-to-end evaluation: its per-model batch
// sizes × the 8 evaluation GPUs × {inference, training}, without the cells
// whose working set does not fit the device. The seed shuffles the order
// the closed loop walks it in; the set is the same for every seed.
func fig7Matrix(seed int64) []cell {
	batches := map[string][]int{
		"BERT-Large": {8, 16}, "GPT2-Large": {4, 8}, "GPT3-XL": {2, 4},
		"OPT-1.3B": {2, 4}, "GPT3-2.7B": {2, 4}, "SwitchTrans": {4, 8},
	}
	var cells []cell
	for _, m := range models.Table5() {
		for _, b := range batches[m.Name] {
			for _, name := range evalGPUs {
				g := gpu.MustLookup(name)
				for _, training := range []bool{false, true} {
					if m.FitsInMemory(b, g, training) {
						cells = append(cells, cell{Model: m, Batch: b, GPU: g, Training: training})
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// planFleets and planCells size every plan_matrix spec: 8 GPUs × 3
// strategies × 4 fleet sizes.
var planFleets = []int{1, 2, 4, 8}

const planCells = 8 * 3 * 4

// planSpecs are the 12 what-if sweeps of plan_matrix: each Table 5 model,
// inference and training, over the evaluation GPUs × {dp,tp,pp} × fleets
// {1,2,4,8}. The seed is the spec's evaluation-order seed and shuffles the
// order jobs are submitted in.
func planSpecs(seed int64) []plan.Spec {
	var specs []plan.Spec
	for _, m := range models.Table5() {
		for _, training := range []bool{false, true} {
			specs = append(specs, plan.Spec{
				Model: m.Name, GPUs: append([]string(nil), evalGPUs...),
				Strategies: []string{plan.StrategyDP, plan.StrategyTP, plan.StrategyPP},
				FleetSizes: append([]int(nil), planFleets...),
				Training:   training, Seed: seed,
			})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}
