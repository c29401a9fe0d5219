package main

import (
	"encoding/json"
	"fmt"
	"math"

	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/loadgen"
	"neusight/internal/models"
	"neusight/internal/serve"
)

// parityTol is the relative difference a served latency may have from the
// offline answer of the same saved model before the request counts as
// failed. Both sides run the same arithmetic and JSON round-trips float64
// exactly, so the slack only covers a reordered sum.
const parityTol = 1e-9

func relDiff(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// decoded is what a request body asks for, rebuilt from its bytes.
type decoded struct {
	gpu   gpu.Spec
	ks    []kernels.Kernel // kernel and batch requests
	graph *dedupGraph      // graph requests
}

// dedupGraph is a graph with its distinct kernels listed once. A transformer
// graph has hundreds to thousands of nodes and a dozen shapes, and the
// service forecasts each shape once and sums per-node in node order;
// forecasting the distinct kernels and summing the same way gives the
// service-equivalent answer at a hundredth of the cost of a full walk.
type dedupGraph struct {
	gr   *graph.Graph
	uniq []kernels.Kernel
	node []int // node index -> index into uniq; -1 for a network kernel, which contributes nothing
	// rebuild constructs the graph afresh, as the graph endpoint does on
	// every request; set for graphs that came out of a request.
	rebuild func() *graph.Graph
}

func newDedupGraph(gr *graph.Graph) *dedupGraph {
	d := &dedupGraph{gr: gr, node: make([]int, len(gr.Nodes))}
	seen := map[string]int{}
	for i, n := range gr.Nodes {
		if n.Kernel.Category() == kernels.CatNetwork {
			d.node[i] = -1
			continue
		}
		label := n.Kernel.Label()
		j, ok := seen[label]
		if !ok {
			j = len(d.uniq)
			seen[label] = j
			d.uniq = append(d.uniq, n.Kernel)
		}
		d.node[i] = j
	}
	return d
}

// fold sums per-kernel values over the graph's nodes in node order.
func (d *dedupGraph) fold(perKernel []float64) float64 {
	total := 0.0
	for _, j := range d.node {
		if j >= 0 {
			total += perKernel[j]
		}
	}
	return total
}

// forecast is p's end-to-end forecast of the graph on g.
func (d *dedupGraph) forecast(p *core.Predictor, g gpu.Spec) (float64, error) {
	lats, _, errs := p.PredictKernelsDetail(d.uniq, g)
	for j, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("kernel %s: %w", d.uniq[j].Label(), err)
		}
	}
	return d.fold(lats), nil
}

// graphMemo caches graph construction by (model, batch, training, fused):
// a pool asks for the same few graphs on many GPUs.
type graphMemo map[serve.GraphRequest]*dedupGraph

func (m graphMemo) get(req serve.GraphRequest) (*dedupGraph, error) {
	key := req
	key.GPU = ""
	if d, ok := m[key]; ok {
		return d, nil
	}
	mc, err := models.Lookup(req.Workload)
	if err != nil {
		return nil, err
	}
	rebuild := func() *graph.Graph { return buildGraph(mc, req.Batch, req.Training, req.Fused) }
	d := newDedupGraph(rebuild())
	d.rebuild = rebuild
	m[key] = d
	return d, nil
}

// decodeRequest rebuilds what rq's bytes ask for.
func decodeRequest(rq *request, graphs graphMemo) (decoded, error) {
	var d decoded
	var gpuName string
	switch rq.Kind {
	case loadgen.KindKernel:
		var body serve.KernelRequestV2
		if err := json.Unmarshal(rq.Body, &body); err != nil {
			return d, err
		}
		k, err := kernelFromBody(body.KernelRequest)
		if err != nil {
			return d, err
		}
		d.ks, gpuName = []kernels.Kernel{k}, body.GPU
	case loadgen.KindBatch:
		var body serve.BatchRequestV2
		if err := json.Unmarshal(rq.Body, &body); err != nil {
			return d, err
		}
		for _, kr := range body.Kernels {
			k, err := kernelFromBody(kr)
			if err != nil {
				return d, err
			}
			d.ks = append(d.ks, k)
		}
		gpuName = body.GPU
	case loadgen.KindGraph:
		var body serve.GraphRequestV2
		if err := json.Unmarshal(rq.Body, &body); err != nil {
			return d, err
		}
		gr, err := graphs.get(body.GraphRequest)
		if err != nil {
			return d, err
		}
		d.graph, gpuName = gr, body.GPU
	default:
		return d, fmt.Errorf("unknown request kind %v", rq.Kind)
	}
	g, err := gpu.Lookup(gpuName)
	d.gpu = g
	return d, err
}

// expectations fills every request's want and Kernels with the offline
// answer of p: PredictKernelsDetail for kernel and batch requests, and the
// service-equivalent fold for graphs.
func expectations(p *core.Predictor, pool []request) error {
	graphs := graphMemo{}
	for i := range pool {
		rq := &pool[i]
		d, err := decodeRequest(rq, graphs)
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", i, rq.Path, err)
		}
		if d.graph != nil {
			total, err := d.graph.forecast(p, d.gpu)
			if err != nil {
				return fmt.Errorf("request %d: offline graph forecast: %w", i, err)
			}
			rq.want, rq.Kernels = []float64{total}, len(d.graph.gr.Nodes)
			continue
		}
		lats, _, errs := p.PredictKernelsDetail(d.ks, d.gpu)
		for j, e := range errs {
			if e != nil {
				return fmt.Errorf("request %d kernel %d: offline forecast: %w", i, j, e)
			}
		}
		rq.want, rq.Kernels = lats, len(d.ks)
	}
	return nil
}

// checkAnswer compares a 2xx response body with rq.want.
func checkAnswer(rq *request, body []byte) error {
	var got []float64
	switch rq.Kind {
	case loadgen.KindKernel:
		var resp serve.KernelResponseV2
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		got = []float64{resp.LatencyMs}
	case loadgen.KindBatch:
		var resp serve.BatchResponseV2
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		for i, it := range resp.Items {
			if it.Error != "" {
				return fmt.Errorf("item %d: %s", i, it.Error)
			}
			got = append(got, it.LatencyMs)
		}
	case loadgen.KindGraph:
		var resp serve.GraphResponseV2
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Warning != "" {
			return fmt.Errorf("degraded forecast: %s", resp.Warning)
		}
		got = []float64{resp.LatencyMs}
	}
	if len(got) != len(rq.want) {
		return fmt.Errorf("answer has %d latencies, want %d", len(got), len(rq.want))
	}
	for i := range got {
		if d := relDiff(got[i], rq.want[i]); d > parityTol {
			return fmt.Errorf("latency %d is %v, offline answer %v (relative difference %.3g)", i, got[i], rq.want[i], d)
		}
	}
	return nil
}
