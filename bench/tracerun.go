package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/mat"
	"neusight/internal/models"
	"neusight/internal/plan"
	"neusight/internal/predict"
)

// layerUnits names every per-layer metric the traced run reports, with its
// unit. A metric a workload has nothing to say about — the cluster hop on a
// single-node workload, the graph request kind on a pool of kernels — is
// reported as 0: that layer was not reached.
var layerUnits = map[string]string{
	"mat.matmul_ns_per_row": "ns", "nn.forward_ns_per_row": "ns", "tile.lookup_ns": "ns",
	"core.kernel_ns": "ns", "core.graph_ns_per_node": "ns", "core.mape_pct": "%", "core.mape_ood_pct": "%",
	"graph.build_us": "us", "graph.build_allocs": "count", "graph.fuse_us": "us",
	"predict.dispatch_ns_per_kernel": "ns",
	"serve.miss_self_ns_per_kernel":  "ns", "serve.hit_ns_per_kernel": "ns", "serve.graph_self_us": "us",
	"serve.cache_hit_share": "share", "serve.dedup_share": "share", "serve.coalesced_share": "share",
	"serve.rejected": "count", "serve.errors": "count",
	"serve_http.kernel_self_us": "us", "serve_http.batch_self_us": "us", "serve_http.graph_self_us": "us",
	"serve_http.req_bytes": "B", "serve_http.resp_bytes": "B",
	"loopback.kernel_self_us": "us", "loopback.batch_self_us": "us", "loopback.graph_self_us": "us",
	"cluster.hop_self_us": "us", "cluster.proxied_share": "share", "cluster.failed_over": "count",
	"cluster.misrouted": "count", "cluster.proxy_failures": "count",
	"plan.eval_us_per_cell": "us", "plan.assemble_us_per_cell": "us", "plan.serve_self_us_per_cell": "us",
	"plan.remote_cell_share": "share", "plan.redispatched_batches": "count",
	"process.allocs_per_op": "count", "process.alloc_kb_per_op": "kB", "process.gc_per_s": "1/s",
	"process.gc_pause_ms_per_s": "ms/s", "process.rss_mb": "MB",
	"process.cpu_share.json": "share", "process.cpu_share.runtime": "share", "process.cpu_share.net": "share",
	"process.cpu_share.neusight": "share", "process.cpu_share.other": "share",
	"client.p50_ms": "ms", "client.p99_ms": "ms", "client.p999_ms": "ms", "client.late_p90_ms": "ms", "client.late_p99_ms": "ms",
	"client.slo_share":  "share",
	"client.fail_share": "share", "client.cpu_share": "share", "client.trace_overhead_pct": "%",
	"layers.sum_share": "share",
}

// tracedSlices is how many slices the traced run's loaded phase has: the
// first half plain, the second under a CPU profile. The phase takes half of
// the run's seconds; the replay and the fixed timings take the rest.
const tracedSlices = 4

// traceWorkload is the separate traced run of one workload: a loaded phase
// for the counts, half of it under a CPU profile; a sequential replay of
// the pool's first requests at every layer boundary, for the spans; and the
// fixed-input timings of the layers below the service. It reports the
// per-layer metrics and writes out/trace.<workload>.jsonl. End-to-end
// metrics are never taken from it.
func (e *env) traceWorkload(w workload) (*result, error) {
	once := *e
	once.setups = 1
	in, _, err := once.setUp(w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	m := map[string]float64{}
	for name := range layerUnits {
		m[name] = 0
	}

	// Loaded phase: counts, process costs, the client's own share, and —
	// from its second half, run under a CPU profile of the program — the
	// overhead of the one piece of tracing that touches the program.
	profile := filepath.Join(e.tmp, w.name+".cpu.pprof")
	var stopProfile func() error
	sl, err := in.slicing(e.seconds/2, tracedSlices, 0)
	if err != nil {
		return nil, err
	}
	d, err := in.measure(sl, true, func(s int) (err error) {
		if s == sl.n/2 {
			stopProfile, err = startProfile(in, profile)
		}
		return err
	})
	if stopProfile != nil {
		if perr := stopProfile(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Attempted: d.client.Attempted, Failed: d.client.Failed, Correct: true}
	if err := judge(in, d, res); err != nil {
		return nil, err
	}
	loadCounts(m, in, d)
	var plain, profiled phase
	for s := range d.slices {
		if s < sl.n/2 {
			plain.merge(&d.slices[s].phase)
		} else {
			profiled.merge(&d.slices[s].phase)
		}
	}
	if p := quantile(millis(plain.Lat), 0.5); p > 0 {
		m["client.trace_overhead_pct"] = 100 * (quantile(millis(profiled.Lat), 0.5) - p) / p
	}
	shares, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}
	for bucket, share := range shares {
		m["process.cpu_share."+bucket] = share
	}

	// Replay: spans at every boundary.
	nets, err := loadNetworks(in.cfg.ModelDir)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	switch {
	case in.cells != nil:
		err = replayOffline(tr, in, nets)
	case in.planSpecs != nil:
		err = replayPlan(tr, in, nets, e.nproc)
	default:
		var tw *twin
		if tw, err = newTwin(tr, in.cfg, filepath.Join(e.tmp, "twin.jsonl")); err == nil {
			m["serve_http.req_bytes"], m["serve_http.resp_bytes"], err = replayHTTP(tr, in, tw, nets)
			tw.stop()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := tr.write(filepath.Join(e.out, "trace."+w.name+".jsonl")); err != nil {
		return nil, err
	}
	b := budgetOf(tr.spans)
	for _, kind := range []string{"kernel", "batch", "graph"} {
		m["serve_http."+kind+"_self_us"] = b.self[kind][layerServeHTTP]
		m["loopback."+kind+"_self_us"] = b.self[kind][layerLoopback]
	}
	if hops := selfByLayer(tr.spans, layerCluster); len(hops) > 0 {
		m["cluster.hop_self_us"] = median(hops)
	}
	if in.planSpecs != nil {
		m["plan.serve_self_us_per_cell"] = b.self["plan"][layerLoopback] / planCells
	}
	m["layers.sum_share"] = b.sumShare()
	printBudget(b)

	// The layers below the service, on fixed inputs: the same on every
	// workload, so that two traced runs of any workload compare them.
	if err := fixedTimings(m, in.cfg.ModelDir, nets[kernels.CatBMM]); err != nil {
		return nil, err
	}

	res.Metrics = map[string]stat{}
	for name, v := range m {
		res.Metrics[name] = stat{Value: v, Unit: layerUnits[name], Q1: v, Q3: v, Min: v, Max: v, Slices: 1, Samples: 1}
	}
	return res, nil
}

// selfByLayer returns the self times in µs of every span of one layer.
func selfByLayer(spans []span, layer string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == layer {
			out = append(out, self[s.ID]/1e3)
		}
	}
	return out
}

func printBudget(b layerBudget) {
	for kind, layers := range b.self {
		fmt.Printf("   layer budget, %s request (median self µs; end to end %.1f µs):", kind, b.root[kind])
		for _, l := range chainLayers {
			if v, ok := layers[l]; ok {
				fmt.Printf(" %s %.1f", l, v)
			}
		}
		fmt.Println()
	}
}

// loadCounts turns the counter deltas of the loaded phase into metrics.
func loadCounts(m map[string]float64, in *instance, d delta) {
	sv0, sv1 := d.before.Serve, d.after.Serve
	if reqs := float64(sv1.Requests - sv0.Requests); reqs > 0 {
		hits, misses := float64(sv1.CacheHits-sv0.CacheHits), float64(sv1.CacheMisses-sv0.CacheMisses)
		m["serve.cache_hit_share"] = d.hitShare()
		// A kernel that was neither looked up and found nor looked up and
		// missed was a duplicate inside its own batch or graph.
		m["serve.dedup_share"] = (reqs - hits - misses) / reqs
		m["serve.coalesced_share"] = float64(sv1.Coalesced-sv0.Coalesced) / reqs
	}
	m["serve.rejected"] = float64(sv1.Rejected - sv0.Rejected)
	m["serve.errors"] = float64(sv1.Errors - sv0.Errors)
	if in.child != nil && len(in.child.Addrs) > 1 && in.planSpecs == nil {
		m["cluster.proxied_share"] = d.proxiedShare()
	}
	m["cluster.failed_over"] = float64(d.after.Steer.FailedOver - d.before.Steer.FailedOver)
	m["cluster.misrouted"] = float64(d.after.Steer.Misrouted - d.before.Steer.Misrouted)
	m["cluster.proxy_failures"] = float64(d.after.Steer.ProxyFailures - d.before.Steer.ProxyFailures)
	if cells := in.planDone.Load(); cells > 0 {
		m["plan.remote_cell_share"] = float64(in.planRemote.Load()) / float64(cells)
		m["plan.redispatched_batches"] = float64(in.planRedispatched.Load())
	}

	p0, p1 := d.before.Proc, d.after.Proc
	secs := d.client.Elapsed.Seconds()
	m["process.allocs_per_op"] = d.allocsPerOp()
	if units := float64(d.client.Units); units > 0 {
		m["process.alloc_kb_per_op"] = float64(p1.AllocBytes-p0.AllocBytes) / 1024 / units
	}
	if secs > 0 {
		m["process.gc_per_s"] = float64(p1.NumGC-p0.NumGC) / secs
		m["process.gc_pause_ms_per_s"] = float64(p1.GCPauseNs-p0.GCPauseNs) / 1e6 / secs
	}
	m["process.rss_mb"] = float64(p1.PeakRSSKB) / 1024

	lat := millis(d.client.Lat)
	m["client.p50_ms"], m["client.p99_ms"], m["client.p999_ms"] = quantile(lat, 0.50), quantile(lat, 0.99), quantile(lat, 0.999)
	m["client.late_p90_ms"], m["client.late_p99_ms"] = d.late(0.90), d.late(0.99)
	if d.client.Attempted > 0 {
		m["client.slo_share"] = float64(d.client.WithinSLO) / float64(d.client.Attempted)
		m["client.fail_share"] = float64(d.client.Failed) / float64(d.client.Attempted)
	}
	if in.child != nil {
		m["client.cpu_share"] = d.clientCPUShare()
	}
}

// cpuShares buckets a CPU profile's flat time by package with `go tool
// pprof -top` and returns each bucket's share of the samples.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top: %w: %s", err, stderr.String())
	}
	return bucketTop(string(out)), nil
}

// profileBuckets maps a function-name prefix to its bucket; the first match
// wins and anything unmatched is "other".
var profileBuckets = []struct{ prefix, bucket string }{
	{"neusight/", "neusight"},
	{"main.", "neusight"},
	{"encoding/json.", "json"},
	{"internal/runtime/syscall.", "net"}, // the only system calls a serving process makes in volume are socket reads and writes
	{"runtime.", "runtime"}, {"runtime/", "runtime"}, {"internal/runtime/", "runtime"}, {"sync.", "runtime"},
	{"sync/atomic.", "runtime"}, {"internal/bytealg.", "runtime"}, {"gcWriteBarrier", "runtime"}, {"aeshashbody", "runtime"},
	{"net.", "net"}, {"net/", "net"}, {"internal/poll.", "net"}, {"syscall.", "net"}, {"bufio.", "net"},
	{"internal/syscall/", "net"}, {"io.", "net"}, {"mime", "net"}, {"context.", "net"},
}

// bucketTop parses the rows of `pprof -top` (flat, flat%, sum%, cum, cum%,
// name) that follow its header line.
func bucketTop(top string) map[string]float64 {
	shares := map[string]float64{"json": 0, "runtime": 0, "net": 0, "neusight": 0, "other": 0}
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(top))
	rows := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		bucket := "other"
		for _, b := range profileBuckets {
			if strings.HasPrefix(f[5], b.prefix) {
				bucket = b.bucket
				break
			}
		}
		shares[bucket] += pct
		total += pct
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares
}

// fixedInputs are the inputs of the fixed timings.
const (
	fixedRows  = 256 // rows of the nn and mat inputs, kernels of the core and serve batches
	fixedModel = "GPT2-Large"
	fixedBatch = 4
	fixedGPU   = "H100"
	fixedReps  = 15
)

// fixedTimings measures the layers below the service on inputs that do not
// depend on the workload or the seed: each value is the median of fixedReps
// calls. They are what an optimisation of mat, nn, tile, core, graph,
// predict or the serve cache should move first.
func fixedTimings(m map[string]float64, modelDir string, net *network) error {
	p, err := loadModel(modelDir)
	if err != nil {
		return err
	}
	g := gpu.MustLookup(fixedGPU)
	ctx := context.Background()
	shapes := shapeUniverse()[:fixedRows]

	// mat, nn: the first hidden-to-hidden product and the whole forward pass
	// of the BMM network, over the feature rows of real BMM shapes.
	x := net.inputs(p.TileDB, bmmShapes(fixedRows), g)
	acts, outs := net.activations(x)
	m["mat.matmul_ns_per_row"] = timeMedian(fixedReps, func() { mat.MatMulInto(outs[1], acts[1], net.ws[1]) }) / fixedRows
	m["nn.forward_ns_per_row"] = timeMedian(fixedReps, func() { net.compiled.Forward(x) }) / fixedRows

	// tile: the memoized lookup, per kernel.
	m["tile.lookup_ns"] = timeMedian(fixedReps, func() {
		for _, k := range shapes {
			p.TileDB.LookupOrSelect(k, g)
		}
	}) / fixedRows

	// core and predict: a batch of distinct kernels, and a whole graph.
	coreNs := timeMedian(fixedReps, func() { p.PredictKernelsDetail(shapes, g) })
	m["core.kernel_ns"] = coreNs / fixedRows
	eng := predict.NewCoreEngine(p)
	reqs := make([]predict.Request, len(shapes))
	for i, k := range shapes {
		reqs[i] = predict.Request{Kernel: k, GPU: g}
	}
	m["predict.dispatch_ns_per_kernel"] = (timeMedian(fixedReps, func() { eng.PredictKernels(ctx, reqs) }) - coreNs) / fixedRows
	mc, err := models.Lookup(fixedModel)
	if err != nil {
		return err
	}
	gr := mc.InferenceGraph(fixedBatch)
	m["core.graph_ns_per_node"] = timeMedian(fixedReps, func() { p.PredictGraph(gr, g) }) / float64(len(gr.Nodes))

	// graph: build and fuse.
	var built *graph.Graph
	m["graph.build_us"] = timeMedian(fixedReps, func() { built = mc.InferenceGraph(fixedBatch) }) / 1e3
	m["graph.fuse_us"] = timeMedian(fixedReps, func() { graph.Fuse(built) }) / 1e3
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < fixedReps; i++ {
		built = mc.InferenceGraph(fixedBatch)
	}
	runtime.ReadMemStats(&ms1)
	m["graph.build_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / fixedReps

	// serve: the batch path with the cache thrashing, the batch path warm,
	// and the graph path, each minus what the tap saw handed to the engine.
	tr := &tracer{t0: time.Now()}
	serveSelf := func(cache int, call func(tw *twin, i int)) (float64, error) {
		tw, err := newTwin(tr, childConfig{ModelDir: modelDir, Cache: cache}, "")
		if err != nil {
			return 0, err
		}
		defer tw.stop()
		for i := 0; i < len(evalGPUs); i++ { // warm: every GPU once
			call(tw, i)
		}
		from := len(tr.spans)
		for i := 0; i < fixedReps; i++ {
			tr.timed(layerServe, "fixed", i, 0, fixedRows, func(id int) {
				tw.tap.arm("fixed", i, id)
				call(tw, i)
			})
			tw.tap.disarm()
		}
		return median(selfByLayer(tr.spans[from:], layerServe)), nil
	}
	// Rotating the GPU makes 8 × 256 distinct keys: more than missCache
	// holds, fewer than the default cache does.
	batch := func(tw *twin, i int) {
		tw.svc.PredictBatchEngine(ctx, "", shapes, gpu.MustLookup(evalGPUs[i%len(evalGPUs)]))
	}
	missUs, err := serveSelf(missCache, batch)
	if err != nil {
		return err
	}
	hitUs, err := serveSelf(0, batch)
	if err != nil {
		return err
	}
	graphUs, err := serveSelf(0, func(tw *twin, _ int) { tw.svc.PredictGraphEngine(ctx, "", gr, g) })
	if err != nil {
		return err
	}
	m["serve.miss_self_ns_per_kernel"] = 1e3 * missUs / fixedRows
	m["serve.hit_ns_per_kernel"] = 1e3 * hitUs / fixedRows
	m["serve.graph_self_us"] = graphUs

	// plan: one spec's cells priced in-process, with the real engine and
	// with a constant one, which leaves graph building and the distributed
	// and network assembly.
	spec := plan.Spec{Model: fixedModel, GPUs: append([]string(nil), evalGPUs...), FleetSizes: append([]int(nil), planFleets...)}
	if err := spec.Normalize(); err != nil {
		return err
	}
	cfgs := plan.Expand(spec)
	constant := predict.NewFuncEngine("constant", "bench", func(kernels.Kernel, gpu.Spec) (float64, error) { return 1, nil })
	const planReps = 3 // a spec's 96 cells take a tenth of a second
	m["plan.eval_us_per_cell"] = timeMedian(planReps, func() { plan.EvaluateBatch(ctx, eng, spec, cfgs) }) / 1e3 / float64(len(cfgs))
	m["plan.assemble_us_per_cell"] = timeMedian(planReps, func() { plan.EvaluateBatch(ctx, constant, spec, cfgs) }) / 1e3 / float64(len(cfgs))

	// Accuracy of the model every workload serves, over the Fig. 7 matrix.
	_, acc, err := fig7Forecasts(p, fig7Matrix(0))
	if err != nil {
		return err
	}
	m["core.mape_pct"], m["core.mape_ood_pct"] = acc.mape, acc.mapeOOD
	return nil
}

// bmmShapes returns n BMM kernels of the shape universe, repeating it as
// needed: the rows of the fixed nn and mat inputs.
func bmmShapes(n int) []kernels.Kernel {
	var bmm []kernels.Kernel
	for _, k := range shapeUniverse() {
		if k.Op == kernels.OpBMM {
			bmm = append(bmm, k)
		}
	}
	out := make([]kernels.Kernel, n)
	for i := range out {
		out[i] = bmm[i%len(bmm)]
	}
	return out
}
