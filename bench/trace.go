package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"neusight/internal/cluster"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/loadgen"
	"neusight/internal/mat"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// Layer names of the spans, one per repository module on the request path,
// outermost first. "op" is the root of a workload that has no HTTP hop.
const (
	layerOp        = "op"
	layerCluster   = "cluster"
	layerLoopback  = "loopback"
	layerServeHTTP = "serve_http"
	layerServe     = "serve"
	layerGraph     = "graph"
	layerPlan      = "plan"
	layerPredict   = "predict"
	layerCore      = "core"
	layerNN        = "nn"
	layerMat       = "mat"
)

// chainLayers are the layers whose self times should add up to a request's
// end-to-end time.
var chainLayers = []string{layerOp, layerCluster, layerLoopback, layerServeHTTP, layerServe, layerGraph,
	layerPlan, layerPredict, layerCore, layerNN, layerMat}

// replayLimit is how many requests of a pool the traced run replays at
// every boundary, and planReplayLimit how many plan jobs (a job is a
// hundred times a request).
const (
	replayLimit     = 200
	planReplayLimit = 3
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one (0 for a root). Because
// the bench times each boundary from outside, in a replay of its own, a
// child's interval does not lie inside its parent's: the link is logical,
// and a layer's self time is its span's duration minus its children's.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Kind   string `json:"kind"` // kernel, batch, graph, plan or forecast
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"` // kernels handed to the call (cells, for a plan)
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer holds the spans of a traced run in memory until it ends. Replays
// are sequential but for the plan evaluation, which like the planner runs
// on every core, hence the lock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// timed records a span around fn and returns its ID. The span exists, and
// fn is told its ID, before fn runs, so that calls made inside fn can name
// it as their parent.
func (t *tracer) timed(name, kind string, req, parent, count int, fn func(id int)) int {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Kind: kind, Req: req, Parent: parent, Count: count})
	t.mu.Unlock()
	start := time.Since(t.t0)
	fn(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(end)
	t.mu.Unlock()
	return id
}

func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// selfTimes returns each span's self time in nanoseconds, by span ID: its
// duration minus the time its children cover. Children replayed one after
// another cover the sum of their durations; children that ran side by side
// (a plan's cells on two cores) cover the union of their intervals, which
// is what the parent had to wait for.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, until := int64(0), int64(math.MinInt64)
		for _, c := range cs {
			from := max(c.Start, until)
			if c.End > from {
				covered += c.End - from
				until = c.End
			}
		}
		self[s.ID] = s.dur() - float64(covered)
	}
	return self
}

// layerBudget folds spans into the median self time per request, in
// microseconds, of every layer for every request kind, plus the median
// duration of the kind's root spans.
type layerBudget struct {
	self map[string]map[string]float64 // kind -> layer -> median self µs per request
	root map[string]float64            // kind -> median root duration µs
}

func budgetOf(spans []span) layerBudget {
	self := selfTimes(spans)
	type key struct {
		kind, layer string
		req         int
	}
	perReq := map[key]float64{}
	roots := map[string][]float64{}
	reqs := map[string]map[int]bool{}
	for _, s := range spans {
		perReq[key{s.Kind, s.Name, s.Req}] += self[s.ID]
		if s.Parent == 0 {
			roots[s.Kind] = append(roots[s.Kind], s.dur()/1e3)
		}
		if reqs[s.Kind] == nil {
			reqs[s.Kind] = map[int]bool{}
		}
		reqs[s.Kind][s.Req] = true
	}
	b := layerBudget{self: map[string]map[string]float64{}, root: map[string]float64{}}
	for kind, rs := range reqs {
		b.self[kind] = map[string]float64{}
		for _, layer := range chainLayers {
			// A request that never reached a layer spent nothing there: it
			// counts as a zero, or the median would be of the reached only.
			vals := make([]float64, 0, len(rs))
			reached := false
			for r := range rs {
				v, ok := perReq[key{kind, layer, r}]
				reached = reached || ok
				vals = append(vals, v/1e3)
			}
			if reached {
				b.self[kind][layer] = median(vals)
			}
		}
		b.root[kind] = median(roots[kind])
	}
	return b
}

// sumShare is Σ layer self times ÷ end-to-end time, averaged over the
// request kinds present. Self times are medians taken layer by layer from
// separate replays, so they need not add up; this says how nearly they do.
// Plan jobs are left out: their cells run side by side, so their self times
// add up to CPU time, not to the time the job took.
func (b layerBudget) sumShare() float64 {
	var shares []float64
	for kind, layers := range b.self {
		if b.root[kind] == 0 || kind == kindPlan {
			continue
		}
		sum := 0.0
		for _, v := range layers {
			sum += v
		}
		shares = append(shares, sum/b.root[kind])
	}
	if len(shares) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	return total / float64(len(shares))
}

// tapEngine is the engine the traced twin registers in place of CoreEngine.
// It forwards every call; while armed it records a predict span around each
// with the requests it was handed, which is how the replay learns what the
// service really passes down — a warm cache passes nothing, a graph of a
// thousand nodes passes its dozen distinct kernels.
type tapEngine struct {
	*predict.CoreEngine
	tr     *tracer
	armed  bool
	kind   string
	req    int
	parent int
	calls  []tapCall
}

type tapCall struct {
	span   int
	kind   string
	req    int
	reqs   []predict.Request
	single bool   // the engine was asked through PredictKernel, which takes core's single-kernel path
	core   func() // when set, the call the engine made into core, in place of the batch entry point
}

func (t *tapEngine) arm(kind string, req, parent int) {
	t.armed, t.kind, t.req, t.parent = true, kind, req, parent
}
func (t *tapEngine) disarm() { t.armed = false }

func (t *tapEngine) PredictKernels(ctx context.Context, reqs []predict.Request) []predict.Outcome {
	if !t.armed {
		return t.CoreEngine.PredictKernels(ctx, reqs)
	}
	var outs []predict.Outcome
	id := t.tr.timed(layerPredict, t.kind, t.req, t.parent, len(reqs), func(int) { outs = t.CoreEngine.PredictKernels(ctx, reqs) })
	t.calls = append(t.calls, tapCall{span: id, kind: t.kind, req: t.req, reqs: append([]predict.Request(nil), reqs...)})
	return outs
}

func (t *tapEngine) PredictKernel(ctx context.Context, req predict.Request) (predict.Result, error) {
	if !t.armed {
		return t.CoreEngine.PredictKernel(ctx, req)
	}
	var res predict.Result
	var err error
	id := t.tr.timed(layerPredict, t.kind, t.req, t.parent, 1, func(int) { res, err = t.CoreEngine.PredictKernel(ctx, req) })
	t.calls = append(t.calls, tapCall{span: id, kind: t.kind, req: t.req, reqs: []predict.Request{req}, single: true})
	return res, err
}

// below replays what lies under the recorded predict spans, each layer with
// the inputs the one above really hands it: core with the very requests the
// engine was given; nn with one forward pass per operator category over
// those kernels' normalized feature rows; mat with the products of that
// pass over the activations it produces.
func (t *tapEngine) below(nets map[kernels.Category]*network) {
	for _, call := range t.calls {
		byGPU := map[string][]kernels.Kernel{}
		specs := map[string]gpu.Spec{}
		for _, r := range call.reqs {
			byGPU[r.GPU.Name] = append(byGPU[r.GPU.Name], r.Kernel)
			specs[r.GPU.Name] = r.GPU
		}
		for name, ks := range byGPU {
			g := specs[name]
			coreID := t.tr.timed(layerCore, call.kind, call.req, call.span, len(ks), func(int) {
				switch {
				case call.core != nil:
					call.core()
				case call.single:
					t.P.PredictKernelDetail(ks[0], g)
				default:
					t.P.PredictKernelsDetail(ks, g)
				}
			})
			byCat := map[kernels.Category][]kernels.Kernel{}
			for _, k := range ks {
				if _, ok := nets[k.Category()]; ok {
					byCat[k.Category()] = append(byCat[k.Category()], k)
				}
			}
			for cat, cks := range byCat {
				net := nets[cat]
				x := net.inputs(t.P.TileDB, cks, g)
				nnID := t.tr.timed(layerNN, call.kind, call.req, coreID, len(cks), func(int) { net.compiled.Forward(x) })
				acts, outs := net.activations(x)
				t.tr.timed(layerMat, call.kind, call.req, nnID, len(cks), func(int) {
					for i, w := range net.ws {
						mat.MatMulInto(outs[i], acts[i], w)
					}
				})
			}
		}
	}
}

// twin is the in-process copy of the child's serving stack that the traced
// run times boundary by boundary.
type twin struct {
	tap     *tapEngine
	svc     *serve.Service
	handler http.Handler
	stop    func()
}

func newTwin(tr *tracer, cfg childConfig, recordTo string) (*twin, error) {
	p, err := loadModel(cfg.ModelDir)
	if err != nil {
		return nil, err
	}
	tap := &tapEngine{CoreEngine: predict.NewCoreEngine(p), tr: tr}
	if cfg.Record != "" {
		cfg.Record = recordTo
	}
	cfg.PlanDir = "" // the twin times plan.EvaluateBatch directly, not a second planner
	svc, _, stops, err := newMember(tap, cfg, 0)
	if err != nil {
		return nil, err
	}
	return &twin{tap: tap, svc: svc, handler: serve.NewHandler(svc), stop: func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}}, nil
}

// serveHTTP sends rq through the twin's handler into a recorder.
func (tw *twin) serveHTTP(rq *request) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	tw.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.Path, bytes.NewReader(rq.Body)))
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("twin answered %s with status %d: %.200s", rq.Path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// replayHTTP replays the first requests of an HTTP workload's pool, one at
// a time on this goroutine, at every boundary of
// cluster ⊃ loopback ⊃ serve_http ⊃ {graph, serve ⊃ predict ⊃ core ⊃ nn ⊃ mat}.
// Each boundary is a pass of its own over the same requests, so the cache a
// request meets is the one the previous pass left behind the same number of
// requests ago — as in the steady state of the workload itself.
func replayHTTP(tr *tracer, in *instance, tw *twin, nets map[kernels.Category]*network) (reqBytes, respBytes float64, err error) {
	n := min(replayLimit, len(in.pool))
	pool := in.pool[:n]
	graphs := graphMemo{}
	decodedReqs := make([]decoded, n)
	for i := range pool {
		if decodedReqs[i], err = decodeRequest(&pool[i], graphs); err != nil {
			return 0, 0, err
		}
	}
	// Warm the twin as the child was warmed: one pass over the whole pool.
	for i := range in.pool {
		if _, err := tw.serveHTTP(&in.pool[i]); err != nil {
			return 0, 0, err
		}
	}

	// Which member owns each request's key, for the cluster hop.
	var owner map[string]int
	if len(in.child.Addrs) > 1 {
		var ring cluster.RingResponse
		if err := getJSON(in.hc, in.child.url(0)+"/v2/cluster/ring", &ring); err != nil {
			return 0, 0, err
		}
		index := map[string]int{}
		for i, a := range in.child.Addrs {
			index[a] = i
		}
		owner = map[string]int{}
		for _, a := range ring.Assignments {
			if a.Engine == predict.EngineNeuSight {
				owner[a.GPU] = index[a.Owner]
			}
		}
	}

	var buf bytes.Buffer
	loopback := make([]int, n)
	for i := range pool {
		rq, kind := &pool[i], pool[i].Kind.String()
		home := 0
		if owner != nil {
			home = owner[rq.GPU]
		}
		var perr error
		loopback[i] = tr.timed(layerLoopback, kind, i, 0, rq.Kernels, func(int) { perr = post(in.hc, in.child.url(home), rq, &buf, false) })
		if perr != nil {
			return 0, 0, perr
		}
		reqBytes += float64(len(rq.Body))
		respBytes += float64(buf.Len())
	}
	if owner != nil {
		for i := range pool {
			rq := &pool[i]
			away := (owner[rq.GPU] + 1) % len(in.child.Addrs)
			var perr error
			id := tr.timed(layerCluster, rq.Kind.String(), i, 0, rq.Kernels, func(int) { perr = post(in.hc, in.child.url(away), rq, &buf, false) })
			if perr != nil {
				return 0, 0, perr
			}
			tr.spans[loopback[i]-1].Parent = id
		}
	}
	handler := make([]int, n)
	for i := range pool {
		rq := &pool[i]
		var herr error
		handler[i] = tr.timed(layerServeHTTP, rq.Kind.String(), i, loopback[i], rq.Kernels, func(int) { _, herr = tw.serveHTTP(rq) })
		if herr != nil {
			return 0, 0, herr
		}
	}
	ctx := context.Background()
	for i := range pool {
		rq, d, kind := &pool[i], decodedReqs[i], pool[i].Kind.String()
		var serr error
		if rq.Kind == loadgen.KindGraph {
			// The handler builds the graph before it asks the service;
			// that work belongs to the graph layer, beside serve.
			gr := d.graph.gr
			tr.timed(layerGraph, kind, i, handler[i], len(gr.Nodes), func(int) { gr = d.graph.rebuild() })
			tr.timed(layerServe, kind, i, handler[i], len(gr.Nodes), func(id int) {
				tw.tap.arm(kind, i, id)
				_, _, serr = tw.svc.PredictGraphEngine(ctx, "", gr, d.gpu)
			})
		} else {
			tr.timed(layerServe, kind, i, handler[i], len(d.ks), func(id int) {
				tw.tap.arm(kind, i, id)
				if rq.Kind == loadgen.KindKernel {
					_, serr = tw.svc.PredictKernelEngine(ctx, "", d.ks[0], d.gpu)
				} else {
					_, serr = tw.svc.PredictBatchEngine(ctx, "", d.ks, d.gpu)
				}
			})
		}
		tw.tap.disarm()
		if serr != nil {
			return 0, 0, serr
		}
	}
	tw.tap.below(nets)
	return reqBytes / float64(n), respBytes / float64(n), nil
}

// replayOffline replays the first cells of forecast_offline:
// op ⊃ {graph, predict ⊃ core ⊃ nn ⊃ mat}.
func replayOffline(tr *tracer, in *instance, nets map[kernels.Category]*network) error {
	p, err := loadModel(in.cfg.ModelDir)
	if err != nil {
		return err
	}
	tap := &tapEngine{CoreEngine: predict.NewCoreEngine(p), tr: tr}
	n := min(replayLimit, len(in.cells))
	ctx := context.Background()
	for i, c := range in.cells[:n] { // warm the predictor's tile cache, as the measured instance's is
		if _, _, err := tap.PredictGraph(ctx, buildGraph(c.Model, c.Batch, c.Training, false), c.GPU); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
	}
	const kind = "forecast"
	for i, c := range in.cells[:n] {
		gr := buildGraph(c.Model, c.Batch, c.Training, false)
		root := tr.timed(layerOp, kind, i, 0, len(gr.Nodes), func(int) {
			tap.PredictGraph(ctx, buildGraph(c.Model, c.Batch, c.Training, false), c.GPU)
		})
		tr.timed(layerGraph, kind, i, root, len(gr.Nodes), func(int) { buildGraph(c.Model, c.Batch, c.Training, false) })
		// CoreEngine.PredictGraph is predict's boundary for a whole graph;
		// under it core.Predictor.PredictGraph receives every node, not the
		// distinct kernels.
		var reqs []predict.Request
		for _, k := range gr.Kernels() {
			reqs = append(reqs, predict.Request{Kernel: k, GPU: c.GPU})
		}
		id := tr.timed(layerPredict, kind, i, root, len(reqs), func(int) { tap.PredictGraph(ctx, gr, c.GPU) })
		g := c.GPU
		tap.calls = append(tap.calls, tapCall{span: id, kind: kind, req: i, reqs: reqs, core: func() { p.PredictGraph(gr, g) }})
	}
	tap.below(nets)
	return nil
}

const kindPlan = "plan"

// replayPlan replays the first plan jobs: loopback (the whole job over
// HTTP) ⊃ plan ⊃ predict ⊃ core ⊃ nn ⊃ mat. The planner prices a job's
// cells on every core, so the in-process replay does too: one goroutine per
// core, each a plan span over its share of the cells with a tap of its own.
func replayPlan(tr *tracer, in *instance, nets map[kernels.Category]*network, workers int) error {
	p, err := loadModel(in.cfg.ModelDir)
	if err != nil {
		return err
	}
	taps := make([]*tapEngine, workers)
	for w := range taps {
		taps[w] = &tapEngine{CoreEngine: predict.NewCoreEngine(p), tr: tr}
	}
	ctx := context.Background()
	for i, spec := range in.planSpecs[:min(planReplayLimit, len(in.planSpecs))] {
		if err := spec.Normalize(); err != nil {
			return err
		}
		cfgs := plan.Expand(spec)
		if _, err := plan.EvaluateBatch(ctx, taps[0], spec, cfgs); err != nil { // warm the tile cache
			return err
		}
		var jerr error
		job := tr.timed(layerLoopback, kindPlan, i, 0, len(cfgs), func(int) { _, jerr = runPlanJob(in.hc, in.child.url(0), encode(spec)) })
		if jerr != nil {
			return jerr
		}
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range taps {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var share []plan.Config
				for j := w; j < len(cfgs); j += workers {
					share = append(share, cfgs[j])
				}
				tr.timed(layerPlan, kindPlan, i, job, len(share), func(id int) {
					taps[w].arm(kindPlan, i, id)
					_, errs[w] = plan.EvaluateBatch(ctx, taps[w], spec, share)
				})
				taps[w].disarm()
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	for _, tap := range taps {
		tap.below(nets)
	}
	return nil
}

// timeMedian runs fn reps times and returns the median duration in
// nanoseconds, after one untimed call to settle caches and pools.
func timeMedian(reps int, fn func()) float64 {
	fn()
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return median(ds)
}

// startProfile begins a CPU profile of the program under test — the child,
// or this process when the workload runs in it — and returns what stops it.
func startProfile(in *instance, path string) (func() error, error) {
	if in.child != nil {
		if err := getOK(in.hc, in.child.url(0)+"/bench/profile?file="+path); err != nil {
			return nil, err
		}
		return func() error { return getOK(in.hc, in.child.url(0)+"/bench/profile") }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func getOK(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}
