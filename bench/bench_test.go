package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/loadgen"
	"neusight/internal/models"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// TestMain lets the test binary stand in for the bench binary when the
// smoke test re-executes it as the server child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == roleServer {
		if err := serverMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench server child:", err)
			os.Exit(1)
		}
		return
	}
	code := m.Run()
	if modelDir != "" {
		os.RemoveAll(modelDir)
	}
	os.Exit(code)
}

var (
	modelOnce sync.Once
	modelDir  string
	modelErr  error
)

// trainedModel trains the quick model once for every test that needs one.
func trainedModel(t *testing.T) string {
	t.Helper()
	modelOnce.Do(func() {
		if modelDir, modelErr = os.MkdirTemp("", "bench-model-"); modelErr == nil {
			modelErr = trainAndSave(modelDir)
		}
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelDir
}

func poolBytes(pool []request) []byte {
	var b bytes.Buffer
	for _, r := range pool {
		fmt.Fprintf(&b, "%d %s %s\n", r.Kind, r.Path, r.Body)
	}
	return b.Bytes()
}

func TestPoolsAreAFunctionOfTheSeed(t *testing.T) {
	paced := func(seed int64) []request {
		p, err := pacedPool(seed)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plans := func(seed int64) []request {
		var p []request
		for _, s := range planSpecs(seed) {
			p = append(p, request{Body: encode(s)})
		}
		return p
	}
	cells := func(seed int64) []request {
		var p []request
		for _, c := range fig7Matrix(seed) {
			p = append(p, request{Body: []byte(fmt.Sprint(c.Model.Name, c.Batch, c.GPU.Name, c.Training))})
		}
		return p
	}
	for name, build := range map[string]func(int64) []request{
		"kernel": kernelPool, "graph": graphPool, "paced": paced, "plan": plans, "fig7": cells,
	} {
		a, again, other := poolBytes(build(7)), poolBytes(build(7)), poolBytes(build(8))
		if !bytes.Equal(a, again) {
			t.Errorf("%s pool: the same seed gave different bytes", name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s pool: seeds 7 and 8 gave the same bytes", name)
		}
	}
}

func TestShapeUniverseAndKernelPool(t *testing.T) {
	shapes := shapeUniverse()
	if len(shapes) != 366 {
		t.Fatalf("shape universe has %d shapes, want 366", len(shapes))
	}
	if keys := len(shapes) * len(evalGPUs); keys != 2928 {
		t.Fatalf("%d cache keys, want 2928", keys)
	}
	pool := kernelPool(7)
	if len(pool) != kernelPoolSize {
		t.Fatalf("pool has %d requests, want %d", len(pool), kernelPoolSize)
	}
	seen := map[string]bool{}
	kinds := map[loadgen.Kind]int{}
	for i := range pool {
		kinds[pool[i].Kind]++
		d, err := decodeRequest(&pool[i], graphMemo{})
		if err != nil {
			t.Fatal(err)
		}
		inBatch := map[string]bool{}
		for _, k := range d.ks {
			key := k.Label() + "@" + d.gpu.Name
			if inBatch[key] {
				t.Fatalf("request %d repeats %s: in-batch duplicates would be deduplicated, not looked up", i, key)
			}
			inBatch[key], seen[key] = true, true
		}
	}
	if kinds[loadgen.KindKernel] != kernelPoolSize/2 || kinds[loadgen.KindBatch] != kernelPoolSize/2 {
		t.Errorf("pool mix is %v, want half kernel and half batch", kinds)
	}
	if len(seen) != 2928 {
		t.Errorf("one pass over the pool touches %d keys, want all 2928: the hit workload's warm-up would leave misses", len(seen))
	}
	if n := len(graphPool(7)); n != 432 {
		t.Errorf("graph pool has %d requests, want 432", n)
	}
	for _, spec := range planSpecs(7) {
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		if n := len(spec.GPUs) * len(spec.Strategies) * len(spec.FleetSizes); n != planCells {
			t.Errorf("plan spec for %s has %d cells, want %d", spec.Model, n, planCells)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := quantile(ten, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	s := statOf("ms", []float64{3, 9, 1, 7, 5}, 42)
	if s.Value != 5 || s.Q1 != 3 || s.Q3 != 7 || s.Min != 1 || s.Max != 9 || s.Slices != 5 || s.Samples != 42 || s.Unit != "ms" {
		t.Errorf("statOf of five slices = %+v, want median 5, quartiles 3–7, range 1–9, 42 samples", s)
	}
}

// TestReferenceOperation holds the reference operation to what makes it a
// reference: the same bytes in give the same bytes out, and the answer has
// one forecast per kernel asked for.
func TestReferenceOperation(t *testing.T) {
	a, err := calWork(calBody)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := calWork(calBody)
	if !bytes.Equal(a, b) {
		t.Error("two runs of the reference operation on the same request answer differently")
	}
	var ans calAnswer
	if err := json.Unmarshal(a, &ans); err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != calKernels || !(ans.Total > 0) {
		t.Errorf("the answer holds %d forecasts totalling %v ms, want %d and a positive total", len(ans.Results), ans.Total, calKernels)
	}
	if _, err := calWork([]byte("{")); err == nil {
		t.Error("a malformed request was answered")
	}
}

// TestSlicesAtTheReferenceSpeed measures an in-process instance whose pool
// is 8 operations of 1 ms and whose slices are longer than their share of
// the time, and checks the cutting — equal slices of whole passes, driven in
// equal chunks — and the arithmetic that brings a slice to the reference
// speed.
func TestSlicesAtTheReferenceSpeed(t *testing.T) {
	in := &instance{workers: 1, nproc: 2, poolLen: 8}
	in.op = func(int, uint64, bool) (int, error) {
		time.Sleep(time.Millisecond)
		return 1, nil
	}
	sl, err := in.slicing(0.1, 20, 0.2) // a share is 4 ms, a pass at least 8
	if err != nil {
		t.Fatal(err)
	}
	var ops uint64
	for _, c := range sl.chunks {
		ops += c
	}
	if sl.n < minSlices || len(sl.chunks) < 2 || ops != in.poolLen || sl.burst.ops == 0 {
		t.Fatalf("slicing = %+v, want at least %d slices of one pass of %d operations in two or more chunks, and a burst", sl, minSlices, in.poolLen)
	}
	d, err := in.measure(sl, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.slices) != sl.n || d.client.Units != sl.n*int(in.poolLen) || d.client.Failed != 0 {
		t.Fatalf("%d slices carrying %d units with %d failures, want %d slices of %d", len(d.slices), d.client.Units, d.client.Failed, sl.n, in.poolLen)
	}
	for i, c := range d.slices {
		speed := c.refElapsed / c.Elapsed.Seconds()
		if !(speed > 0) || len(c.refLat) != len(c.Lat) || (c.refCPU > 0) != (c.cpu > 0) {
			t.Errorf("slice %d: speed %v, %d of %d latencies at the reference speed, CPU %v → %v", i, speed, len(c.refLat), len(c.Lat), c.cpu, c.refCPU)
		}
		// Every latency is scaled by its own chunk's speed, so the whole
		// slice's scale lies between the smallest and the largest of them.
		lo, hi := c.refLat[0]/millisOf(c.Lat[0]), c.refLat[0]/millisOf(c.Lat[0])
		for j := range c.Lat {
			r := c.refLat[j] / millisOf(c.Lat[j])
			lo, hi = min(lo, r), max(hi, r)
		}
		if speed < lo*(1-1e-9) || speed > hi*(1+1e-9) {
			t.Errorf("slice %d: speed %v outside its chunks' %v–%v", i, speed, lo, hi)
		}
	}
	// Without bursts every speed reads 1 and the reference time is the clock's.
	plain, err := in.slicing(0.05, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err = in.measure(plain, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range d.slices {
		if c.refElapsed != c.Elapsed.Seconds() || c.refCPU != c.cpu {
			t.Errorf("slice %d without bursts: reference time %v s / %v CPU s, clock %v / %v", i, c.refElapsed, c.refCPU, c.Elapsed.Seconds(), c.cpu)
		}
	}
}

func millisOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestSelfTimes(t *testing.T) {
	// One request: loopback 100 ⊃ serve_http 70 ⊃ {graph 10, serve 40 ⊃ predict 25}.
	seq := []span{
		{ID: 1, Name: layerLoopback, Kind: "graph", Req: 0, Parent: 0, Start: 0, End: 100},
		{ID: 2, Name: layerServeHTTP, Kind: "graph", Req: 0, Parent: 1, Start: 200, End: 270},
		{ID: 3, Name: layerGraph, Kind: "graph", Req: 0, Parent: 2, Start: 300, End: 310},
		{ID: 4, Name: layerServe, Kind: "graph", Req: 0, Parent: 2, Start: 320, End: 360},
		{ID: 5, Name: layerPredict, Kind: "graph", Req: 0, Parent: 4, Start: 325, End: 350},
	}
	self := selfTimes(seq)
	for id, want := range map[int]float64{1: 30, 2: 20, 3: 10, 4: 15, 5: 25} {
		if self[id] != want {
			t.Errorf("span %d self = %v ns, want %v", id, self[id], want)
		}
	}
	b := budgetOf(seq)
	if got := b.sumShare(); got != 1 {
		t.Errorf("sum share of an exact chain = %v, want 1", got)
	}
	// Children that ran side by side cover the union of their intervals.
	par := []span{
		{ID: 1, Name: layerLoopback, Kind: kindPlan, Parent: 0, Start: 0, End: 100},
		{ID: 2, Name: layerPlan, Kind: kindPlan, Parent: 1, Start: 200, End: 260},
		{ID: 3, Name: layerPlan, Kind: kindPlan, Parent: 1, Start: 210, End: 280},
	}
	if got := selfTimes(par)[1]; got != 20 {
		t.Errorf("self under two overlapping children = %v, want 100 - 80 = 20", got)
	}
	// A layer some requests never reach counts as zero for them.
	mixed := []span{
		{ID: 1, Name: layerLoopback, Kind: "kernel", Req: 0, Start: 0, End: 10},
		{ID: 2, Name: layerLoopback, Kind: "kernel", Req: 1, Start: 0, End: 10},
		{ID: 3, Name: layerLoopback, Kind: "kernel", Req: 2, Start: 0, End: 10},
		{ID: 4, Name: layerServe, Kind: "kernel", Req: 2, Parent: 3, Start: 20, End: 24},
	}
	if got := budgetOf(mixed).self["kernel"][layerServe]; got != 0 {
		t.Errorf("median self of a layer one request in three reaches = %v µs, want 0", got)
	}
}

// TestTapSeesWhatTheServiceHandsDown is the dedup case: a cold graph
// request hands the engine the graph's distinct kernels once, not its
// nodes, and a warm one hands it nothing — so the replay below the service
// must start from what the tap recorded, not from the request.
func TestTapSeesWhatTheServiceHandsDown(t *testing.T) {
	dir := trainedModel(t)
	tr := &tracer{t0: time.Now()}
	tw, err := newTwin(tr, childConfig{ModelDir: dir}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tw.stop()
	mc := models.MustLookup("GPT2-Large")
	d := newDedupGraph(mc.InferenceGraph(2))
	g := gpu.MustLookup("H100")
	if len(d.uniq) >= len(d.gr.Nodes)/10 {
		t.Fatalf("graph has %d distinct kernels in %d nodes: not the dedup case", len(d.uniq), len(d.gr.Nodes))
	}
	for pass, wantCalls := range []int{1, 0} {
		tw.tap.calls = nil
		tr.timed(layerServe, "graph", pass, 0, len(d.gr.Nodes), func(id int) {
			tw.tap.arm("graph", pass, id)
			if _, _, err := tw.svc.PredictGraphEngine(context.Background(), "", d.gr, g); err != nil {
				t.Error(err)
			}
		})
		tw.tap.disarm()
		if len(tw.tap.calls) != wantCalls {
			t.Fatalf("pass %d: the engine was called %d times, want %d", pass, len(tw.tap.calls), wantCalls)
		}
		if wantCalls == 1 {
			if got := len(tw.tap.calls[0].reqs); got != len(d.uniq) {
				t.Errorf("cold graph handed the engine %d kernels, want its %d distinct ones", got, len(d.uniq))
			}
			nets, err := loadNetworks(dir)
			if err != nil {
				t.Fatal(err)
			}
			tw.tap.below(nets)
		}
	}
	byName := map[string]int{}
	for _, s := range tr.spans {
		byName[s.Name]++
		if s.Name != layerServe && s.Parent == 0 {
			t.Errorf("%s span %d has no parent", s.Name, s.ID)
		}
	}
	if byName[layerPredict] != 1 || byName[layerCore] != 1 || byName[layerNN] == 0 || byName[layerNN] != byName[layerMat] {
		t.Errorf("spans by layer = %v, want one predict and core, and a mat span under every nn span", byName)
	}
	if self := selfTimes(tr.spans); self[1] <= 0 {
		t.Errorf("cold serve span has self time %v ns after subtracting the engine call, want > 0", self[1])
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json to the contract it is read under
// and to the program: every declared workload and metric is one the program
// produces, and nothing it produces is undeclared.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Errorf("keys are %q, want exactly %q", strings.Join(got, " "), want)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", spec.RunSeconds)
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1-64 letters, digits, _ . -", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	var declared, have []string
	for _, w := range spec.Workloads {
		name(w.Name)
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(declared, " ") != strings.Join(have, " ") {
		t.Errorf("declared workloads %v, the program runs %v", declared, have)
	}

	endToEnd := map[string]stat{"setup_s": {Unit: "s"}, "ops_per_s": {Unit: "1/s"}, "p90_ms": {Unit: "ms"},
		"cpu_ms_per_op": {Unit: "ms"}, "allocs_per_op": {Unit: "count"}}
	if _, err := selectMetrics(spec.EndToEnd, endToEnd); err != nil {
		t.Error(err)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	perLayer := map[string]stat{}
	for n, u := range layerUnits {
		perLayer[n] = stat{Unit: u}
	}
	if _, err := selectMetrics(spec.PerLayer, perLayer); err != nil {
		t.Error(err)
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want at most 128", len(spec.PerLayer))
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not 1-16 of letters, digits, _ / %% . -", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := specMetric{Name: "p90_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	for _, c := range []struct {
		name string
		m    specMetric
		a, b stat
		want string
	}{
		{"same", lower, tight(10), tight(10.2), verdictWithin},
		{"slower", lower, tight(10), tight(11.5), verdictWorse},
		{"faster", lower, tight(10), tight(8), verdictBetter},
		{"fewer ops", higher, tight(1000), tight(850), verdictWorse},
		{"more ops", higher, tight(1000), tight(1200), verdictBetter},
		{"noisy and overlapping", lower, stat{Value: 10, Q1: 8, Q3: 12}, stat{Value: 10.5, Q1: 9, Q3: 13}, verdictUnresolved},
		{"noisy but worse anyway", lower, stat{Value: 10, Q1: 8, Q3: 12}, stat{Value: 12, Q1: 10, Q3: 14}, verdictWorse},
		{"noisy but clear of each other", lower, stat{Value: 10, Q1: 9, Q3: 12}, stat{Value: 7, Q1: 6, Q3: 8}, verdictBetter},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	spec := &benchSpec{EndToEnd: []specMetric{lower, higher}}
	dir := t.TempDir()
	write := func(name string, p90, ops float64) string {
		path := filepath.Join(dir, name)
		rep := report{Results: []*result{{Workload: "w", Metrics: map[string]stat{"p90_ms": tight(p90), "ops_per_s": tight(ops)}}}}
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, worse := write("a.json", 10, 1000), write("same.json", 10.1, 995), write("worse.json", 12, 1000)
	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, same); err != nil {
		t.Errorf("comparing a run with its like: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), verdictWithin) || strings.Contains(out.String(), verdictWorse) {
		t.Errorf("comparison table:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, a, worse); err == nil {
		t.Errorf("a 20%% slower p90 did not fail the comparison:\n%s", out.String())
	}
}

func TestProfileBuckets(t *testing.T) {
	top := `File: bench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.30s 30.00% 30.00%      0.30s 30.00%  encoding/json.(*decodeState).object
     0.25s 25.00% 55.00%      0.25s 25.00%  runtime.mallocgc
     0.20s 20.00% 75.00%      0.20s 20.00%  internal/runtime/syscall.Syscall6
     0.15s 15.00% 90.00%      0.15s 15.00%  neusight/internal/serve.(*lruCache).Get
     0.10s 10.00%   100%      0.10s 10.00%  fmt.(*pp).doPrintf
`
	got := bucketTop(top)
	for bucket, want := range map[string]float64{"json": 0.30, "runtime": 0.25, "net": 0.20, "neusight": 0.15, "other": 0.10} {
		if d := got[bucket] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("bucket %s = %v, want %v", bucket, got[bucket], want)
		}
	}
}

// TestKernelFromBodyMatchesTheEndpoint sends every shape of the universe
// through the real handler and compares with the kernel the bench rebuilds
// from the same bytes: the offline answers are only as good as that
// reconstruction.
func TestKernelFromBodyMatchesTheEndpoint(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	svc := serve.NewMulti(reg, predict.EngineRoofline, serve.Config{})
	tw := &twin{handler: serve.NewHandler(svc)}
	for _, k := range shapeUniverse() {
		body := serve.KernelRequestV2{KernelRequest: kernelBody(k, "V100"), Engine: predict.EngineRoofline}
		rec, err := tw.serveHTTP(&request{Path: "/v2/predict/kernel", Body: encode(body)})
		if err != nil {
			t.Fatal(err)
		}
		var resp serve.KernelResponseV2
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		rebuilt, err := kernelFromBody(body.KernelRequest)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kernel != rebuilt.Label() || rebuilt.Label() != k.Label() {
			t.Errorf("kernel %s: the endpoint built %s, the bench rebuilt %s", k.Label(), resp.Kernel, rebuilt.Label())
		}
	}
}

// TestSmoke runs every workload end to end through the code path of main —
// set-up, server child, verified warm-up, slices, self-checks, declared
// metrics — with 100 ms slices and an already trained model, then one
// workload traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server children and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		e, err := newEnv(root, options{seed: 7, seconds: 0.5, setups: 1, modelDir: trainedModel(t), trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		selected := workloads
		if trace {
			e.seconds = 0.8
			selected = workloads[3:4] // serve_graphs: the one pool with the graph layer beside serve
		}
		rep, err := e.run(spec, selected)
		os.RemoveAll(e.tmp)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		for _, r := range rep.Results {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
			}
			line, err := json.Marshal(r.line())
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if !trace {
				for name, m := range back.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, end-to-end metrics are never 0", r.Workload, name, m.Value)
					}
				}
			}
		}
		if trace {
			if _, err := os.Stat(filepath.Join(e.out, "trace.serve_graphs.jsonl")); err != nil {
				t.Error(err)
			}
			m := rep.Results[0].Metrics
			// serve_http's own share of a graph request is a few tens of µs
			// between two replays of a millisecond each and may read either
			// side of zero; the layers around it may not.
			for _, name := range []string{"loopback.graph_self_us", "serve.graph_self_us", "core.kernel_ns", "layers.sum_share", "process.allocs_per_op"} {
				if m[name].Value <= 0 {
					t.Errorf("traced serve_graphs: %s = %v, want > 0", name, m[name].Value)
				}
			}
		}
	}
}
