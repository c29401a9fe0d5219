package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"neusight/internal/cluster"
	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/loadgen"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// pacedRate is serve_paced's offered load in requests per second: about a
// third of what the closed loop reaches on the reference box, so queues
// form only when something stalls.
const pacedRate = 1000

// missCache is serve_kernels_miss's cache size: below the 2928-key working
// set, so the LRU evicts every key before its next use.
const missCache = 512

// counters are the cumulative server-side counts a workload reads around
// its measured slices. Members of a cluster child are summed.
type counters struct {
	Proc  procSnap
	Serve serve.Stats
	Steer cluster.SteerStats
}

// instance is one workload, set up and warm, ready to be measured.
type instance struct {
	workers int
	nproc   int // goroutines the reference operation runs on, whatever the workload's own count
	poolLen uint64
	op      opFunc
	arrival loadgen.Arrival // non-nil: open loop on this arrival process
	child   *child          // nil: the program under test runs inside the bench process
	hc      *http.Client
	next    atomic.Uint64

	// What the traced run replays, and what it builds its in-process twin
	// of the child from.
	pool  []request // HTTP workloads
	cells []cell    // forecast_offline
	cfg   childConfig

	// plan_matrix job bookkeeping, accumulated by op.
	planDone, planRemote, planRedispatched atomic.Int64
	planSpecs                              []plan.Spec

	// check judges the workload's own precondition from the counter deltas
	// of the measured slices; a non-nil error aborts the run.
	check func(d delta) error
}

// delta is what the server counted during the measured slices, with what
// the client saw beside it.
type delta struct {
	before, after counters
	slices        []cut   // one per slice
	mallocs       uint64  // heap objects the program under test allocated during the slices alone
	client        phase   // the slices merged
	clientCPU     float64 // CPU seconds of the bench process over all slices
}

// late is how late the paced generator handed requests over, in ms: the
// q-quantile of each slice, and of those the median, as every metric is
// taken. It is 0 for a closed loop, which has no schedule.
func (d delta) late(q float64) float64 {
	var per []float64
	for _, ph := range d.slices {
		if len(ph.Late) > 0 {
			per = append(per, quantile(millis(ph.Late), q))
		}
	}
	return median(per)
}

// allocsPerOp is how many heap objects the program under test allocated per
// unit of work over the measured slices. Unlike every time, it repeats to a
// fraction of a percent on a noisy box.
func (d delta) allocsPerOp() float64 {
	if d.client.Units == 0 {
		return 0
	}
	return float64(d.mallocs) / float64(d.client.Units)
}

// clientCPUShare is the bench process's share of all CPU spent. For a
// workload that runs in the bench process the two are one and it is 0.
func (d delta) clientCPUShare() float64 {
	server := d.after.Proc.CPUSec - d.before.Proc.CPUSec
	if d.clientCPU+server <= 0 {
		return 0
	}
	return d.clientCPU / (d.clientCPU + server)
}

func (d delta) hitShare() float64 {
	hits := float64(d.after.Serve.CacheHits - d.before.Serve.CacheHits)
	misses := float64(d.after.Serve.CacheMisses - d.before.Serve.CacheMisses)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func (d delta) proxiedShare() float64 {
	sent := float64(d.client.Attempted)
	if sent == 0 {
		return 0
	}
	return float64(d.after.Steer.Proxied-d.before.Steer.Proxied) / sent
}

func (in *instance) close() error {
	if in.hc != nil {
		in.hc.CloseIdleConnections()
	}
	if in.child != nil {
		return in.child.stop()
	}
	return nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// proc reads what the program under test has consumed so far: the child's
// own account over HTTP, or this process's when the workload runs in it.
func (in *instance) proc(withMem bool) (procSnap, error) {
	if in.child == nil {
		return readProc(withMem), nil
	}
	mem := "0"
	if withMem {
		mem = "1"
	}
	var p procSnap
	err := getJSON(in.hc, in.child.url(0)+"/bench/proc?mem="+mem, &p)
	return p, err
}

// snapshot reads the counters: the child's over HTTP, or this process's own
// when the workload runs in-process.
func (in *instance) snapshot(withMem bool) (counters, error) {
	var c counters
	var err error
	if c.Proc, err = in.proc(withMem); err != nil || in.child == nil {
		return c, err
	}
	for m := range in.child.Addrs {
		var st serve.StatsV2
		if err := getJSON(in.hc, in.child.url(m)+"/v2/stats", &st); err != nil {
			return c, err
		}
		c.Serve.Requests += st.Requests
		c.Serve.GraphRequests += st.GraphRequests
		c.Serve.BatchRequests += st.BatchRequests
		c.Serve.BatchedKernels += st.BatchedKernels
		c.Serve.CacheHits += st.CacheHits
		c.Serve.CacheMisses += st.CacheMisses
		c.Serve.Coalesced += st.Coalesced
		c.Serve.Errors += st.Errors
		c.Serve.Rejected += st.Rejected
		if len(in.child.Addrs) == 1 {
			continue
		}
		var ring cluster.RingResponse
		if err := getJSON(in.hc, in.child.url(m)+"/v2/cluster/ring", &ring); err != nil {
			return c, err
		}
		c.Steer.Proxied += ring.Steering.Proxied
		c.Steer.FailedOver += ring.Steering.FailedOver
		c.Steer.Misrouted += ring.Steering.Misrouted
		c.Steer.ProxyFailures += ring.Steering.ProxyFailures
	}
	return c, nil
}

// workload is a named way of setting an instance up, in two parts. prepare
// is the harness's own share, done once per run: build the pool and derive
// its offline answers from the saved model in dir. The boot function it
// returns is the program's share, done setupRuns times over: start the
// child, load the model, verify every answer and warm up.
type workload struct {
	name    string
	prepare func(e *env, dir string) (boot func() (*instance, error), err error)
}

// workloads lists the seven in the order they run. BENCHMARK.json carries
// the sentence that says why each exists.
var workloads = []workload{
	{"forecast_offline", prepareOffline},
	{"serve_kernels_miss", func(e *env, dir string) (func() (*instance, error), error) {
		return prepareHTTP(e, dir, childConfig{Members: 1, Cache: missCache, Record: filepath.Join(e.tmp, "served.jsonl")}, kernelPool(e.seed),
			func(d delta) error {
				if s := d.hitShare(); s > 0.05 {
					return fmt.Errorf("serve.cache_hit_share is %.3f, want at most 0.05: the cache is not thrashing", s)
				}
				return nil
			})
	}},
	{"serve_kernels_hit", func(e *env, dir string) (func() (*instance, error), error) {
		return prepareHTTP(e, dir, childConfig{Members: 1}, kernelPool(e.seed), wantWarm)
	}},
	{"serve_graphs", func(e *env, dir string) (func() (*instance, error), error) {
		return prepareHTTP(e, dir, childConfig{Members: 1}, graphPool(e.seed), nil)
	}},
	{"serve_paced", func(e *env, dir string) (func() (*instance, error), error) {
		pool, err := pacedPool(e.seed)
		if err != nil {
			return nil, err
		}
		boot, err := prepareHTTP(e, dir, childConfig{Members: 1}, pool, nil)
		if err != nil {
			return nil, err
		}
		return func() (*instance, error) {
			in, err := boot()
			if err != nil {
				return nil, err
			}
			in.arrival, err = loadgen.ArrivalSpec{Process: loadgen.ArrivalPoisson, Seed: e.seed}.New(pacedRate)
			if err != nil {
				in.close()
				return nil, err
			}
			return in, nil
		}, nil
	}},
	{"cluster_proxy", func(e *env, dir string) (func() (*instance, error), error) {
		return prepareHTTP(e, dir, childConfig{Members: clusterMembers}, kernelPool(e.seed), func(d delta) error {
			if s := d.proxiedShare(); s < 0.55 || s > 0.75 {
				return fmt.Errorf("cluster.proxied_share is %.3f, want 0.55 to 0.75: round-robin should send two requests in three to a non-owner", s)
			}
			return wantWarm(d)
		})
	}},
	{"plan_matrix", preparePlan},
}

const clusterMembers = 3

func wantWarm(d delta) error {
	if s := d.hitShare(); s < 0.95 {
		return fmt.Errorf("serve.cache_hit_share is %.3f, want at least 0.95: the warm-up did not fill the cache", s)
	}
	return nil
}

// prepareHTTP is the set-up every HTTP workload shares. Once: the offline
// answers for the pool, from the saved model loaded in this process. Per
// boot: a server child loading the same files, and one pass over the pool
// with every answer compared, which is also the warm-up. Requests go to the
// child's members round-robin (one member: always that one); a proxying
// member forwards to the owner, so one pass warms every owner's cache.
func prepareHTTP(e *env, dir string, cc childConfig, pool []request, check func(delta) error) (func() (*instance, error), error) {
	p, err := loadModel(dir)
	if err != nil {
		return nil, err
	}
	if err := expectations(p, pool); err != nil {
		return nil, err
	}
	cc.ModelDir = dir
	boots := 0
	return func() (*instance, error) {
		cc := cc
		if cc.Record != "" { // each boot records into a file of its own, as a fresh deployment would
			boots++
			cc.Record = fmt.Sprintf("%s.boot%d", cc.Record, boots)
		}
		ch, err := startChild(cc)
		if err != nil {
			return nil, err
		}
		e.childProcs = ch.GOMAXPROCS
		in := &instance{workers: e.nproc, nproc: e.nproc, poolLen: uint64(len(pool)), child: ch, hc: newHTTPClient(e.nproc),
			pool: pool, cfg: cc, check: check}
		bufs := make([]bytes.Buffer, e.nproc)
		members := uint64(len(ch.Addrs))
		in.op = func(w int, i uint64, verify bool) (int, error) {
			return 1, post(in.hc, ch.url(int(i%members)), &pool[i%in.poolLen], &bufs[w], verify)
		}
		if ph := passLoop(in.workers, in.poolLen, &in.next, in.op, true); ph.Failed > 0 {
			in.close()
			return nil, fmt.Errorf("%d of %d warm-up requests failed; first: %w", ph.Failed, ph.Attempted, ph.Err)
		}
		return in, nil
	}, nil
}

// mapeCeiling and mapeOODCeiling are 0.5% above the accuracy this commit
// measures over the Fig. 7 matrix (see README.md, Baselines). The numbers
// are deterministic, so a forecast_offline run above either ceiling fails:
// no shortcut can trade accuracy away unseen. A change that means to move
// accuracy moves these with it, in a change of its own to the benchmark.
const (
	mapeCeiling    = 13.2436 // 13.1777 measured
	mapeOODCeiling = 21.2373 // 21.1316 measured
)

// accuracy is the forecast error over the Fig. 7 matrix against the
// simulator's ground truth: the mean absolute percentage error over every
// cell, and over the cells on the held-out GPUs — the paper's headline.
type accuracy struct{ mape, mapeOOD float64 }

// fig7Forecasts returns p's forecast of every cell, by the cheap route
// (distinct kernels, then a node-order sum), and the accuracy of those
// forecasts. Ground truth per cell is the simulator's latency summed over
// the graph's kernels.
func fig7Forecasts(p *core.Predictor, cells []cell) ([]float64, accuracy, error) {
	sim := gpusim.New()
	ood := map[string]bool{}
	for _, g := range gpu.TestSet() {
		ood[g.Name] = true
	}
	want := make([]float64, len(cells))
	var sum, sumOOD float64
	var nOOD int
	graphs := graphMemo{}
	for i, c := range cells {
		d, err := graphs.get(serve.GraphRequest{Workload: c.Model.Name, Batch: c.Batch, Training: c.Training})
		if err != nil {
			return nil, accuracy{}, err
		}
		if want[i], err = d.forecast(p, c.GPU); err != nil {
			return nil, accuracy{}, fmt.Errorf("reference forecast of %s b%d on %s: %w", c.Model.Name, c.Batch, c.GPU.Name, err)
		}
		truth := make([]float64, len(d.uniq))
		for j, k := range d.uniq {
			truth[j] = sim.KernelLatency(k, c.GPU)
		}
		total := d.fold(truth)
		ape := math.Abs(want[i]-total) / total
		sum += ape
		if ood[c.GPU.Name] {
			sumOOD += ape
			nOOD++
		}
	}
	return want, accuracy{100 * sum / float64(len(cells)), 100 * sumOOD / float64(max(nOOD, 1))}, nil
}

// prepareOffline sets up forecast_offline: the paper's own use, no serving.
// Ground truth and the reference forecast of every cell are computed once,
// outside the timed region, the forecast by a different route than the one
// timed; the timed operation builds the cell's graph and forecasts it whole.
func prepareOffline(e *env, dir string) (func() (*instance, error), error) {
	ref, err := loadModel(dir)
	if err != nil {
		return nil, err
	}
	cells := fig7Matrix(e.seed)
	want, acc, err := fig7Forecasts(ref, cells)
	if err != nil {
		return nil, err
	}
	return func() (*instance, error) {
		p, err := loadModel(dir)
		if err != nil {
			return nil, err
		}
		eng := predict.NewCoreEngine(p)
		in := &instance{workers: e.nproc, nproc: e.nproc, poolLen: uint64(len(cells)), cells: cells, cfg: childConfig{ModelDir: dir}}
		in.op = func(_ int, i uint64, verify bool) (int, error) {
			c := cells[i%in.poolLen]
			gr := buildGraph(c.Model, c.Batch, c.Training, false)
			got, _, err := eng.PredictGraph(context.Background(), gr, c.GPU)
			if err != nil {
				return 0, err
			}
			if verify {
				if d := relDiff(got, want[i%in.poolLen]); d > parityTol {
					return 0, parityError{fmt.Errorf("%s b%d on %s forecast %v, reference %v", c.Model.Name, c.Batch, c.GPU.Name, got, want[i%in.poolLen])}
				}
			}
			return 1, nil
		}
		in.check = func(delta) error {
			if acc.mape > mapeCeiling || acc.mapeOOD > mapeOODCeiling {
				return fmt.Errorf("core.mape_pct %.4f / core.mape_ood_pct %.4f exceed the committed ceilings %.4f / %.4f",
					acc.mape, acc.mapeOOD, mapeCeiling, mapeOODCeiling)
			}
			return nil
		}
		if ph := passLoop(in.workers, in.poolLen, &in.next, in.op, true); ph.Failed > 0 {
			return nil, fmt.Errorf("%d of %d warm-up forecasts failed; first: %w", ph.Failed, ph.Attempted, ph.Err)
		}
		return in, nil
	}, nil
}

// planTop is how many ranks of a served plan are compared with the
// in-process evaluation.
const planTop = 3

// preparePlan sets up plan_matrix. Once: the in-process ranking of every
// spec, to hold the served one against. Per boot: a 3-member cluster child
// whose members each run a checkpointing planner wired to the cluster's
// fan-out, and one verified job per spec.
func preparePlan(e *env, dir string) (func() (*instance, error), error) {
	p, err := loadModel(dir)
	if err != nil {
		return nil, err
	}
	eng := predict.NewCoreEngine(p)
	specs := planSpecs(e.seed)
	want := make([][]plan.Result, len(specs))
	bodies := make([][]byte, len(specs))
	for i := range specs {
		if want[i], err = rankInProcess(eng, specs[i]); err != nil {
			return nil, err
		}
		bodies[i] = encode(specs[i])
	}
	boots := 0
	return func() (*instance, error) {
		boots++
		cc := childConfig{ModelDir: dir, Members: clusterMembers, PlanDir: filepath.Join(e.tmp, fmt.Sprintf("plans%d", boots))}
		ch, err := startChild(cc)
		if err != nil {
			return nil, err
		}
		e.childProcs = ch.GOMAXPROCS
		in := &instance{workers: 1, nproc: e.nproc, poolLen: uint64(len(specs)), child: ch, hc: newHTTPClient(e.nproc), planSpecs: specs, cfg: cc}
		in.op = func(_ int, i uint64, verify bool) (int, error) {
			n := i % in.poolLen
			st, err := runPlanJob(in.hc, ch.url(0), bodies[n])
			if err != nil {
				return 0, err
			}
			if st.Evaluated != st.Total || st.Total != planCells {
				return 0, parityError{fmt.Errorf("plan %s evaluated %d of %d cells, want %d", st.ID, st.Evaluated, st.Total, planCells)}
			}
			if verify {
				if err := sameTop(st.Ranking, want[n]); err != nil {
					return 0, parityError{fmt.Errorf("plan for %s: %w", specs[n].Model, err)}
				}
			}
			in.planDone.Add(int64(st.Total))
			in.planRemote.Add(int64(st.RemoteCells))
			in.planRedispatched.Add(int64(st.RedispatchedBatches))
			return st.Total, nil
		}
		in.check = func(delta) error {
			if in.planRemote.Load() == 0 {
				return fmt.Errorf("plan.remote_cell_share is 0: no cell was evaluated by another member, the fan-out is not exercised")
			}
			return nil
		}
		if ph := passLoop(in.workers, in.poolLen, &in.next, in.op, true); ph.Failed > 0 {
			in.close()
			return nil, fmt.Errorf("%d of %d warm-up plans failed; first: %w", ph.Failed, ph.Attempted, ph.Err)
		}
		return in, nil
	}, nil
}

// rankInProcess is the answer a plan job must give: the spec normalized as
// submission does, every cell priced by eng in this process, ranked.
func rankInProcess(eng predict.Engine, spec plan.Spec) ([]plan.Result, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	results, err := plan.EvaluateBatch(context.Background(), eng, spec, plan.Expand(spec))
	if err != nil {
		return nil, err
	}
	return plan.Rank(results), nil
}

func sameTop(got, want []plan.Result) error {
	if len(got) < planTop || len(want) < planTop {
		return fmt.Errorf("ranking has %d entries, reference %d, want at least %d", len(got), len(want), planTop)
	}
	for r := 0; r < planTop; r++ {
		if got[r].Config != want[r].Config || relDiff(got[r].IterationMs, want[r].IterationMs) > parityTol {
			return fmt.Errorf("rank %d is %s at %v ms, in-process evaluation ranks %s at %v ms",
				r+1, got[r].Key(), got[r].IterationMs, want[r].Key(), want[r].IterationMs)
		}
	}
	return nil
}

// planPoll is how often a submitted plan is polled for completion.
const planPoll = 2 * time.Millisecond

// runPlanJob submits one spec and polls it to completion, one job in flight.
func runPlanJob(hc *http.Client, base string, spec []byte) (plan.Status, error) {
	var st plan.Status
	resp, err := hc.Post(base+"/v2/plan", "application/json", bytes.NewReader(spec))
	if err != nil {
		return st, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("POST /v2/plan: status %d", resp.StatusCode)
	}
	if err != nil {
		return st, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State == plan.StateRunning {
		if time.Now().After(deadline) {
			return st, fmt.Errorf("plan %s still running after 30s", st.ID)
		}
		sleepUntil(time.Now().Add(planPoll))
		if err := getJSON(hc, base+"/v2/plan/"+st.ID, &st); err != nil {
			return st, err
		}
	}
	if st.State != plan.StateDone {
		return st, fmt.Errorf("plan %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st, nil
}
