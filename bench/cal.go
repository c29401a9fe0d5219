package main

// The reference operation, and the host's speed as measured by it. The box
// the benchmark runs on is several times slower at some moments than at
// others, for reasons that have nothing to do with the program under test
// (run.go). A burst of an operation that never changes, run between two
// stretches of work, says how fast the host was around them; the work's
// times are then reported as the reference box at its usual pace would have
// shown them. Everything the operation does is in this file or in the
// standard library, so that no change to the repository can move it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"
)

// calKernel, calRequest and calAnswer are the reference operation's wire
// forms. They look like a batch request on purpose and belong to the bench
// alone: no change to the repository moves them.
type calKernel struct {
	Op    string `json:"op"`
	B     int    `json:"b"`
	M     int    `json:"m"`
	K     int    `json:"k"`
	N     int    `json:"n"`
	Dtype string `json:"dtype"`
	GPU   string `json:"gpu"`
}

type calRequest struct {
	Kernels []calKernel `json:"kernels"`
}

type calResult struct {
	Label     string  `json:"label"`
	LatencyMs float64 `json:"latency_ms"`
	Cached    bool    `json:"cached"`
}

type calAnswer struct {
	Results []calResult `json:"results"`
	Total   float64     `json:"total_ms"`
}

// calKernels is how many kernels a reference request carries: in a closed
// loop, about what a batch request costs; on the paced schedule a third of
// that, which loads the program about as much as the paced mix does — a
// burst that kept the program busier than the workload does would queue,
// and stall, more than the workload.
const (
	calKernels      = 48
	calKernelsPaced = 16
	calHidden       = 48
	calLayers       = 3
)

// calWeights are the reference network's fixed weights.
var calWeights = func() [calLayers][calHidden][calHidden]float64 {
	var w [calLayers][calHidden][calHidden]float64
	x := uint64(0x9E3779B97F4A7C15)
	for l := range w {
		for i := range w[l] {
			for j := range w[l][i] {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				w[l][i][j] = (float64(x>>11)/float64(1<<53) - 0.5) / 8
			}
		}
	}
	return w
}()

// calBody and calBodyPaced are the requests the reference operation carries.
var calBody, calBodyPaced = calBodyOf(calKernels), calBodyOf(calKernelsPaced)

func calBodyOf(kernels int) []byte {
	var rq calRequest
	for i := 0; i < kernels; i++ {
		rq.Kernels = append(rq.Kernels, calKernel{Op: "bmm", B: 1 + i%8, M: 128 << (i % 4), K: 64 * (1 + i%16), N: 256 + 64*i, Dtype: "fp16", GPU: "H100"})
	}
	b, _ := json.Marshal(rq)
	return b
}

// calWork is the reference operation: decode a request, push every kernel
// through a small fixed network, label it, look the label up in a map, and
// encode the answer.
func calWork(body []byte) ([]byte, error) {
	var rq calRequest
	if err := json.Unmarshal(body, &rq); err != nil {
		return nil, err
	}
	seen := make(map[string]float64, len(rq.Kernels))
	ans := calAnswer{Results: make([]calResult, 0, len(rq.Kernels))}
	for _, k := range rq.Kernels {
		var h, next [calHidden]float64
		dims := [4]float64{float64(k.B), float64(k.M), float64(k.K), float64(k.N)}
		for i := range h {
			h[i] = math.Log1p(dims[i%4]) / float64(1+i)
		}
		for l := 0; l < calLayers; l++ {
			for j := 0; j < calHidden; j++ {
				s := 0.0
				for i := 0; i < calHidden; i++ {
					s += h[i] * calWeights[l][i][j]
				}
				next[j] = math.Max(s, 0.01*s)
			}
			h = next
		}
		label := fmt.Sprintf("%s[%dx%dx%dx%d]/%s@%s", k.Op, k.B, k.M, k.K, k.N, k.Dtype, k.GPU)
		_, hit := seen[label]
		seen[label] = h[0]
		ans.Results = append(ans.Results, calResult{Label: label, LatencyMs: math.Exp(h[0]), Cached: hit})
		ans.Total += math.Exp(h[0])
	}
	return json.Marshal(ans)
}

func calHandler(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err == nil {
		body, err = calWork(body)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// speeds is how fast the host ran a burst of the reference operation, as a
// share of the reference box's usual pace: by the wall clock, and by the CPU
// time the program under test spent per operation. The two part ways when
// the host takes the CPU away rather than slowing it, so times on the wall
// clock are corrected by the first and CPU times by the second.
type speeds struct{ wall, cpu float64 }

func (a speeds) mean(b speeds) speeds { return speeds{(a.wall + b.wall) / 2, (a.cpu + b.cpu) / 2} }

// The reference operation's usual pace on the reference box, for each way
// it is run: in the bench process and over loopback HTTP against a child,
// both in a closed loop on nproc goroutines and paced by rate (1/s), and
// over HTTP on the paced schedule, paced by its 90th-percentile latency
// (ms) — the quantile the end-to-end latency metric is, because what the
// host does to an open loop is stall it, and a stall adds to the tail and
// leaves the median alone; with the program's CPU time per operation (ms) in
// each. A burst's speed is the usual pace over its own, so a speed of 1
// reads "as fast as the reference box usually is", and metrics at the
// reference speed read in the units and at about the size of the raw ones.
var (
	calRefLocal  = speeds{wall: 3900, cpu: 0.47}
	calRefRemote = speeds{wall: 2200, cpu: 0.62}
	calRefPaced  = speeds{wall: 0.80, cpu: 0.42}
)

// burst is one run of the reference operation between two chunks: ops
// operations in a closed loop, or, for an open loop, a stretch of the same
// schedule — a host that is slow for a busy guest is less so for one that
// mostly sleeps, so each way of driving is corrected by its own like.
type burst struct {
	ops   uint64
	paced time.Duration
}

// calOp returns the reference operation as the instance's program performs
// it — over HTTP in the child when there is one, in this process otherwise —
// and the reference pace that goes with it.
func (in *instance) calOp() (opFunc, speeds) {
	if in.child == nil {
		return func(int, uint64, bool) (int, error) {
			_, err := calWork(calBody)
			return 1, err
		}, calRefLocal
	}
	rq, ref := &request{Path: "/bench/cal", Body: calBody}, calRefRemote
	if in.arrival != nil {
		rq.Body, ref = calBodyPaced, calRefPaced
	}
	bufs := make([]bytes.Buffer, in.nproc)
	return func(w int, _ uint64, _ bool) (int, error) {
		return 1, post(in.hc, in.child.url(0), rq, &bufs[w], false)
	}, ref
}

// sizeBurst sizes a burst to last about seconds, by a short trial.
func (in *instance) sizeBurst(seconds float64) (burst, error) {
	if in.arrival != nil {
		return burst{paced: time.Duration(seconds * float64(time.Second))}, nil
	}
	const trial = 64
	v, err := in.speed(burst{ops: trial})
	_, ref := in.calOp()
	return burst{ops: max(trial/2, uint64(seconds*v.wall*ref.wall))}, err
}

// speed runs one burst and returns the host's speed while it ran; the zero
// burst runs nothing and reads 1.
func (in *instance) speed(b burst) (speeds, error) {
	if b == (burst{}) {
		return speeds{1, 1}, nil
	}
	op, ref := in.calOp()
	p0, err := in.proc(false)
	if err != nil {
		return speeds{}, err
	}
	var next atomic.Uint64
	var ph phase
	if b.paced > 0 {
		ph = pacedLoop(in.nproc, b.paced, in.arrival, &next, op)
	} else {
		ph = passLoop(in.nproc, b.ops, &next, op, false)
	}
	p1, err := in.proc(false)
	if err != nil {
		return speeds{}, err
	}
	if ph.Failed > 0 || ph.Units == 0 || p1.CPUSec <= p0.CPUSec {
		return speeds{}, fmt.Errorf("%d of %d reference operations failed, in %g s of CPU; first failure: %w", ph.Failed, ph.Attempted, p1.CPUSec-p0.CPUSec, ph.Err)
	}
	v := speeds{wall: float64(ph.Units) / ph.Elapsed.Seconds() / ref.wall}
	if b.paced > 0 {
		v.wall = ref.wall / quantile(millis(ph.Lat), 0.9)
	}
	v.cpu = ref.cpu / (1e3 * (p1.CPUSec - p0.CPUSec) / float64(ph.Units))
	return v, nil
}
