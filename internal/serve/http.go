package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/observe"
	"neusight/internal/plan"
	"neusight/internal/predict"
)

// KernelRequest is one kernel of a /v2 predict or observe body. Dimension
// semantics follow the kernel constructors:
//
//	bmm:        B batches of (M x K) @ (K x N)
//	linear:     M rows through K inputs -> N outputs
//	ew_*:       B rows x M cols elementwise (ew_add, ew_mul, ew_div,
//	            ew_relu, ew_gelu, ew_tanh)
//	softmax:    B independent vectors of length M
//	layernorm:  B vectors of length M
//	embedding:  B tokens of width M gathered from a K-row table
type KernelRequest struct {
	Op    string `json:"op"`
	B     int    `json:"b"`
	M     int    `json:"m"`
	K     int    `json:"k"`
	N     int    `json:"n"`
	DType string `json:"dtype"` // "fp32" (default) or "fp16"
	GPU   string `json:"gpu"`
}

// KernelResponse is the kernel part of the /v2/predict/kernel reply.
type KernelResponse struct {
	Kernel    string  `json:"kernel"`
	GPU       string  `json:"gpu"`
	LatencyMs float64 `json:"latency_ms"`
	FLOPs     float64 `json:"flops"`
	MemBytes  float64 `json:"mem_bytes"`
}

// BatchRequest is the body of POST /v2/predict/batch less its engine:
// forecast many kernels on one GPU in a single round trip. Misses are
// deduplicated and evaluated in one batched forward pass; hits come
// straight from the cache.
type BatchRequest struct {
	GPU     string          `json:"gpu"`
	Kernels []KernelRequest `json:"kernels"` // per-item GPU fields are ignored
}

// BatchItem is one per-kernel result inside a BatchResponse. Exactly one of
// Error or a valid LatencyMs is meaningful: a malformed or unpredictable
// item reports its error in place without failing the rest of the batch.
type BatchItem struct {
	Kernel    string  `json:"kernel,omitempty"`
	LatencyMs float64 `json:"latency_ms"`
	Error     string  `json:"error,omitempty"`
}

// BatchResponse is the /v2/predict/batch reply less its engine. Items are
// positional: Items[i] answers Kernels[i] of the request.
type BatchResponse struct {
	GPU   string      `json:"gpu"`
	Count int         `json:"count"`
	Items []BatchItem `json:"items"`
}

// GraphRequest is the body of POST /v2/predict/graph less its engine:
// forecast a registered workload end to end.
type GraphRequest struct {
	Workload string `json:"workload"`
	GPU      string `json:"gpu"`
	Batch    int    `json:"batch"`
	Training bool   `json:"training"`
	Fused    bool   `json:"fused"`
}

// GraphResponse is the /v2/predict/graph reply less its engine and report.
type GraphResponse struct {
	Workload   string  `json:"workload"`
	GPU        string  `json:"gpu"`
	Batch      int     `json:"batch"`
	Training   bool    `json:"training"`
	Fused      bool    `json:"fused"`
	Kernels    int     `json:"kernels"`
	TotalFLOPs float64 `json:"total_flops"`
	LatencyMs  float64 `json:"latency_ms"`
	FitsMemory bool    `json:"fits_memory"`
}

// apiOps maps the canonical name of each operator the kernel endpoint can
// build to the operator. Network collectives are deliberately absent:
// they are priced by the distributed layer, not the kernel predictor. So
// are dropout, transpose, convolution and pooling, which only a graph
// request prices.
var apiOps = func() map[string]kernels.Op {
	m := map[string]kernels.Op{}
	for _, op := range []kernels.Op{
		kernels.OpBMM, kernels.OpLinear,
		kernels.OpEWAdd, kernels.OpEWMul, kernels.OpEWDiv,
		kernels.OpEWReLU, kernels.OpEWGELU, kernels.OpEWTanh,
		kernels.OpSoftmax, kernels.OpLayerNorm, kernels.OpEmbedding,
	} {
		m[op.String()] = op
	}
	return m
}()

// KernelRequestOf encodes k as the kernel request that builds it, and
// reports whether the kernel API can express k at all: a fused kernel, a
// convolution, an operator outside apiOps or a field the request does not
// carry would be served as a different kernel, so those report false.
func KernelRequestOf(k kernels.Kernel) (KernelRequest, bool) {
	req := KernelRequest{Op: k.Op.String(), B: k.B, M: k.M, K: k.K, N: k.N}
	if k.DType == kernels.FP16 {
		req.DType = "fp16"
	}
	built, err := buildKernel(req)
	return req, err == nil && built.Key() == k.Key()
}

// buildKernel validates a KernelRequest and constructs the kernel.
func buildKernel(req KernelRequest) (kernels.Kernel, error) {
	op, ok := apiOps[req.Op]
	if !ok {
		return kernels.Kernel{}, fmt.Errorf("unknown op %q", req.Op)
	}
	var k kernels.Kernel
	switch op {
	case kernels.OpBMM:
		if err := positive("bmm", req.B, req.M, req.K, req.N); err != nil {
			return kernels.Kernel{}, err
		}
		k = kernels.NewBMM(req.B, req.M, req.K, req.N)
	case kernels.OpLinear:
		if err := positive("linear", req.M, req.K, req.N); err != nil {
			return kernels.Kernel{}, err
		}
		k = kernels.NewLinear(req.M, req.K, req.N)
	case kernels.OpSoftmax:
		if err := positive("softmax", req.B, req.M); err != nil {
			return kernels.Kernel{}, err
		}
		k = kernels.NewSoftmax(req.B, req.M)
	case kernels.OpLayerNorm:
		if err := positive("layernorm", req.B, req.M); err != nil {
			return kernels.Kernel{}, err
		}
		k = kernels.NewLayerNorm(req.B, req.M)
	case kernels.OpEmbedding:
		if err := positive("embedding", req.B, req.M, req.K); err != nil {
			return kernels.Kernel{}, err
		}
		k = kernels.NewEmbedding(req.B, req.M, req.K)
	default: // elementwise family
		if err := positive(req.Op, req.B, req.M); err != nil {
			return kernels.Kernel{}, err
		}
		k = kernels.NewElementwise(op, req.B, req.M)
	}
	switch req.DType {
	case "", "fp32":
	case "fp16":
		k = k.WithDType(kernels.FP16)
	default:
		return kernels.Kernel{}, fmt.Errorf("unknown dtype %q (want fp32 or fp16)", req.DType)
	}
	return k, nil
}

// maxDim bounds each requested kernel dimension. It is far beyond any real
// DNN operator, yet small enough that every downstream int product (tile
// counts over three output dims, token counts) stays well inside 64 bits
// instead of overflowing into panics or garbage latencies.
const maxDim = 1 << 20

func positive(op string, dims ...int) error {
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("%s requires positive dimensions, got %v", op, dims)
		}
		if d > maxDim {
			return fmt.Errorf("%s dimension %d exceeds the %d limit", op, d, maxDim)
		}
	}
	return nil
}

// maxBodyBytes caps every request body: the largest legitimate payload (a
// full-size batch of kernel specs) is well under a megabyte, so anything
// bigger is rejected before it is buffered.
const maxBodyBytes = 1 << 20

// MaxBatchKernels bounds one /v2/predict/batch request. A batch holds a
// worker-pool slot for its whole backend round, so an unbounded batch could
// starve every other request; the cap comfortably covers the largest
// registered workload graph.
const MaxBatchKernels = 4096

// MaxGraphBatch bounds /v2/predict/graph batch sizes: graph construction
// multiplies batch into token and attention-row counts as ints, so an
// absurd batch would overflow before physics had a chance to object.
const MaxGraphBatch = 1 << 16

// decodeBody decodes a size-limited JSON request body into v. On failure it
// writes the error response itself — 413 with the limit when the body blew
// the size cap (so clients know to split, not to fix their JSON), 400
// otherwise — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit; split the request", maxBodyBytes))
		return false
	}
	writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	return false
}

// KernelRequestV2 is the JSON body of POST /v2/predict/kernel: a
// KernelRequest plus the engine to route to ("" selects the default).
type KernelRequestV2 struct {
	KernelRequest
	Engine string `json:"engine"`
}

// KernelResponseV2 is the JSON reply of /v2/predict/kernel: the kernel
// fields plus the engine that answered, how it derived the forecast, and the
// utilization behind it (0 when the engine models none).
type KernelResponseV2 struct {
	KernelResponse
	Engine      string  `json:"engine"`
	Source      string  `json:"source"`
	Utilization float64 `json:"utilization"`
}

// BatchRequestV2 is the JSON body of POST /v2/predict/batch.
type BatchRequestV2 struct {
	BatchRequest
	Engine string `json:"engine"`
}

// BatchResponseV2 is the JSON reply of /v2/predict/batch.
type BatchResponseV2 struct {
	BatchResponse
	Engine string `json:"engine"`
}

// GraphRequestV2 is the JSON body of POST /v2/predict/graph.
type GraphRequestV2 struct {
	GraphRequest
	Engine string `json:"engine"`
}

// GraphResponseV2 is the JSON reply of /v2/predict/graph: the graph fields
// plus the engine and a report of how the forecast was assembled. When any
// kernel fell back to the memory-bound estimate, Warning carries the
// aggregate error — the forecast is still returned, but its degraded
// provenance is no longer silent.
type GraphResponseV2 struct {
	GraphResponse
	Engine  string           `json:"engine"`
	Report  core.GraphReport `json:"report"`
	Warning string           `json:"warning,omitempty"`
}

// EngineInfo describes one registered engine on GET /v2/engines.
type EngineInfo struct {
	Name        string `json:"name"`
	Default     bool   `json:"default"`
	NativeBatch bool   `json:"native_batch"`
	Generation  uint64 `json:"generation"`
	Source      string `json:"source,omitempty"`
	Trainable   bool   `json:"trainable,omitempty"`
	Description string `json:"description,omitempty"`
}

// EnginesResponse is the JSON reply of GET /v2/engines.
type EnginesResponse struct {
	Default string       `json:"default"`
	Engines []EngineInfo `json:"engines"`
}

// StatsV2 is the JSON reply of GET /v2/stats: the aggregate counters plus
// one entry per served engine (zeros until traffic reaches it), the
// graph-plan memo counters, the last cache-warmup report when one ran, and
// the trace-compaction state when a compacting recorder is attached.
type StatsV2 struct {
	Stats
	Engines         []EngineStats    `json:"engines"`
	GraphPlans      PlanMemoStats    `json:"graph_plans"`
	Warmup          *WarmupStats     `json:"warmup,omitempty"`
	TraceCompaction *TraceCompaction `json:"trace_compaction,omitempty"`
	Observe         *observe.Report  `json:"observe,omitempty"`
	Plan            *plan.Stats      `json:"plan,omitempty"`
}

// predictErrorCode classifies a Predict*Engine error for HTTP: naming an
// engine the service does not serve is a client error (400, the message
// lists the served set); saturation is backpressure (503 — retry after
// backing off); anything else is an unpredictable request (422).
func predictErrorCode(err error) int {
	if errors.Is(err, predict.ErrUnknownEngine) {
		return http.StatusBadRequest
	}
	if errors.Is(err, ErrSaturated) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// handleKernel serves POST /v2/predict/kernel.
func handleKernel(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req KernelRequestV2
		if !decodeBody(w, r, &req) {
			return
		}
		k, err := buildKernel(req.KernelRequest)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		g, err := gpu.Lookup(req.GPU)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		res, err := s.PredictKernelEngine(r.Context(), req.Engine, k, g)
		if err != nil {
			writeError(w, predictErrorCode(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, KernelResponseV2{
			KernelResponse: KernelResponse{
				Kernel: k.Label(), GPU: g.Name, LatencyMs: res.Latency,
				FLOPs: k.FLOPs(), MemBytes: k.MemBytes(),
			},
			Engine:      res.Engine,
			Source:      res.Source,
			Utilization: res.Utilization,
		})
	}
}

// handleBatch serves POST /v2/predict/batch.
func handleBatch(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req BatchRequestV2
		if !decodeBody(w, r, &req) {
			return
		}
		if len(req.Kernels) == 0 {
			writeError(w, http.StatusBadRequest, "empty batch: provide at least one kernel")
			return
		}
		if len(req.Kernels) > MaxBatchKernels {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("batch of %d exceeds the %d-kernel limit; split the request", len(req.Kernels), MaxBatchKernels))
			return
		}
		g, err := gpu.Lookup(req.GPU)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		items := make([]BatchItem, len(req.Kernels))
		// Build what parses; malformed items fail in place so one bad
		// entry cannot poison the rest of the batch.
		ks := make([]kernels.Kernel, 0, len(req.Kernels))
		pos := make([]int, 0, len(req.Kernels)) // batch position -> item index
		for i, kr := range req.Kernels {
			k, err := buildKernel(kr)
			if err != nil {
				items[i].Error = err.Error()
				continue
			}
			items[i].Kernel = k.Label()
			ks = append(ks, k)
			pos = append(pos, i)
		}
		outs, err := s.PredictBatchEngine(r.Context(), req.Engine, ks, g)
		if err != nil {
			writeError(w, predictErrorCode(err), err.Error())
			return
		}
		for j, i := range pos {
			if outs[j].Err != nil {
				items[i].Error = outs[j].Err.Error()
				continue
			}
			items[i].LatencyMs = outs[j].Result.Latency
		}
		writeJSON(w, http.StatusOK, BatchResponseV2{
			BatchResponse: BatchResponse{GPU: g.Name, Count: len(items), Items: items},
			Engine:        requestedEngine(s, req.Engine),
		})
	}
}

// requestedEngine resolves the engine name a response should echo: the
// explicitly requested one, else the service default.
func requestedEngine(s *Service, name string) string {
	if name == "" {
		return s.DefaultEngine()
	}
	return name
}

// handleGraph serves POST /v2/predict/graph.
func handleGraph(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req GraphRequestV2
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Batch <= 0 {
			req.Batch = 1
		}
		if req.Batch > MaxGraphBatch {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("batch %d exceeds the %d limit", req.Batch, MaxGraphBatch))
			return
		}
		m, err := models.Lookup(req.Workload)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		g, err := gpu.Lookup(req.GPU)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		pl := s.graphPlan(m, req.Batch, req.Training, req.Fused)
		lat, rep, gerr := s.predictPlan(r.Context(), req.Engine, pl, g)
		// An unknown engine, saturation, or a cancellation abort is
		// a failed forecast, not a degraded one: the fold never ran (or
		// stopped), so the total must not be served as an answer. Fallback
		// aggregation errors fall through and surface as the v2 warning
		// instead.
		if gerr != nil && (errors.Is(gerr, predict.ErrUnknownEngine) || errors.Is(gerr, ErrSaturated) ||
			errors.Is(gerr, context.Canceled) || errors.Is(gerr, context.DeadlineExceeded)) {
			writeError(w, predictErrorCode(gerr), gerr.Error())
			return
		}
		resp := GraphResponseV2{GraphResponse: GraphResponse{
			Workload: m.Name, GPU: g.Name, Batch: req.Batch,
			Training: req.Training, Fused: req.Fused,
			Kernels: pl.Nodes(), TotalFLOPs: pl.FLOPs, LatencyMs: lat,
			FitsMemory: m.FitsInMemory(req.Batch, g, req.Training),
		}, Engine: requestedEngine(s, req.Engine), Report: rep}
		if gerr != nil {
			resp.Warning = gerr.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleEngines serves GET /v2/engines: the registered engine set with
// routing metadata, cross-referenced against the standard-catalog
// descriptions when names match.
func handleEngines(s *Service) http.HandlerFunc {
	catalog := map[string]predict.Info{}
	for _, info := range predict.Catalog() {
		catalog[info.Name] = info
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		resp := EnginesResponse{Default: s.DefaultEngine()}
		for _, eng := range s.Registry().Engines() {
			name := eng.Name()
			info := EngineInfo{
				Name:        name,
				Default:     name == s.DefaultEngine(),
				NativeBatch: predict.NativeBatch(eng),
				Generation:  predict.Generation(eng),
			}
			if c, ok := catalog[name]; ok {
				info.Source = c.Source
				info.Trainable = c.Trainable
				info.Description = c.Description
			}
			resp.Engines = append(resp.Engines, info)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// NewHandler returns the HTTP API for s.
//
// The versioned prediction API: /v2 routes per request via the "engine"
// field (default engine when absent) and annotates responses with engine,
// source, utilization, and graph assembly reports.
//
//	POST /v2/predict/kernel  — one kernel forecast (KernelRequestV2)
//	POST /v2/predict/batch   — many kernels, one batched forecast (BatchRequestV2)
//	POST /v2/predict/graph   — end-to-end workload forecast (GraphRequestV2)
//	POST /v2/observe         — measured kernel latencies for drift detection (ObserveRequest)
//	POST /v2/plan            — submit a what-if sweep as an async job (plan.Spec); GET lists jobs
//	GET  /v2/plan/{id}       — poll a job's status and ranking; POST resumes, DELETE cancels
//	GET  /v2/engines         — the registered engine set and default
//	GET  /v2/stats           — aggregate, per-engine, warmup, drift, and plan counters
//	GET  /v2/healthz         — liveness probe
//	GET  /metrics            — Prometheus text format, engine-labeled series included
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/predict/kernel", handleKernel(s))
	mux.HandleFunc("/v2/predict/batch", handleBatch(s))
	mux.HandleFunc("/v2/predict/graph", handleGraph(s))
	mux.HandleFunc("/v2/observe", handleObserve(s))
	mux.HandleFunc("/v2/plan", handlePlan(s))
	mux.HandleFunc("/v2/plan/", handlePlanID(s))
	mux.HandleFunc("/v2/engines", handleEngines(s))
	mux.HandleFunc("/v2/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, StatsV2{
			Stats:           s.Stats(),
			Engines:         s.EngineStats(),
			GraphPlans:      s.PlanMemoStats(),
			Warmup:          s.Warmup(),
			TraceCompaction: s.TraceCompaction(),
			Observe:         s.ObserveReport(),
			Plan:            s.PlanStats(),
		})
	})
	mux.HandleFunc("/v2/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "backend": s.DefaultEngine()})
	})
	mux.HandleFunc("/metrics", metricsHandler(s))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
