package serve

import (
	"fmt"
	"net/http"

	"neusight/internal/gpu"
	"neusight/internal/observe"
)

// ObserveRequest is the JSON body of POST /v2/observe (single form): one
// measured kernel latency to compare against the engine's current
// prediction. GPU falls back to the kernel's own gpu field when empty;
// engine "" selects the default.
type ObserveRequest struct {
	Kernel     KernelRequest `json:"kernel"`
	GPU        string        `json:"gpu,omitempty"`
	Engine     string        `json:"engine,omitempty"`
	ObservedMs float64       `json:"observed_ms"`
}

// ObserveBatchRequest is the batch form of POST /v2/observe, bounded by
// the same MaxBatchKernels cap as the predict batch path.
type ObserveBatchRequest struct {
	Observations []ObserveRequest `json:"observations"`
}

// observeEnvelope decodes both forms of POST /v2/observe in one pass: a
// non-empty Observations list selects the batch form, else the embedded
// single observation.
type observeEnvelope struct {
	ObserveRequest
	Observations []ObserveRequest `json:"observations"`
}

// ObserveItem is one per-observation result inside an ObserveResponse.
type ObserveItem struct {
	Error string `json:"error,omitempty"`
}

// ObserveResponse is the JSON reply of POST /v2/observe. Items are
// positional for the batch form and omitted for the single form.
type ObserveResponse struct {
	Accepted int           `json:"accepted"`
	Rejected int           `json:"rejected"`
	Items    []ObserveItem `json:"items,omitempty"`
}

// SetObserver attaches (non-nil) or detaches (nil) the drift monitor that
// ingests POST /v2/observe. The caller owns the monitor's lifecycle:
// close it after the service stops serving.
func (s *Service) SetObserver(m *observe.Monitor) { s.observer.Store(m) }

// Observer returns the attached drift monitor, or nil when observation
// ingestion is disabled.
func (s *Service) Observer() *observe.Monitor { return s.observer.Load() }

// ObserveReport returns the attached monitor's drift report, or nil when
// observation ingestion is disabled — the "observe" section of /v2/stats.
func (s *Service) ObserveReport() *observe.Report {
	m := s.observer.Load()
	if m == nil {
		return nil
	}
	rep := m.Report()
	return &rep
}

// observeOne validates one observation and ingests it through the
// monitor. On failure it returns a client-facing error plus the HTTP
// status the single form reports: 400 for a malformed observation,
// predictErrorCode for a failure resolving the reference prediction
// (unknown engine, saturation).
func (s *Service) observeOne(r *http.Request, m *observe.Monitor, req ObserveRequest) (int, error) {
	k, err := buildKernel(req.Kernel)
	if err != nil {
		return http.StatusBadRequest, err
	}
	gpuName := req.GPU
	if gpuName == "" {
		gpuName = req.Kernel.GPU
	}
	g, err := gpu.Lookup(gpuName)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if !(req.ObservedMs > 0) {
		return http.StatusBadRequest, fmt.Errorf("observed_ms must be positive, got %v", req.ObservedMs)
	}
	// The ingest's reference prediction rides the regular serving path —
	// cache, coalescing, counters — so observing a key also warms it.
	if err := m.Ingest(r.Context(), requestedEngine(s, req.Engine), k, g, req.ObservedMs); err != nil {
		return predictErrorCode(err), err
	}
	return 0, nil
}

// handleObserve serves POST /v2/observe: measured kernel latencies fed
// back into drift detection. Single-form errors report with a status
// code; batch-form errors report positionally with the batch accepted.
func handleObserve(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		m := s.Observer()
		if m == nil {
			writeError(w, http.StatusNotFound, "observation ingestion disabled: start the server with -observe")
			return
		}
		var req observeEnvelope
		if !decodeBody(w, r, &req) {
			return
		}
		if len(req.Observations) > MaxBatchKernels {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("batch of %d exceeds the %d-observation limit; split the request", len(req.Observations), MaxBatchKernels))
			return
		}
		if len(req.Observations) == 0 {
			if req.Kernel.Op == "" {
				writeError(w, http.StatusBadRequest, "empty observation: provide kernel+observed_ms or an observations list")
				return
			}
			if code, err := s.observeOne(r, m, req.ObserveRequest); err != nil {
				writeError(w, code, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, ObserveResponse{Accepted: 1})
			return
		}
		resp := ObserveResponse{Items: make([]ObserveItem, len(req.Observations))}
		for i, ob := range req.Observations {
			if _, err := s.observeOne(r, m, ob); err != nil {
				resp.Items[i].Error = err.Error()
				resp.Rejected++
				continue
			}
			resp.Accepted++
		}
		writeJSON(w, http.StatusOK, resp)
	}
}
