package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"neusight/internal/plan"
)

// RoutePlanEval is the planner fan-out endpoint: POST evaluates a batch
// of plan configurations on this member and returns the results. It lives
// on the control plane (token-gated) because only peer members call it —
// clients submit plans through /v2/plan on the serving API.
const RoutePlanEval = "/v2/cluster/plan/eval"

// maxPlanEvalBody caps a plan-eval request body: a spec plus a dispatch
// batch of configurations is a few KiB.
const maxPlanEvalBody = 256 << 10

// planEvalTimeout bounds one remote batch evaluation end to end. It is
// deliberately much longer than the per-attempt control timeout: a batch
// is real compute, not a gossip round trip. A SIGKILLed member fails fast
// anyway (connection refused), so re-dispatch latency stays low.
const planEvalTimeout = 30 * time.Second

// planEvalRequest is the fan-out wire format: the job's normalized spec
// plus the batch of cells assigned to this member.
type planEvalRequest struct {
	Engine  string        `json:"engine"`
	Spec    plan.Spec     `json:"spec"`
	Configs []plan.Config `json:"configs"`
}

// planEvalResponse carries the evaluated cells back to the dispatching
// member.
type planEvalResponse struct {
	Results []plan.Result `json:"results"`
}

// handlePlanEval evaluates one dispatched batch with the local engine.
func (n *Node) handlePlanEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req planEvalRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxPlanEvalBody)).Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Configs) == 0 {
		writeJSONError(w, http.StatusBadRequest, "empty configuration batch")
		return
	}
	name := req.Engine
	if name == "" {
		name = n.def
	}
	eng, err := n.reg.Get(name)
	if err != nil {
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if err := req.Spec.Normalize(); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	results, err := plan.EvaluateBatch(r.Context(), eng, req.Spec, req.Configs)
	if err != nil {
		// Context cut mid-batch: the dispatcher re-dispatches, so a partial
		// answer must not be recorded as the batch's result.
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	n.planEvalsServed.Add(1)
	n.planEvalCells.Add(uint64(len(results)))
	writeJSON(w, http.StatusOK, planEvalResponse{Results: results})
}

// planDispatcher implements plan.Dispatcher over the cluster: cell
// ownership follows the same (engine, GPU) consistent-hash routing as
// prediction steering, and remote evaluation rides the control plane with
// the configured bearer token.
type planDispatcher struct{ n *Node }

// PlanDispatcher returns the cluster's fan-out hook for a plan.Manager.
func (n *Node) PlanDispatcher() plan.Dispatcher { return planDispatcher{n} }

// Assign names the member that owns cfg's (engine, GPU) shard, or ""
// when this member does (or the ring has no peers). route already
// resolves a dead primary to its replica, so a freshly killed owner's
// cells assign straight to the survivor.
func (d planDispatcher) Assign(engine string, cfg plan.Config) string {
	if d.n.steerMode == SteerOff || d.n.peerCount() == 0 {
		return ""
	}
	owner, _, local := d.n.route(engine, cfg.GPU)
	if local {
		return ""
	}
	return owner
}

// EvalRemote runs one batch on addr. Failures strike the member in the
// failure detector — a few failed plan batches accelerate a dead owner's
// eviction the same way failed proxies do.
func (d planDispatcher) EvalRemote(ctx context.Context, addr, engine string, spec plan.Spec, cfgs []plan.Config) ([]plan.Result, error) {
	n := d.n
	body, err := json.Marshal(planEvalRequest{Engine: engine, Spec: spec, Configs: cfgs})
	if err != nil {
		return nil, err
	}
	var per planEvalResponse
	err = n.call(ctx, planEvalTimeout, http.MethodPost, addr, RoutePlanEval, body, &per, 64<<20)
	if err == nil {
		n.markContact(addr, true)
		return per.Results, nil
	}
	var transport *url.Error
	if errors.As(err, &transport) {
		n.countProxyError(err)
	}
	// A non-200 answer means the member is alive — do not strike it — but
	// the batch failed there; the caller re-dispatches locally.
	var status *statusError
	n.markContact(addr, errors.As(err, &status))
	return nil, fmt.Errorf("cluster: plan eval on %s: %w", addr, err)
}
