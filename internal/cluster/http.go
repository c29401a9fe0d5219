package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/promtext"
)

// Cluster control routes. They live under /v2 because they are part of the
// versioned API surface (and the docs gate in scripts/check.sh derives the
// route list from these literals — new routes must be documented in
// docs/API.md).
const (
	// RouteGenerations is the gossip endpoint: GET returns this node's
	// cluster-wide generation view, POST absorbs a peer's push.
	RouteGenerations = "/v2/cluster/generations"
	// RouteRing is the assignment endpoint: GET returns the member set,
	// per-member health state, and the (engine, GPU) -> primary/replica
	// assignment.
	RouteRing = "/v2/cluster/ring"
	// RouteHealth is the failure-detector endpoint: GET returns every
	// member's alive/suspect/dead state and the health counters.
	RouteHealth = "/v2/cluster/health"
	// RouteTrace is the warmup endpoint: GET returns this member's
	// recorded workload trace (JSONL), which starting members replay to
	// warm the shards they acquire.
	RouteTrace = "/v2/cluster/trace"
	// RoutePlanEval (plan.go) is the planner fan-out endpoint: POST
	// evaluates a batch of plan configurations on this member.
)

// clusterRoutePrefix gates which paths require the control-plane token.
const clusterRoutePrefix = "/v2/cluster/"

// maxControlBody caps gossip request/response bodies: a generation map
// over a few dozen engines is a few hundred bytes, so anything beyond a
// handful of KiB is garbage.
const maxControlBody = 64 << 10

// maxTraceBody caps how much of a peer's trace a starting member will
// read: traces are bounded at the recorder (maxTraceKeys distinct keys),
// but a misbehaving peer must not be able to balloon its memory.
const maxTraceBody = 16 << 20

// authorized reports whether r may touch the control plane: always, when
// no token is configured; otherwise only with the exact bearer token
// (constant-time compared).
func (n *Node) authorized(r *http.Request) bool {
	if n.token == "" {
		return true
	}
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(n.token)) == 1
}

// statusError is a peer's non-200 answer to an outbound call.
type statusError struct {
	peer, path string
	code       int
	body       string
}

// Error implements error.
func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: peer %s answered %s with %d: %s", e.peer, e.path, e.code, e.body)
}

// call does one outbound round trip, every one but the proxy hop (relayTo):
// method on peer's path under its own timeout, body (nil for none) sent as
// JSON, with the bearer token on control routes. A non-200 answer is a
// *statusError. A 200 answer is read up to limit bytes: decoded into out,
// kept raw when out is a *[]byte, or discarded when out is nil.
func (n *Node) call(ctx context.Context, timeout time.Duration, method, peer, path string, body []byte, out any, limit int64) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+peer+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if n.token != "" && strings.HasPrefix(path, clusterRoutePrefix) {
		req.Header.Set("Authorization", "Bearer "+n.token)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &statusError{peer, path, resp.StatusCode, string(bytes.TrimSpace(msg))}
	}
	r := io.LimitReader(resp.Body, limit)
	switch out := out.(type) {
	case nil:
		io.Copy(io.Discard, r) // the status is the answer
	case *[]byte:
		*out, err = io.ReadAll(r)
	default:
		err = json.NewDecoder(r).Decode(out)
	}
	return err
}

// GenerationsResponse is the JSON reply of GET /v2/cluster/generations:
// the node's view plus the gossip counters.
type GenerationsResponse struct {
	GenMessage
	Gossip GossipStats `json:"gossip"`
}

// RingAssignment is one (engine, GPU) key's owners on GET /v2/cluster/ring.
type RingAssignment struct {
	Engine string `json:"engine"`
	GPU    string `json:"gpu"`
	// Owner is the primary; Replica (absent on single-member rings) takes
	// over when the primary is unreachable or dead.
	Owner   string `json:"owner"`
	Replica string `json:"replica,omitempty"`
	Local   bool   `json:"local"`
}

// RingResponse is the JSON reply of GET /v2/cluster/ring: the membership
// with per-member failure-detector state, the steering mode and counters,
// and the full assignment of every registered (engine, GPU) pair to its
// primary and replica members. Members lists only non-dead members — the
// addresses actually on the ring; MemberStates lists everyone.
type RingResponse struct {
	Self         string           `json:"self"`
	Mode         string           `json:"mode"`
	Members      []string         `json:"members"`
	MemberStates []MemberStatus   `json:"member_states"`
	Steering     SteerStats       `json:"steering"`
	Assignments  []RingAssignment `json:"assignments"`
}

// handleGenerations serves the gossip endpoint.
func (n *Node) handleGenerations(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, GenerationsResponse{GenMessage: n.Snapshot(), Gossip: n.GossipStats()})
	case http.MethodPost:
		var msg GenMessage
		if err := json.NewDecoder(io.LimitReader(r.Body, maxControlBody)).Decode(&msg); err != nil {
			writeJSONError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		invalidated := n.Absorb(msg)
		writeJSON(w, http.StatusOK, map[string]int{"invalidated": invalidated})
	default:
		writeJSONError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleRing serves the assignment endpoint: every registered engine
// crossed with every registered GPU, each resolved to its primary and
// replica owners under the current (dead-members-evicted) ring.
func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	members := []string{n.self}
	for _, peer := range n.Peers() {
		if !n.memberDead(peer) {
			members = append(members, peer)
		}
	}
	sort.Strings(members)
	resp := RingResponse{
		Self:         n.self,
		Mode:         n.steerMode,
		Members:      members,
		MemberStates: n.MemberStates(),
		Steering:     n.SteerStats(),
	}
	for _, engine := range n.reg.List() {
		for _, g := range gpu.All() {
			primary, replica := n.Owners(engine, g.Name)
			resp.Assignments = append(resp.Assignments, RingAssignment{
				Engine: engine, GPU: g.Name, Owner: primary, Replica: replica, Local: primary == n.self,
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace serves this member's recorded workload trace for start-up
// warmup. No recorder (or an empty one) is an empty 200 — starting next
// to a trace-less member is fine, just cold.
func (n *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	var data []byte
	if n.traceDump != nil {
		data = n.traceDump()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// serveControl dispatches one /v2/cluster/* request through the auth
// gate. Unknown cluster paths 404 here rather than falling through to the
// serving layer, so the token boundary covers the whole prefix.
func (n *Node) serveControl(w http.ResponseWriter, r *http.Request) {
	if !n.authorized(r) {
		n.authRejected.Add(1)
		writeJSONError(w, http.StatusUnauthorized, "cluster: missing or invalid bearer token")
		return
	}
	switch r.URL.Path {
	case RouteGenerations:
		n.handleGenerations(w, r)
	case RouteRing:
		n.handleRing(w, r)
	case RouteHealth:
		n.handleHealth(w, r)
	case RouteTrace:
		n.handleTrace(w, r)
	case RoutePlanEval:
		n.handlePlanEval(w, r)
	default:
		writeJSONError(w, http.StatusNotFound, "unknown cluster route")
	}
}

// Handler wraps the serving API with the cluster layer: the control
// routes are served here (behind the token, when configured), prediction
// POSTs are steered to their shard owner, /metrics gets the cluster
// families appended, and everything else passes through untouched.
func (n *Node) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, clusterRoutePrefix) {
			n.serveControl(w, r)
			return
		}
		if r.URL.Path == "/metrics" {
			// The serving layer writes its families, then the cluster
			// families are appended — text exposition format concatenates.
			next.ServeHTTP(w, r)
			n.WriteMetrics(promtext.NewWriter(w))
			return
		}
		if r.Method == http.MethodPost && isPredictPath(r.URL.Path) {
			n.steer(w, r, next)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// ControlHandler serves only the cluster control routes — for a
// -cluster-listen deployment that keeps the peer plane on an internal
// port while the public API listener omits nothing (the main Handler
// serves the control routes too).
func (n *Node) ControlHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, clusterRoutePrefix) {
			writeJSONError(w, http.StatusNotFound, "unknown cluster route")
			return
		}
		n.serveControl(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
