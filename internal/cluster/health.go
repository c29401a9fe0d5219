package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// DefaultHealthInterval is the health sweeper's cadence: how often every
// member (dead ones included — that is how they are readmitted) is probed
// on its /v2/healthz. Together with the gossip loop's contacts it drives
// the suspect/dead state machine; see DefaultSuspectAfter/DefaultDeadAfter
// for the resulting detection latency.
const DefaultHealthInterval = time.Second

// DefaultRequestTimeout bounds every individual outbound cluster request
// — a gossip push or poll, a health probe, a steering proxy attempt, a
// trace fetch. One hung member must cost one attempt's deadline, never a
// whole round or a client's patience; a hung seed delays a member's start
// by one push and one poll deadline.
const DefaultRequestTimeout = 2 * time.Second

// healthzPath is what the sweeper probes: the serving layer's liveness
// endpoint, deliberately outside /v2/cluster/* so probes work without the
// control-plane token and against the data plane the member actually
// serves traffic on.
const healthzPath = "/v2/healthz"

// ProbeNow runs one synchronous health sweep: every member (whatever its
// state) is probed concurrently, and each outcome feeds the failure
// detector. The background loop calls it every HealthInterval; tests call
// it directly for determinism.
func (n *Node) ProbeNow() {
	var wg sync.WaitGroup
	for _, peer := range n.Peers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			ok := n.call(context.Background(), n.reqTimeout, http.MethodGet, peer, healthzPath, nil, nil, maxControlBody) == nil
			n.probes.Add(1)
			if !ok {
				n.probeFailures.Add(1)
			}
			n.markContact(peer, ok)
		}(peer)
	}
	wg.Wait()
}

// HealthStats is a snapshot of the failure-detection and control-plane
// counters, exposed on /v2/cluster/health.
type HealthStats struct {
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Evictions     uint64 `json:"evictions"`
	Readmissions  uint64 `json:"readmissions"`
	AuthRejected  uint64 `json:"auth_rejected"`
}

// HealthStats returns the current health counters.
func (n *Node) HealthStats() HealthStats {
	return HealthStats{
		Probes:        n.probes.Load(),
		ProbeFailures: n.probeFailures.Load(),
		Evictions:     n.evictions.Load(),
		Readmissions:  n.readmissions.Load(),
		AuthRejected:  n.authRejected.Load(),
	}
}

// HealthResponse is the JSON reply of GET /v2/cluster/health: every
// member's failure-detector state plus the sweep configuration and
// counters.
type HealthResponse struct {
	Self             string         `json:"self"`
	HealthIntervalMs float64        `json:"health_interval_ms"`
	SuspectAfter     int            `json:"suspect_after"`
	DeadAfter        int            `json:"dead_after"`
	Members          []MemberStatus `json:"members"`
	Health           HealthStats    `json:"health"`
}

// handleHealth serves the cluster health endpoint.
func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSONError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Self:             n.self,
		HealthIntervalMs: float64(n.healthInterval) / float64(time.Millisecond),
		SuspectAfter:     n.suspectAfter,
		DeadAfter:        n.deadAfter,
		Members:          n.MemberStates(),
		Health:           n.HealthStats(),
	})
}
