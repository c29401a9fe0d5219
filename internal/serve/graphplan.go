package serve

import (
	"neusight/internal/graph"
	"neusight/internal/models"
)

// planKey identifies the graph a graph request asks for. It names no GPU,
// engine or model generation, because a plan depends on none of them:
// the same plan answers the request on every device, and freshness comes
// from the per-kernel prediction cache and its generation keys. The memo
// therefore has nothing to invalidate — not on retrain, not on gossip.
type planKey struct {
	workload        string
	batch           int
	training, fused bool
}

// planMemoSize bounds the plan memo. Workloads come from a small registry
// but batch ranges to MaxGraphBatch, so the key space is large; a few
// hundred entries hold every graph a deployment asks for repeatedly, and
// a sweep over batch sizes evicts instead of growing the process.
const planMemoSize = 256

// PlanMemoStats is the plan memo's slice of /v2/stats.
type PlanMemoStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Len    int    `json:"len"`
}

// PlanMemoStats returns the plan memo counters.
func (s *Service) PlanMemoStats() PlanMemoStats {
	hits, misses := s.plans.Counters()
	return PlanMemoStats{Hits: hits, Misses: misses, Len: s.plans.Len()}
}

// graphPlan returns the compiled plan of m at the requested batch and
// mode, building (and fusing) the graph only on a memo miss. Concurrent
// first requests may each build the plan; they are equal and immutable, so
// whichever is stored last serves the rest.
func (s *Service) graphPlan(m models.Config, batch int, training, fused bool) *graph.Plan {
	key := planKey{workload: m.Name, batch: batch, training: training, fused: fused}
	if pl, ok := s.plans.Get(key); ok {
		return pl
	}
	var gr *graph.Graph
	if training {
		gr = m.TrainingGraph(batch)
	} else {
		gr = m.InferenceGraph(batch)
	}
	if fused {
		gr = graph.Fuse(gr)
	}
	pl := graph.Compile(gr)
	s.plans.Put(key, pl)
	return pl
}
