package cluster

import "neusight/internal/promtext"

// WriteMetrics renders the cluster counters in Prometheus text exposition
// format. The serving layer's /metrics handler output is a concatenation
// of families, so the cluster families are simply appended after it (see
// Handler).
func (n *Node) WriteMetrics(p *promtext.Writer) {
	gs := n.GossipStats()
	ss := n.SteerStats()
	hs := n.HealthStats()
	var suspect, dead float64
	for _, ms := range n.MemberStates() {
		switch ms.State {
		case MemberSuspect:
			suspect++
		case MemberDead:
			dead++
		}
	}
	p.Gauge("neusight_cluster_peers", "Peer processes this node gossips with.", float64(n.peerCount()))
	p.Gauge("neusight_cluster_members_suspect", "Members currently suspected by the failure detector.", suspect)
	p.Gauge("neusight_cluster_members_dead", "Members currently declared dead (evicted from the ring).", dead)
	p.Counter("neusight_cluster_steered_total", "Prediction requests steered to their shard owner.", float64(ss.Steered))
	p.Counter("neusight_cluster_proxied_total", "Prediction requests transparently proxied to the shard owner.", float64(ss.Proxied))
	p.Counter("neusight_cluster_misrouted_total", "Steered requests arriving at a non-owner (ring disagreement); served locally.", float64(ss.Misrouted))
	p.Counter("neusight_cluster_proxy_failures_total", "Proxy attempts that failed to reach the target (non-timeout).", float64(ss.ProxyFailures))
	p.Counter("neusight_cluster_proxy_timeouts_total", "Proxy attempts that hit the per-attempt deadline.", float64(ss.ProxyTimeouts))
	p.Counter("neusight_cluster_failed_over_total", "Proxied requests retried against the replica after a failed primary attempt.", float64(ss.FailedOver))
	p.Counter("neusight_cluster_relay_errors_total", "Proxied responses truncated while relaying the body to the client.", float64(ss.RelayErrors))
	p.Counter("neusight_cluster_probes_total", "Health probes issued by the background sweeper.", float64(hs.Probes))
	p.Counter("neusight_cluster_probe_failures_total", "Health probes that failed (no 200 within the deadline).", float64(hs.ProbeFailures))
	p.Counter("neusight_cluster_evictions_total", "Members declared dead and evicted from the ring.", float64(hs.Evictions))
	p.Counter("neusight_cluster_readmissions_total", "Dead members readmitted after a successful contact.", float64(hs.Readmissions))
	p.Counter("neusight_cluster_auth_rejected_total", "Control-plane requests rejected for a missing or invalid bearer token.", float64(hs.AuthRejected))
	p.Counter("neusight_cluster_gossip_pushes_total", "Generation snapshots pushed to peers.", float64(gs.Pushes))
	p.Counter("neusight_cluster_gossip_push_failures_total", "Generation pushes that failed to reach a peer.", float64(gs.PushFailures))
	p.Counter("neusight_cluster_gossip_polls_total", "Peer generation views polled.", float64(gs.Polls))
	p.Counter("neusight_cluster_gossip_poll_failures_total", "Peer polls that failed.", float64(gs.PollFailures))
	p.Counter("neusight_cluster_gossip_absorbed_total", "Peer generation views absorbed (pushes received plus poll replies).", float64(gs.Absorbed))
	p.Counter("neusight_cluster_invalidations_total", "Engines whose cached forecasts were dropped on a newer peer generation.", float64(gs.Invalidations))
	p.Counter("neusight_cluster_invalidated_entries_total", "Cache entries dropped by cluster generation invalidations.", float64(gs.DroppedEntries))
	p.Counter("neusight_cluster_plan_evals_total", "Plan configuration batches evaluated here for a peer's plan job.", float64(n.planEvalsServed.Load()))
	p.Counter("neusight_cluster_plan_eval_cells_total", "Plan configurations evaluated here for a peer's plan job.", float64(n.planEvalCells.Load()))
}
