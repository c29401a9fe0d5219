package serve

import (
	"net/http"

	"neusight/internal/observe"
	"neusight/internal/plan"
	"neusight/internal/promtext"
)

// MetricsContentType is the Prometheus text exposition content type served
// on /metrics.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteMetrics renders a Stats snapshot in Prometheus text exposition
// format 0.0.4 (internal/promtext), one metric family per block. Counters
// are cumulative since process start; gauges are instantaneous.
func WriteMetrics(p *promtext.Writer, st Stats) {
	avgBatch := 0.0
	if st.BatchRequests > 0 {
		avgBatch = float64(st.BatchedKernels) / float64(st.BatchRequests)
	}
	p.Counter("neusight_requests_total", "Kernel predictions requested (single and batched).", float64(st.Requests))
	p.Counter("neusight_graph_requests_total", "End-to-end graph forecasts requested.", float64(st.GraphRequests))
	p.Counter("neusight_batch_requests_total", "Batched prediction calls received.", float64(st.BatchRequests))
	p.Counter("neusight_batched_kernels_total", "Kernels submitted through batched prediction calls.", float64(st.BatchedKernels))
	p.Counter("neusight_cache_hits_total", "Prediction cache hits.", float64(st.CacheHits))
	p.Counter("neusight_cache_misses_total", "Prediction cache misses.", float64(st.CacheMisses))
	p.Counter("neusight_coalesced_total", "Requests coalesced onto an identical in-flight prediction.", float64(st.Coalesced))
	p.Counter("neusight_deduped_total", "Requests answered by another occurrence of the same kernel in their graph or batch (requests = cache hits + cache misses + deduped).", float64(st.Deduped))
	p.Counter("neusight_errors_total", "Predictions that returned an error.", float64(st.Errors))
	p.Counter("neusight_rejected_total", "Requests rejected by saturation backpressure.", float64(st.Rejected))
	p.Gauge("neusight_cache_entries", "Prediction cache entries currently resident.", float64(st.CacheLen))
	p.Gauge("neusight_inflight_requests", "Prediction requests currently being served.", float64(st.InFlight))
	p.Gauge("neusight_batch_size_avg", "Mean kernels per batched prediction call.", avgBatch)
	p.Gauge("neusight_request_latency_p50_ms", "Request latency p50 over the recent window (ms).", st.LatencyP50ms)
	p.Gauge("neusight_request_latency_p90_ms", "Request latency p90 over the recent window (ms).", st.LatencyP90ms)
	p.Gauge("neusight_request_latency_p99_ms", "Request latency p99 over the recent window (ms).", st.LatencyP99ms)
	p.Gauge("neusight_uptime_seconds", "Seconds since the service started.", st.UptimeSec)
}

var engineFamilies = []promtext.Family[EngineStats]{
	promtext.CounterOf("neusight_engine_requests_total", "Kernel predictions requested, by engine.",
		func(e EngineStats) float64 { return float64(e.Requests) }),
	promtext.CounterOf("neusight_engine_errors_total", "Predictions that returned an error, by engine.",
		func(e EngineStats) float64 { return float64(e.Errors) }),
	promtext.CounterOf("neusight_engine_coalesced_total", "Requests coalesced onto an identical in-flight prediction, by engine.",
		func(e EngineStats) float64 { return float64(e.Coalesced) }),
	promtext.CounterOf("neusight_engine_cache_hits_total", "Prediction cache hits, by engine.",
		func(e EngineStats) float64 { return float64(e.CacheHits) }),
	promtext.CounterOf("neusight_engine_cache_misses_total", "Prediction cache misses, by engine.",
		func(e EngineStats) float64 { return float64(e.CacheMisses) }),
	promtext.GaugeOf("neusight_engine_cache_entries", "Prediction cache entries currently resident, by engine.",
		func(e EngineStats) float64 { return float64(e.CacheLen) }),
	promtext.GaugeOf("neusight_engine_generation", "Engine state generation (bumps on retrain; cached forecasts from older generations are unreachable).",
		func(e EngineStats) float64 { return float64(e.Generation) }),
}

// WriteEngineMetrics renders per-engine labeled series, one family per
// block with one labeled sample per engine. Engines with no traffic yet
// have no state and therefore no series.
func WriteEngineMetrics(p *promtext.Writer, engines []EngineStats) {
	promtext.Families(p, engines, func(e EngineStats) string { return promtext.Label("engine", e.Engine) }, engineFamilies...)
}

// WriteWarmupMetrics renders the last trace-replay report as gauges; a
// process that never warmed up exports none.
func WriteWarmupMetrics(p *promtext.Writer, ws *WarmupStats) {
	if ws == nil {
		return
	}
	p.Gauge("neusight_warmup_entries", "Trace entries parsed by the last cache warmup.", float64(ws.Entries))
	p.Gauge("neusight_warmup_warmed", "Forecasts primed into the caches by the last warmup.", float64(ws.Warmed))
	p.Gauge("neusight_warmup_skipped", "Corrupt trace lines skipped by the last warmup.", float64(ws.Skipped))
	p.Gauge("neusight_warmup_failed", "Trace entries the last warmup could not prime.", float64(ws.Failed))
	p.Gauge("neusight_warmup_duration_ms", "Wall-clock duration of the last warmup (ms).", ws.DurationMs)
}

// WritePlanMetrics renders the planner counters; a process without a
// planner exports none.
func WritePlanMetrics(p *promtext.Writer, ps *plan.Stats) {
	if ps == nil {
		return
	}
	p.Gauge("neusight_plan_jobs", "Plan jobs known to this process (all states).", float64(ps.Jobs))
	p.Gauge("neusight_plan_jobs_active", "Plan jobs currently evaluating.", float64(ps.Active))
	p.Counter("neusight_plan_jobs_submitted_total", "Plan jobs submitted.", float64(ps.Submitted))
	p.Counter("neusight_plan_jobs_completed_total", "Plan jobs completed with every cell evaluated.", float64(ps.Completed))
	p.Counter("neusight_plan_jobs_cancelled_total", "Plan jobs cancelled (resumable).", float64(ps.Cancelled))
	p.Counter("neusight_plan_jobs_failed_total", "Plan jobs failed before evaluating.", float64(ps.Failed))
	p.Counter("neusight_plan_configs_evaluated_total", "Plan configurations evaluated and checkpointed.", float64(ps.ConfigsEvaluated))
	p.Counter("neusight_plan_remote_batches_total", "Configuration batches dispatched to cluster peers.", float64(ps.RemoteBatches))
	p.Counter("neusight_plan_remote_failures_total", "Dispatched batches whose owner failed.", float64(ps.RemoteFailures))
	p.Counter("neusight_plan_redispatched_batches_total", "Failed batches re-evaluated locally by the survivor.", float64(ps.RedispatchedBatches))
}

// metricsHandler serves the service counters as a Prometheus scrape target:
// the aggregate families first, then the engine-, warmup-,
// drift-, and planner-labeled families.
func metricsHandler(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		w.WriteHeader(http.StatusOK)
		p := promtext.NewWriter(w)
		WriteMetrics(p, s.Stats())
		WriteEngineMetrics(p, s.EngineStats())
		WriteWarmupMetrics(p, s.Warmup())
		observe.WriteMetrics(p, s.ObserveReport())
		WritePlanMetrics(p, s.PlanStats())
	}
}
