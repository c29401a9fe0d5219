package serve

import (
	"fmt"
	"io"
	"net/http"

	"neusight/internal/observe"
	"neusight/internal/plan"
)

// MetricsContentType is the Prometheus text exposition content type served
// on /metrics.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// promMetric is one exported sample: HELP/TYPE metadata plus a value.
type promMetric struct {
	name  string
	help  string
	typ   string // "counter" or "gauge"
	value float64
}

// metricsFor flattens a Stats snapshot into the exported series. Counters
// are cumulative since process start; gauges are instantaneous.
func metricsFor(st Stats) []promMetric {
	avgBatch := 0.0
	if st.BatchRequests > 0 {
		avgBatch = float64(st.BatchedKernels) / float64(st.BatchRequests)
	}
	return []promMetric{
		{"neusight_requests_total", "Kernel predictions requested (single and batched).", "counter", float64(st.Requests)},
		{"neusight_graph_requests_total", "End-to-end graph forecasts requested.", "counter", float64(st.GraphRequests)},
		{"neusight_batch_requests_total", "Batched prediction calls received.", "counter", float64(st.BatchRequests)},
		{"neusight_batched_kernels_total", "Kernels submitted through batched prediction calls.", "counter", float64(st.BatchedKernels)},
		{"neusight_cache_hits_total", "Prediction cache hits.", "counter", float64(st.CacheHits)},
		{"neusight_cache_misses_total", "Prediction cache misses.", "counter", float64(st.CacheMisses)},
		{"neusight_coalesced_total", "Requests coalesced onto an identical in-flight prediction.", "counter", float64(st.Coalesced)},
		{"neusight_deduped_total", "Requests answered by another occurrence of the same kernel in their graph or batch (requests = cache hits + cache misses + deduped).", "counter", float64(st.Deduped)},
		{"neusight_errors_total", "Predictions that returned an error.", "counter", float64(st.Errors)},
		{"neusight_rejected_total", "Requests rejected by shard saturation backpressure.", "counter", float64(st.Rejected)},
		{"neusight_shards", "Shards the service routes across, each with its own cache, worker pool and queue bound (default 1).", "gauge", float64(st.Shards)},
		{"neusight_cache_entries", "Prediction cache entries currently resident.", "gauge", float64(st.CacheLen)},
		{"neusight_inflight_requests", "Prediction requests currently being served.", "gauge", float64(st.InFlight)},
		{"neusight_batch_size_avg", "Mean kernels per batched prediction call.", "gauge", avgBatch},
		{"neusight_request_latency_p50_ms", "Request latency p50 over the recent window (ms).", "gauge", st.LatencyP50ms},
		{"neusight_request_latency_p90_ms", "Request latency p90 over the recent window (ms).", "gauge", st.LatencyP90ms},
		{"neusight_request_latency_p99_ms", "Request latency p99 over the recent window (ms).", "gauge", st.LatencyP99ms},
		{"neusight_uptime_seconds", "Seconds since the service started.", "gauge", st.UptimeSec},
	}
}

// WriteMetrics renders st in Prometheus text exposition format 0.0.4:
// "# HELP" and "# TYPE" metadata lines followed by the sample, one metric
// family per block, ending with a newline.
func WriteMetrics(w io.Writer, st Stats) error {
	for _, m := range metricsFor(st) {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n",
			m.name, m.help, m.name, m.typ, m.name, m.value); err != nil {
			return err
		}
	}
	return nil
}

// engineFamily is one engine-labeled metric family: HELP/TYPE metadata and
// one sample per engine.
type engineFamily struct {
	name  string
	help  string
	typ   string
	value func(EngineStats) float64
}

var engineFamilies = []engineFamily{
	{"neusight_engine_requests_total", "Kernel predictions requested, by engine.", "counter",
		func(e EngineStats) float64 { return float64(e.Requests) }},
	{"neusight_engine_errors_total", "Predictions that returned an error, by engine.", "counter",
		func(e EngineStats) float64 { return float64(e.Errors) }},
	{"neusight_engine_coalesced_total", "Requests coalesced onto an identical in-flight prediction, by engine.", "counter",
		func(e EngineStats) float64 { return float64(e.Coalesced) }},
	{"neusight_engine_cache_hits_total", "Prediction cache hits, by engine.", "counter",
		func(e EngineStats) float64 { return float64(e.CacheHits) }},
	{"neusight_engine_cache_misses_total", "Prediction cache misses, by engine.", "counter",
		func(e EngineStats) float64 { return float64(e.CacheMisses) }},
	{"neusight_engine_cache_entries", "Prediction cache entries currently resident, by engine.", "gauge",
		func(e EngineStats) float64 { return float64(e.CacheLen) }},
	{"neusight_engine_generation", "Engine state generation (bumps on retrain; cached forecasts from older generations are unreachable).", "gauge",
		func(e EngineStats) float64 { return float64(e.Generation) }},
}

// WriteEngineMetrics renders per-engine labeled series, one family per
// block with one labeled sample per engine. Engines with no traffic yet
// have no state and therefore no series.
func WriteEngineMetrics(w io.Writer, engines []EngineStats) error {
	for _, f := range engineFamilies {
		if len(engines) == 0 {
			break
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, e := range engines {
			if _, err := fmt.Fprintf(w, "%s{engine=%q} %v\n", f.name, e.Engine, f.value(e)); err != nil {
				return err
			}
		}
	}
	return nil
}

// shardFamily is one shard-labeled metric family.
type shardFamily struct {
	name  string
	help  string
	typ   string
	value func(ShardStats) float64
}

var shardFamilies = []shardFamily{
	{"neusight_shard_requests_total", "Kernel predictions served, by shard.", "counter",
		func(sh ShardStats) float64 { return float64(sh.Requests) }},
	{"neusight_shard_errors_total", "Predictions that returned an error, by shard.", "counter",
		func(sh ShardStats) float64 { return float64(sh.Errors) }},
	{"neusight_shard_coalesced_total", "Requests coalesced onto an identical in-flight prediction, by shard.", "counter",
		func(sh ShardStats) float64 { return float64(sh.Coalesced) }},
	{"neusight_shard_rejected_total", "Requests rejected by saturation backpressure, by shard.", "counter",
		func(sh ShardStats) float64 { return float64(sh.Rejected) }},
	{"neusight_shard_cache_hits_total", "Prediction cache hits, by shard.", "counter",
		func(sh ShardStats) float64 { return float64(sh.CacheHits) }},
	{"neusight_shard_cache_misses_total", "Prediction cache misses, by shard.", "counter",
		func(sh ShardStats) float64 { return float64(sh.CacheMisses) }},
	{"neusight_shard_cache_entries", "Prediction cache entries currently resident, by shard.", "gauge",
		func(sh ShardStats) float64 { return float64(sh.CacheLen) }},
	{"neusight_shard_keys", "(engine, GPU) routing keys assigned so far, by shard.", "gauge",
		func(sh ShardStats) float64 { return float64(sh.Keys) }},
	{"neusight_shard_inflight_requests", "Requests currently in flight, by shard.", "gauge",
		func(sh ShardStats) float64 { return float64(sh.InFlight) }},
}

// WriteShardMetrics renders per-shard labeled series, one family per
// block with one labeled sample per shard.
func WriteShardMetrics(w io.Writer, shards []ShardStats) error {
	for _, f := range shardFamilies {
		if len(shards) == 0 {
			break
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, sh := range shards {
			if _, err := fmt.Fprintf(w, "%s{shard=\"%d\"} %v\n", f.name, sh.Shard, f.value(sh)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteWarmupMetrics renders the last trace-replay report as gauges; a
// process that never warmed up exports none.
func WriteWarmupMetrics(w io.Writer, ws *WarmupStats) error {
	if ws == nil {
		return nil
	}
	for _, m := range []promMetric{
		{"neusight_warmup_entries", "Trace entries parsed by the last cache warmup.", "gauge", float64(ws.Entries)},
		{"neusight_warmup_warmed", "Forecasts primed into the caches by the last warmup.", "gauge", float64(ws.Warmed)},
		{"neusight_warmup_skipped", "Corrupt trace lines skipped by the last warmup.", "gauge", float64(ws.Skipped)},
		{"neusight_warmup_failed", "Trace entries the last warmup could not prime.", "gauge", float64(ws.Failed)},
		{"neusight_warmup_duration_ms", "Wall-clock duration of the last warmup (ms).", "gauge", ws.DurationMs},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n",
			m.name, m.help, m.name, m.typ, m.name, m.value); err != nil {
			return err
		}
	}
	return nil
}

// WritePlanMetrics renders the planner counters; a process without a
// planner exports none.
func WritePlanMetrics(w io.Writer, ps *plan.Stats) error {
	if ps == nil {
		return nil
	}
	for _, m := range []promMetric{
		{"neusight_plan_jobs", "Plan jobs known to this process (all states).", "gauge", float64(ps.Jobs)},
		{"neusight_plan_jobs_active", "Plan jobs currently evaluating.", "gauge", float64(ps.Active)},
		{"neusight_plan_jobs_submitted_total", "Plan jobs submitted.", "counter", float64(ps.Submitted)},
		{"neusight_plan_jobs_completed_total", "Plan jobs completed with every cell evaluated.", "counter", float64(ps.Completed)},
		{"neusight_plan_jobs_cancelled_total", "Plan jobs cancelled (resumable).", "counter", float64(ps.Cancelled)},
		{"neusight_plan_jobs_failed_total", "Plan jobs failed before evaluating.", "counter", float64(ps.Failed)},
		{"neusight_plan_configs_evaluated_total", "Plan configurations evaluated and checkpointed.", "counter", float64(ps.ConfigsEvaluated)},
		{"neusight_plan_remote_batches_total", "Configuration batches dispatched to cluster peers.", "counter", float64(ps.RemoteBatches)},
		{"neusight_plan_remote_failures_total", "Dispatched batches whose owner failed.", "counter", float64(ps.RemoteFailures)},
		{"neusight_plan_redispatched_batches_total", "Failed batches re-evaluated locally by the survivor.", "counter", float64(ps.RedispatchedBatches)},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n",
			m.name, m.help, m.name, m.typ, m.name, m.value); err != nil {
			return err
		}
	}
	return nil
}

// metricsHandler serves the service counters as a Prometheus scrape target:
// the aggregate families first, then the engine-, shard-, warmup-,
// drift-, and planner-labeled families.
func metricsHandler(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MetricsContentType)
		w.WriteHeader(http.StatusOK)
		WriteMetrics(w, s.Stats())
		WriteEngineMetrics(w, s.EngineStats())
		WriteShardMetrics(w, s.Shards())
		WriteWarmupMetrics(w, s.Warmup())
		observe.WriteMetrics(w, s.ObserveReport())
		WritePlanMetrics(w, s.PlanStats())
	}
}
