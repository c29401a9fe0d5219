// Package loadgen is the repo's load generator: an open-loop driver that
// offers prediction traffic to one serve.Service (over its HTTP API) at a
// controlled rate and measures what comes back. Open loop matters: a
// closed loop slows its own offering exactly when the server saturates and
// so only ever measures the plateau, never the queueing before it.
//
// The pieces compose left to right:
//
//	ArrivalSpec (arrival.go)  — when requests arrive: Poisson or bursty
//	                            on/off streams, deterministic under a seed
//	Scenario (scenario.go)    — what each request is: weighted
//	                            kernel/batch/graph mixes over a model × GPU
//	                            matrix, or a recorded trace replayed at rate
//	Run (this file)           — one fixed-rate step: dispatch open-loop,
//	                            record latencies into an HDR-style
//	                            Histogram (hist.go), count outcomes, and
//	                            difference the server's /v2/stats around
//	                            the step
//
// `neusight loadgen` is the CLI front end — an operator tool for one
// fixed-rate or trace-replay run against one target (a rate ladder is a
// shell loop over -rate). The repository's benchmark is bench/, which
// draws its paced pool and arrival process from this package.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"neusight/internal/serve"
)

// Target is the service under test: a base URL plus the HTTP client the
// driver issues requests through.
type Target struct {
	BaseURL string
	Client  *http.Client
}

// NewTarget returns a Target for baseURL with a client sized for maxConns
// concurrent requests: connection reuse must keep up with the in-flight
// ceiling or the driver ends up benchmarking TCP handshakes.
func NewTarget(baseURL string, maxConns int) *Target {
	if maxConns <= 0 {
		maxConns = DefaultMaxInFlight
	}
	tr := &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     30 * time.Second,
	}
	return &Target{BaseURL: baseURL, Client: &http.Client{Transport: tr}}
}

// Stats fetches the target's /v2/stats snapshot.
func (t *Target) Stats(ctx context.Context) (serve.StatsV2, error) {
	var st serve.StatsV2
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.BaseURL+"/v2/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("loadgen: /v2/stats returned %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// DefaultMaxInFlight caps concurrently outstanding requests. An open-loop
// driver must keep offering while the target lags, but a truly unbounded
// one would eventually exhaust client sockets and measure its own
// resource collapse; arrivals past the cap are counted as Dropped — by
// then the target is far past its knee anyway.
const DefaultMaxInFlight = 4096

// RunConfig shapes one fixed-rate load step.
type RunConfig struct {
	// Rate is the offered rate in requests/second.
	Rate float64
	// Duration is how long to offer arrivals (completions may lag a
	// little past it; they are all waited for and measured).
	Duration time.Duration
	// Arrival picks the arrival process (default: Poisson, seed 0).
	Arrival ArrivalSpec
	// Scenario supplies the request stream. Required.
	Scenario *Scenario
	// MaxInFlight caps outstanding requests (0 = DefaultMaxInFlight;
	// negative = unbounded).
	MaxInFlight int
	// Timeout bounds each request round trip (0 = 30s). A timed-out
	// request counts as errored.
	Timeout time.Duration
	// ObserveFeedback reports each successful kernel request's measured
	// round-trip latency back to the target via POST /v2/observe after the
	// step completes — the client side of the continuous-calibration loop.
	// Posting happens after the /v2/stats delta is taken so the feedback
	// traffic does not skew the step's server-side account. The target
	// must run with -observe or every observation is rejected.
	ObserveFeedback bool
}

// ServerDelta is the change in the target's /v2/stats counters across one
// step — the server's own account of what the step did to it, recorded so
// a report can be cross-checked against the service rather than trusting
// the client side alone (the agreement tests pin the two views equal).
type ServerDelta struct {
	Requests       uint64 `json:"requests"`
	BatchRequests  uint64 `json:"batch_requests"`
	BatchedKernels uint64 `json:"batched_kernels"`
	GraphRequests  uint64 `json:"graph_requests"`
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	Coalesced      uint64 `json:"coalesced"`
	Errors         uint64 `json:"errors"`
	Rejected       uint64 `json:"rejected"`
}

func deltaStats(before, after serve.StatsV2) *ServerDelta {
	return &ServerDelta{
		Requests:       after.Requests - before.Requests,
		BatchRequests:  after.BatchRequests - before.BatchRequests,
		BatchedKernels: after.BatchedKernels - before.BatchedKernels,
		GraphRequests:  after.GraphRequests - before.GraphRequests,
		CacheHits:      after.CacheHits - before.CacheHits,
		CacheMisses:    after.CacheMisses - before.CacheMisses,
		Coalesced:      after.Coalesced - before.Coalesced,
		Errors:         after.Errors - before.Errors,
		Rejected:       after.Rejected - before.Rejected,
	}
}

// Report is the machine-readable JSON document `neusight loadgen` emits:
// the run's identity and configuration plus the measured step.
type Report struct {
	Kind     string      `json:"kind"` // "neusight-loadgen"
	Target   string      `json:"target"`
	Scenario string      `json:"scenario"`
	Arrival  ArrivalSpec `json:"arrival"`
	Run      *StepResult `json:"run,omitempty"`
}

// ReportKind is the Report.Kind discriminator.
const ReportKind = "neusight-loadgen"

// StepResult is the measured outcome of one fixed-rate step.
type StepResult struct {
	// OfferedRate is the configured arrival rate (requests/second);
	// AchievedRate is successful completions per second of wall clock.
	// A widening gap between them is the knee forming.
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`

	// Sent counts requests actually issued; Succeeded (2xx), Rejected
	// (503 backpressure), and Errored (everything else, including
	// transport failures) partition it exactly. Dropped counts arrivals
	// shed client-side at the in-flight cap — offered but never sent.
	Sent      uint64 `json:"sent"`
	Succeeded uint64 `json:"succeeded"`
	Rejected  uint64 `json:"rejected"`
	Errored   uint64 `json:"errored"`
	Dropped   uint64 `json:"dropped"`

	// Latency percentiles are over successful requests only: rejections
	// complete in microseconds, and folding them in would make the
	// service look fastest exactly while it sheds load.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`

	// ErrorRate is (Rejected + Errored + Dropped) / offered arrivals —
	// the fraction of offered traffic that did not succeed.
	ErrorRate float64 `json:"error_rate"`

	DurationSec float64 `json:"duration_sec"`

	// Observed counts measured latencies the feedback mode reported back
	// through /v2/observe after the step; ObserveRejected counts the ones
	// the server refused. Both zero unless ObserveFeedback is set.
	Observed        uint64 `json:"observed,omitempty"`
	ObserveRejected uint64 `json:"observe_rejected,omitempty"`

	// Server is the /v2/stats delta across the step (nil when skipped or
	// unavailable).
	Server *ServerDelta `json:"server,omitempty"`
}

// maxStatsTimeout bounds each /v2/stats fetch around a step. The stats
// endpoint answers in microseconds when healthy; a target that vanished or
// hung mid-step must cost the step a bounded wait, not hang it forever.
const maxStatsTimeout = 5 * time.Second

// statsDeadline derives the stats-fetch timeout from the step's request
// timeout, capped at maxStatsTimeout.
func statsDeadline(timeout time.Duration) time.Duration {
	if timeout > 0 && timeout < maxStatsTimeout {
		return timeout
	}
	return maxStatsTimeout
}

// Run offers one fixed-rate open-loop load step to the target and reports
// what happened. Arrivals are scheduled on an absolute timeline derived
// from the arrival process, so a lagging target receives the backlog as a
// burst instead of silently lowering the offered rate.
func Run(ctx context.Context, tgt *Target, cfg RunConfig) (StepResult, error) {
	if tgt == nil {
		return StepResult{}, fmt.Errorf("loadgen: nil target")
	}
	if cfg.Scenario == nil || cfg.Scenario.Len() == 0 {
		return StepResult{}, fmt.Errorf("loadgen: empty scenario")
	}
	if cfg.Duration <= 0 {
		return StepResult{}, fmt.Errorf("loadgen: step duration must be positive, got %v", cfg.Duration)
	}
	arr, err := cfg.Arrival.New(cfg.Rate)
	if err != nil {
		return StepResult{}, err
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	// Bounded: a target that accepts the connection and never answers must
	// not hang the step.
	sctx, scancel := context.WithTimeout(ctx, statsDeadline(timeout))
	before, beforeErr := tgt.Stats(sctx)
	scancel()

	var (
		sent, succeeded, rejected, errored, dropped atomic.Uint64
		inFlight                                    atomic.Int64
		hist                                        = NewHistogram()
		wg                                          sync.WaitGroup

		// Feedback observations accumulate under their own lock; the hot
		// path only appends, the posting happens after the step completes.
		obsMu sync.Mutex
		obs   []serve.ObserveRequest
	)
	issue := func(req Request) {
		defer wg.Done()
		defer inFlight.Add(-1)
		sent.Add(1)
		rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), timeout)
		defer cancel()
		start := time.Now()
		status, err := tgt.do(rctx, req)
		switch {
		case err != nil:
			errored.Add(1)
		case status == http.StatusServiceUnavailable:
			rejected.Add(1)
		case status >= 200 && status < 300:
			succeeded.Add(1)
			elapsed := time.Since(start)
			hist.Observe(elapsed)
			if cfg.ObserveFeedback && req.Observe != nil {
				ob := *req.Observe
				ob.ObservedMs = float64(elapsed.Nanoseconds()) / 1e6
				obsMu.Lock()
				obs = append(obs, ob)
				obsMu.Unlock()
			}
		default:
			errored.Add(1)
		}
	}

	start := time.Now()
	next := start
	var i uint64
	for {
		next = next.Add(arr.Next())
		if next.Sub(start) >= cfg.Duration {
			break
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		req := cfg.Scenario.Request(i)
		i++
		if maxInFlight > 0 && inFlight.Load() >= int64(maxInFlight) {
			dropped.Add(1)
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go issue(req)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return StepResult{}, err
	}

	qs := hist.Quantiles(0.50, 0.99, 0.999)
	res := StepResult{
		OfferedRate: cfg.Rate,
		Sent:        sent.Load(),
		Succeeded:   succeeded.Load(),
		Rejected:    rejected.Load(),
		Errored:     errored.Load(),
		Dropped:     dropped.Load(),
		P50Ms:       qs[0],
		P99Ms:       qs[1],
		P999Ms:      qs[2],
		MeanMs:      hist.MeanMs(),
		MaxMs:       hist.MaxMs(),
		DurationSec: elapsed.Seconds(),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.AchievedRate = float64(res.Succeeded) / secs
	}
	if offered := res.Sent + res.Dropped; offered > 0 {
		res.ErrorRate = float64(res.Rejected+res.Errored+res.Dropped) / float64(offered)
	}
	if beforeErr == nil {
		sctx, scancel := context.WithTimeout(ctx, statsDeadline(timeout))
		if after, err := tgt.Stats(sctx); err == nil {
			res.Server = deltaStats(before, after)
		}
		scancel()
	}
	if cfg.ObserveFeedback {
		res.Observed, res.ObserveRejected = tgt.Observe(ctx, obs)
	}
	return res, nil
}

// Observe posts measured latencies to the target's /v2/observe endpoint in
// chunks capped at the server's batch limit, returning the server-side
// accepted and rejected counts. A chunk that fails to round-trip (transport
// error, non-200, undecodable reply) counts fully rejected.
func (t *Target) Observe(ctx context.Context, obs []serve.ObserveRequest) (accepted, rejected uint64) {
	for len(obs) > 0 {
		n := len(obs)
		if n > serve.MaxBatchKernels {
			n = serve.MaxBatchKernels
		}
		chunk := obs[:n]
		obs = obs[n:]
		body, err := json.Marshal(serve.ObserveBatchRequest{Observations: chunk})
		if err != nil {
			rejected += uint64(n)
			continue
		}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+"/v2/observe", bytes.NewReader(body))
		if err != nil {
			rejected += uint64(n)
			continue
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := t.Client.Do(hr)
		if err != nil {
			rejected += uint64(n)
			continue
		}
		var or serve.ObserveResponse
		decErr := json.NewDecoder(resp.Body).Decode(&or)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if decErr != nil || resp.StatusCode != http.StatusOK {
			rejected += uint64(n)
			continue
		}
		accepted += uint64(or.Accepted)
		rejected += uint64(or.Rejected)
	}
	return accepted, rejected
}

// do issues one pre-encoded request and returns the HTTP status. The body
// is drained so the transport can reuse the connection.
func (t *Target) do(ctx context.Context, req Request) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, t.BaseURL+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := t.Client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
