package loadgen

import (
	"context"
	"fmt"
	"time"
)

// SLO is the service-level objective a sweep step is judged against. A
// zero field disables that criterion.
type SLO struct {
	// P99Ms breaches when the step's p99 latency (successful requests)
	// exceeds it.
	P99Ms float64 `json:"p99_ms,omitempty"`
	// MaxErrorRate breaches when the step's error rate — rejections
	// (503), errors, and client-side drops over offered arrivals —
	// exceeds it.
	MaxErrorRate float64 `json:"max_error_rate,omitempty"`
}

// Check reports whether the step meets the SLO, and the breach reason
// when it does not.
func (s SLO) Check(r StepResult) (ok bool, reason string) {
	if s.P99Ms > 0 && r.P99Ms > s.P99Ms {
		return false, fmt.Sprintf("p99 %.3fms exceeds SLO %.3fms", r.P99Ms, s.P99Ms)
	}
	if s.MaxErrorRate > 0 && r.ErrorRate > s.MaxErrorRate {
		return false, fmt.Sprintf("error rate %.4f exceeds SLO %.4f", r.ErrorRate, s.MaxErrorRate)
	}
	return true, ""
}

// SweepConfig shapes a stepped sweep: offered rate walks Start, Start +
// Step, ... up to Max (inclusive), holding each step for StepDuration,
// until a step breaches the SLO.
type SweepConfig struct {
	Start float64 `json:"start"`
	Step  float64 `json:"step"`
	Max   float64 `json:"max"`
	// StepDuration is the hold time per step (default 2s). Longer steps
	// smooth percentile noise; shorter ones find the knee faster.
	StepDuration time.Duration `json:"-"`
	SLO          SLO           `json:"slo"`
	// Cooldown pauses between steps so a breached step's queued backlog
	// drains instead of polluting the next step's measurements.
	Cooldown time.Duration `json:"-"`
	// Run carries the shared step shape (arrival, scenario, caps); its
	// Rate and Duration are overridden per step.
	Run RunConfig `json:"-"`
}

// Knee is the sweep's headline answer: the highest offered rate that
// still met the SLO, with the latency and error profile measured there.
type Knee struct {
	OfferedRate  float64 `json:"offered_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	P999Ms       float64 `json:"p999_ms"`
	ErrorRate    float64 `json:"error_rate"`
}

// SweepResult is the full record of one stepped sweep.
type SweepResult struct {
	// Steps holds every step run, in offered-rate order, including the
	// breaching one — the step after the knee is what shows how the
	// service fails, which matters as much as where.
	Steps []StepResult `json:"steps"`
	// Knee is nil when even the first step breached — the service cannot
	// sustain the sweep's starting rate.
	Knee *Knee `json:"knee"`
	// Breached reports whether the sweep ended on an SLO breach; false
	// means the rate ceiling was reached with the SLO intact, so the true
	// knee is at or above Max and the sweep should be re-run higher.
	Breached     bool   `json:"breached"`
	BreachReason string `json:"breach_reason,omitempty"`
}

// knee converts a passing step into the knee record.
func knee(r StepResult) *Knee {
	return &Knee{
		OfferedRate:  r.OfferedRate,
		AchievedRate: r.AchievedRate,
		P50Ms:        r.P50Ms,
		P99Ms:        r.P99Ms,
		P999Ms:       r.P999Ms,
		ErrorRate:    r.ErrorRate,
	}
}

// Sweep walks offered rate up from cfg.Start by cfg.Step until the SLO
// breaches or cfg.Max is passed, and reports every step plus the knee.
func Sweep(ctx context.Context, tgt *Target, cfg SweepConfig) (SweepResult, error) {
	if cfg.Start <= 0 || cfg.Step <= 0 || cfg.Max < cfg.Start {
		return SweepResult{}, fmt.Errorf("loadgen: sweep wants 0 < start <= max and step > 0, got start=%g step=%g max=%g",
			cfg.Start, cfg.Step, cfg.Max)
	}
	stepDur := cfg.StepDuration
	if stepDur <= 0 {
		stepDur = 2 * time.Second
	}
	var out SweepResult
	for rate := cfg.Start; rate <= cfg.Max+1e-9; rate += cfg.Step {
		rcfg := cfg.Run
		rcfg.Rate = rate
		rcfg.Duration = stepDur
		res, err := Run(ctx, tgt, rcfg)
		if err != nil {
			return out, err
		}
		out.Steps = append(out.Steps, res)
		ok, reason := cfg.SLO.Check(res)
		if !ok {
			out.Breached = true
			out.BreachReason = reason
			return out, nil
		}
		out.Knee = knee(res)
		if cfg.Cooldown > 0 {
			select {
			case <-time.After(cfg.Cooldown):
			case <-ctx.Done():
				return out, ctx.Err()
			}
		}
	}
	return out, nil
}

// Report is the machine-readable JSON document `neusight loadgen` emits:
// the run's identity and configuration, plus exactly one of Sweep
// (stepped mode) or Run (fixed-rate mode).
type Report struct {
	Kind     string      `json:"kind"` // "neusight-loadgen"
	Target   string      `json:"target"`
	Scenario string      `json:"scenario"`
	Arrival  ArrivalSpec `json:"arrival"`
	SLO      *SLO        `json:"slo,omitempty"`

	Sweep *SweepResult `json:"sweep,omitempty"`
	Run   *StepResult  `json:"run,omitempty"`

	// ClusterSweep and ClusterRun are the cluster-mode equivalents
	// (`neusight loadgen -cluster`).
	ClusterSweep *ClusterSweepResult `json:"cluster_sweep,omitempty"`
	ClusterRun   *ClusterStepResult  `json:"cluster_run,omitempty"`
}

// ReportKind is the Report.Kind discriminator.
const ReportKind = "neusight-loadgen"
