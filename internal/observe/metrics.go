package observe

import "neusight/internal/promtext"

var windowFamilies = []promtext.Family[WindowReport]{
	promtext.GaugeOf("neusight_observe_mape", "Rolling MAPE of predictions vs observations per (engine, GPU).",
		func(w WindowReport) float64 { return w.MAPE }),
	promtext.GaugeOf("neusight_observe_window_samples", "Observations currently in the drift window.",
		func(w WindowReport) float64 { return float64(w.Samples) }),
	promtext.GaugeOf("neusight_observe_drifting", "1 when the window MAPE is above the threshold.",
		func(w WindowReport) float64 { return promtext.Bool(w.Drifting) }),
	promtext.GaugeOf("neusight_observe_retrainable", "1 when the engine has a registered calibration retrainer.",
		func(w WindowReport) float64 { return promtext.Bool(w.Retrainable) }),
}

// WriteMetrics renders a drift report as neusight_observe_* Prometheus
// text-format families. A nil report (observation ingestion disabled)
// writes nothing, matching the other optional metric sections.
func WriteMetrics(p *promtext.Writer, rep *Report) {
	if rep == nil {
		return
	}
	p.Counter("neusight_observe_ingested_total", "Observations accepted into drift windows.", float64(rep.Ingested))
	p.Counter("neusight_observe_rejected_total", "Observations rejected (bad latency or failed prediction).", float64(rep.Rejected))
	p.Counter("neusight_observe_retrains_total", "Calibration retrains completed.", float64(rep.Retrains))
	p.Counter("neusight_observe_retrain_errors_total", "Calibration retrains that failed.", float64(rep.RetrainErrors))
	p.Gauge("neusight_observe_retrain_active", "1 while a background retrain is in flight.", promtext.Bool(rep.RetrainActive))
	p.Gauge("neusight_observe_drift_threshold", "Rolling-MAPE level above which a retrainable engine retrains.", rep.Threshold)
	p.Gauge("neusight_observe_windows", "Live (engine, GPU) drift windows.", float64(len(rep.Windows)))
	promtext.Families(p, rep.Windows, func(w WindowReport) string {
		return promtext.Label("engine", w.Engine) + "," + promtext.Label("gpu", w.GPU)
	}, windowFamilies...)
}
