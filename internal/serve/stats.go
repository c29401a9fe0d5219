package serve

import (
	"sort"
	"sync"
	"time"
)

// latencyWindow records the durations of recent requests in a fixed-size
// ring and answers percentile queries over that window. Keeping a bounded
// window (rather than a full history) matches how serving dashboards read:
// percentiles reflect current behavior, and memory stays constant under
// sustained traffic.
type latencyWindow struct {
	mu    sync.Mutex
	ring  []time.Duration
	next  int
	count int
}

// defaultLatencyWindow is sized to smooth percentile estimates without
// letting hours-old requests dominate.
const defaultLatencyWindow = 4096

func newLatencyWindow() *latencyWindow {
	return &latencyWindow{ring: make([]time.Duration, defaultLatencyWindow)}
}

// Observe records one request duration.
func (w *latencyWindow) Observe(d time.Duration) {
	w.mu.Lock()
	w.ring[w.next] = d
	w.next = (w.next + 1) % len(w.ring)
	if w.count < len(w.ring) {
		w.count++
	}
	w.mu.Unlock()
}

// Percentiles returns the given quantiles (each in [0,1]) over the window,
// in milliseconds. With no observations every quantile is 0.
func (w *latencyWindow) Percentiles(qs ...float64) []float64 {
	w.mu.Lock()
	samples := make([]time.Duration, w.count)
	copy(samples, w.ring[:w.count])
	w.mu.Unlock()

	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for i, q := range qs {
		idx := int(q * float64(len(samples)-1))
		out[i] = float64(samples[idx]) / float64(time.Millisecond)
	}
	return out
}
