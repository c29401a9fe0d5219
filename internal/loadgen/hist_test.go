package loadgen

import (
	"math"
	"sync"
	"testing"
	"time"
)

func us(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 {
		t.Fatalf("empty count = %d", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, v)
		}
	}
	if h.MeanMs() != 0 || h.MaxMs() != 0 || h.MinMs() != 0 {
		t.Errorf("empty mean/max/min = %g/%g/%g, want 0", h.MeanMs(), h.MaxMs(), h.MinMs())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(us(250))
	// 250µs lands in the bucket [240, 255]: every quantile reports the
	// bucket's upper bound, 0.255ms; mean/max/min stay exact.
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if v := h.Quantile(q); v != 0.255 {
			t.Errorf("Quantile(%g) = %g, want 0.255", q, v)
		}
	}
	if h.Count() != 1 {
		t.Errorf("count = %d, want 1", h.Count())
	}
	if h.MeanMs() != 0.25 || h.MaxMs() != 0.25 || h.MinMs() != 0.25 {
		t.Errorf("mean/max/min = %g/%g/%g, want 0.25", h.MeanMs(), h.MaxMs(), h.MinMs())
	}
}

// TestHistogramPinnedPercentiles pins p50/p99/p999 against hand-computed
// bucket upper bounds on synthetic distributions.
func TestHistogramPinnedPercentiles(t *testing.T) {
	cases := []struct {
		name           string
		feed           func(h *Histogram)
		p50, p99, p999 float64
	}{
		{
			// 1..1000µs once each: rank 500 → bucket [480,511] → 0.511ms;
			// ranks 990 and 1000 → bucket [960,1023] → 1.023ms.
			name: "uniform_1_1000us",
			feed: func(h *Histogram) {
				for v := int64(1); v <= 1000; v++ {
					h.Observe(us(v))
				}
			},
			p50: 0.511, p99: 1.023, p999: 1.023,
		},
		{
			// Sub-8µs values are binned exactly.
			name: "exact_small_values",
			feed: func(h *Histogram) {
				for _, v := range []int64{1, 2, 3} {
					h.Observe(us(v))
				}
			},
			p50: 0.002, p99: 0.003, p999: 0.003,
		},
		{
			// Bimodal: 900 fast (1ms) + 100 slow (100ms). p50 sits in the
			// fast mode's bucket [960,1023]µs; p99/p999 in the slow mode's
			// bucket [98304,106495]µs.
			name: "bimodal_tail",
			feed: func(h *Histogram) {
				for i := 0; i < 900; i++ {
					h.Observe(time.Millisecond)
				}
				for i := 0; i < 100; i++ {
					h.Observe(100 * time.Millisecond)
				}
			},
			p50: 1.023, p99: 106.495, p999: 106.495,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram()
			tc.feed(h)
			qs := h.Quantiles(0.50, 0.99, 0.999)
			if qs[0] != tc.p50 || qs[1] != tc.p99 || qs[2] != tc.p999 {
				t.Errorf("p50/p99/p999 = %g/%g/%g, want %g/%g/%g",
					qs[0], qs[1], qs[2], tc.p50, tc.p99, tc.p999)
			}
		})
	}
}

// TestHistogramResolutionBound verifies the design bound: the reported
// bucket upper never overstates a value by more than 1/8.
func TestHistogramResolutionBound(t *testing.T) {
	for _, v := range []int64{1, 7, 8, 9, 100, 999, 1000, 4095, 4096, 65537, 1e6, 1e7, 3e8} {
		idx := bucketIndex(v)
		upper := bucketUpperUs(idx)
		if upper < v {
			t.Fatalf("bucket upper %d below value %d", upper, v)
		}
		if rel := float64(upper-v) / float64(v); rel > 0.125 {
			t.Errorf("value %d: upper %d overstates by %.3f > 0.125", v, upper, rel)
		}
		// Buckets must be consistent: the upper bound maps back to the
		// same bucket, and the next value starts a new one.
		if bucketIndex(upper) != idx {
			t.Errorf("value %d: upper %d maps to bucket %d, want %d", v, upper, bucketIndex(upper), idx)
		}
		if bucketIndex(upper+1) == idx {
			t.Errorf("value %d: upper+1 %d still maps to bucket %d", v, upper+1, idx)
		}
	}
}

func TestHistogramMeanAndExtremes(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{100, 200, 600} {
		h.Observe(us(v))
	}
	if got := h.MeanMs(); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("mean = %g, want 0.3", got)
	}
	if h.MinMs() != 0.1 || h.MaxMs() != 0.6 {
		t.Errorf("min/max = %g/%g, want 0.1/0.6", h.MinMs(), h.MaxMs())
	}
	// Negative and sub-microsecond durations clamp into bucket zero
	// rather than corrupting the counters.
	h.Observe(-time.Second)
	h.Observe(500 * time.Nanosecond)
	if h.Count() != 5 || h.MinMs() != 0 {
		t.Errorf("after clamped observes: count=%d min=%g", h.Count(), h.MinMs())
	}
}

// TestHistogramConcurrentObserve drives Observe from many goroutines —
// meaningful under -race, and checks no observation is lost.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(us(int64(g*per + i + 1)))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	if q := h.Quantile(1); q < 15 { // max value is 16000µs = 16ms
		t.Errorf("p100 = %gms, want >= 15ms", q)
	}
}
