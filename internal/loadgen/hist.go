package loadgen

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket HDR-style latency histogram: microsecond
// values are binned exactly below 8µs and into 8 logarithmic sub-buckets
// per power of two above it, so the worst-case quantization error of any
// reported percentile is 12.5% while the whole structure is a few KB of
// counters with no allocation per observation. Observe is lock-free and
// safe for arbitrary concurrent use — the load driver records from every
// in-flight request goroutine at once.
//
// The shape differs deliberately from serve's latencyWindow: the server
// keeps a bounded ring because its dashboards want *recent* behavior under
// indefinite uptime, while a load step is a closed interval whose report
// must reflect every request of the step — a ring that forgets the slow
// early tail would understate p999 exactly when the knee is forming.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sumUs  atomic.Uint64
	maxUs  atomic.Int64
	minUs  atomic.Int64 // math.MaxInt64 until the first observation
}

const (
	// histSubBits gives 1<<histSubBits sub-buckets per power of two:
	// 8 sub-buckets bound relative bucket width at 1/8.
	histSubBits = 3
	histSub     = 1 << histSubBits
	// histBuckets covers every int64 microsecond value: the linear region
	// [0,8) plus 8 sub-buckets for each of the remaining 60 octaves.
	histBuckets = histSub * 61
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minUs.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a non-negative microsecond value to its bucket:
// values below 8 are exact; above, idx = 8g + (v>>g) where g is the
// octave above the linear region (v>>g is in [8,16)).
func bucketIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	g := bits.Len64(uint64(v)) - 1 - histSubBits
	return g<<histSubBits + int(v>>uint(g))
}

// bucketUpperUs is the largest microsecond value mapping to bucket idx —
// the conservative representative every percentile reports.
func bucketUpperUs(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	g := uint(idx>>histSubBits - 1)
	s := int64(idx & (histSub - 1))
	return (histSub+s+1)<<g - 1
}

// Observe records one request duration. Sub-microsecond and negative
// durations land in bucket zero.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.counts[bucketIndex(us)].Add(1)
	h.count.Add(1)
	h.sumUs.Add(uint64(us))
	for {
		old := h.maxUs.Load()
		if us <= old || h.maxUs.CompareAndSwap(old, us) {
			break
		}
	}
	for {
		old := h.minUs.Load()
		if us >= old || h.minUs.CompareAndSwap(old, us) {
			break
		}
	}
}

// Count returns how many observations the histogram holds.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile returns the q-quantile (q in [0,1]) in milliseconds: the upper
// bound of the bucket holding the ceil(q*count)-th smallest observation.
// An empty histogram reports 0 for every quantile.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return float64(bucketUpperUs(i)) / 1e3
		}
	}
	// Unreachable unless observations raced in after the count snapshot;
	// fall back to the tracked maximum.
	return h.MaxMs()
}

// Quantiles returns Quantile for each q, sharing one bucket walk per call
// site's readability — the driver asks for p50/p99/p999 together.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = h.Quantile(q)
	}
	return out
}

// MeanMs returns the exact mean of all observations in milliseconds
// (buckets quantize percentiles, not the sum).
func (h *Histogram) MeanMs() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumUs.Load()) / float64(n) / 1e3
}

// MaxMs returns the exact maximum observation in milliseconds.
func (h *Histogram) MaxMs() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return float64(h.maxUs.Load()) / 1e3
}

// MinMs returns the exact minimum observation in milliseconds.
func (h *Histogram) MinMs() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return float64(h.minUs.Load()) / 1e3
}
