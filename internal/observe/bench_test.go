package observe

import (
	"context"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// BenchmarkObserveIngest measures the observation hot path: prediction
// resolution (flat here — the serving layers benchmark their own cost),
// window push, and drift check.
func BenchmarkObserveIngest(b *testing.B) {
	m := NewMonitor(Config{Threshold: 100}, flatPredict) // never retrains
	defer m.Close()
	g := gpu.MustLookup("H100")
	ks := make([]kernels.Kernel, 64)
	for i := range ks {
		ks[i] = kernels.NewBMM(1, 64+i, 64, 64)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Ingest(ctx, "neusight", ks[i%len(ks)], g, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}
