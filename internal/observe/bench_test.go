package observe

import (
	"context"
	"path/filepath"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// BenchmarkObserveIngest measures the observation hot path: prediction
// resolution (flat here — the serving layers benchmark their own cost),
// window push, and drift check, without persistence.
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

// BenchmarkStoreAppend measures one persisted observation on a store that
// is already at DefaultStoreCap — every append evicts the oldest record,
// and every DefaultStoreCap-th compacts the file.
func BenchmarkStoreAppend(b *testing.B) {
	st, err := OpenStore(filepath.Join(b.TempDir(), "obs.jsonl"), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := NewRecord("neusight", kernels.NewBMM(1, 64, 64, 64), "H100", 1.5)
	for i := 0; i < DefaultStoreCap; i++ {
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
