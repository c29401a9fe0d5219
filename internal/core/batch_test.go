package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/tile"
)

// trainSmallDataset generates a small profiled dataset for retraining
// scenarios (TestRecompileAfterTrain).
func trainSmallDataset(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.GenConfig{
		Seed: seed, BMM: 150, FC: 80, EW: 60, Softmax: 40, LN: 40,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tile.NewDB())
}

// batchTestKernels is a mixed workload: every trained category, duplicates,
// a memory-bound fallback op, and an untrained-path embedding.
func batchTestKernels() []kernels.Kernel {
	return []kernels.Kernel{
		kernels.NewBMM(4, 128, 64, 128),
		kernels.NewLinear(64, 256, 128),
		kernels.NewElementwise(kernels.OpEWAdd, 64, 1024),
		kernels.NewSoftmax(64, 512),
		kernels.NewLayerNorm(64, 512),
		kernels.NewBMM(4, 128, 64, 128),      // duplicate of [0]
		kernels.NewEmbedding(64, 512, 30000), // memory-bound fallback
		kernels.NewBMM(8, 256, 128, 64),
	}
}

// TestPredictKernelsMatchesPredictKernel: the batch path must be
// bit-identical to the single-kernel compiled path for every item.
func TestPredictKernelsMatchesPredictKernel(t *testing.T) {
	p := trainSmall(t, 11)
	g := gpu.MustLookup("H100")
	ks := batchTestKernels()

	lats, errs := p.PredictKernels(ks, g)
	if len(lats) != len(ks) || len(errs) != len(ks) {
		t.Fatalf("batch returned %d/%d results for %d kernels", len(lats), len(errs), len(ks))
	}
	for i, k := range ks {
		want, err := p.PredictKernel(k, g)
		if err != nil {
			t.Fatalf("PredictKernel(%s): %v", k.Label(), err)
		}
		if errs[i] != nil {
			t.Fatalf("batch item %d (%s): %v", i, k.Label(), errs[i])
		}
		if lats[i] != want {
			t.Errorf("batch item %d (%s) = %v, want %v (single path)", i, k.Label(), lats[i], want)
		}
		if lats[i] <= 0 {
			t.Errorf("batch item %d (%s) = %v, want > 0", i, k.Label(), lats[i])
		}
	}
}

// TestCompiledPathMatchesAutodiffPath: the serving-path prediction must be
// bit-identical to the full autodiff expression it replaced.
func TestCompiledPathMatchesAutodiffPath(t *testing.T) {
	p := trainSmall(t, 12)
	for _, gname := range []string{"V100", "H100"} {
		g := gpu.MustLookup(gname)
		for _, k := range batchTestKernels() {
			want, err1 := p.predictKernelAutodiff(k, g)
			got, err2 := p.PredictKernel(k, g)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s on %s: error mismatch %v vs %v", k.Label(), gname, err1, err2)
			}
			if got != want {
				t.Errorf("%s on %s: compiled %v != autodiff %v", k.Label(), gname, got, want)
			}
		}
	}
}

func TestPredictKernelsPerItemErrors(t *testing.T) {
	p := trainSmall(t, 13)
	g := gpu.MustLookup("V100")
	ks := []kernels.Kernel{
		kernels.NewBMM(2, 64, 64, 64),
		kernels.Kernel{Op: kernels.OpAllReduce, B: 1 << 20, M: 1}, // network: must error in place
		kernels.NewEmbedding(32, 256, 1000),                       // memory-bound: fallback, no error
	}
	lats, errs := p.PredictKernels(ks, g)
	if errs[0] != nil || lats[0] <= 0 {
		t.Errorf("item 0 = (%v, %v), want positive latency", lats[0], errs[0])
	}
	if errs[1] == nil {
		t.Error("network kernel must produce a per-item error")
	}
	if errs[2] != nil {
		t.Errorf("memory-bound kernel errored: %v", errs[2])
	}
	if want := MemBoundLatency(ks[2], g); lats[2] != want {
		t.Errorf("memory-bound fallback = %v, want %v", lats[2], want)
	}
}

func TestPredictKernelsUntrained(t *testing.T) {
	p := NewPredictor(DefaultConfig(), nil)
	g := gpu.MustLookup("V100")
	lats, errs := p.PredictKernels([]kernels.Kernel{
		kernels.NewBMM(2, 32, 32, 32),
		kernels.NewEmbedding(8, 64, 1000),
	}, g)
	if !errors.Is(errs[0], ErrUntrained) {
		t.Errorf("untrained BMM error = %v, want ErrUntrained", errs[0])
	}
	if errs[1] != nil || lats[1] != MemBoundLatency(kernels.NewEmbedding(8, 64, 1000), g) {
		t.Errorf("memory-bound item = (%v, %v), want closed-form fallback", lats[1], errs[1])
	}
}

func TestPredictKernelsEmpty(t *testing.T) {
	p := trainSmall(t, 14)
	lats, errs := p.PredictKernels(nil, gpu.MustLookup("V100"))
	if len(lats) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d/%d results", len(lats), len(errs))
	}
}

// TestRecompileAfterTrain: retraining a category must publish a freshly
// compiled snapshot so predictions pick up the new weights.
func TestRecompileAfterTrain(t *testing.T) {
	p := trainSmall(t, 15)
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(4, 96, 96, 96)

	before, err := p.PredictKernel(k, g) // forces compilation
	if err != nil {
		t.Fatal(err)
	}

	// Retrain the BMM category with different hyperparameters; the compiled
	// snapshot must be rebuilt, not reused.
	p.Cfg.Seed = 999
	ds := trainSmallDataset(t, 16)
	p.Train(ds.FilterCategory(kernels.CatBMM))
	after, err := p.PredictKernel(k, g)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Error("prediction unchanged after retraining: stale compiled snapshot served")
	}
	// And the recompiled path must still agree with autodiff.
	want, _ := p.predictKernelAutodiff(k, g)
	if after != want {
		t.Errorf("recompiled prediction %v != autodiff %v", after, want)
	}
}

// TestPredictKernelsConcurrent hammers the batch API from many goroutines
// (run under -race by scripts/check.sh) against a serial reference.
func TestPredictKernelsConcurrent(t *testing.T) {
	p := trainSmall(t, 17)
	g := gpu.MustLookup("H100")
	ks := batchTestKernels()
	want, _ := p.PredictKernels(ks, g)

	const goroutines = 32
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				lats, errs := p.PredictKernels(ks, g)
				for j := range lats {
					if errs[j] != nil {
						errCh <- errs[j]
						return
					}
					if lats[j] != want[j] {
						errCh <- errors.New("concurrent batch prediction diverged")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestColdBatchScansConcurrently: with a cold tile memo the O(records)
// nearest-match scans are the cost of a batch, so PredictKernelsDetail must
// still fan them out — seen here as two goroutines inside LookupOrSelect at
// once — however warm batches resolve their tiles.
func TestColdBatchScansConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := gpu.MustLookup("H100")
	tdb := tile.NewDB()
	for i := 0; i < 20000; i++ { // enough records for a scan to be caught in flight
		k := kernels.NewBMM(1+i%7, 32+i%512, 64, 32+i%300)
		tdb.Add(k, g, tile.Select(k, g))
	}
	trained := sharedRacePredictor(t)
	p := NewPredictor(trained.Cfg, tdb)
	p.cur.Store(trained.cur.Load())
	ks := make([]kernels.Kernel, 64)
	for i := range ks {
		ks[i] = kernels.NewBMM(2, 40+8*i, 64, 48)
	}

	done := make(chan []error)
	go func() {
		_, _, errs := p.PredictKernelsDetail(ks, g)
		done <- errs
	}()
	inScan := []byte("tile.(*DB).LookupOrSelect(")
	stacks := make([]byte, 1<<20)
	most := 0
	for {
		select {
		case errs := <-done:
			for i, err := range errs {
				if err != nil {
					t.Fatalf("kernel %d: %v", i, err)
				}
			}
			if most < 2 {
				t.Fatalf("at most %d tile scan in flight at a time over 64 cold shapes, want >= 2", most)
			}
			return
		default:
			most = max(most, bytes.Count(stacks[:runtime.Stack(stacks, true)], inScan))
		}
	}
}

// TestLabelSharingKernelsShareATile: the tile memo keys on kernels.Key,
// which tells apart kernels that print the same Label; a tile depends on
// neither difference, so both still resolve to the same one.
func TestLabelSharingKernelsShareATile(t *testing.T) {
	p := sharedRacePredictor(t)
	g := gpu.MustLookup("V100")
	fused := kernels.Fuse(kernels.NewLinear(96, 64, 64), kernels.NewElementwise(kernels.OpEWReLU, 96, 64))
	heavier := fused
	heavier.FusedBytes += 4096
	if fused.Label() != heavier.Label() || fused.Key() == heavier.Key() {
		t.Fatal("fixture kernels must share a label and differ in key")
	}
	if a, b := p.TileDB.LookupOrSelect(fused, g), p.TileDB.LookupOrSelect(heavier, g); !reflect.DeepEqual(a, b) {
		t.Errorf("tiles %v and %v for kernels that differ only in FusedBytes", a, b)
	}
}
