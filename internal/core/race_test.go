package core

import (
	"math"
	"sync"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/tile"
)

// racePredictor trains one small predictor shared by the concurrency tests
// in this file: they only read it, and sharing keeps `go test -race` fast.
var (
	raceOnce sync.Once
	racePred *Predictor
)

func sharedRacePredictor(t *testing.T) *Predictor {
	t.Helper()
	raceOnce.Do(func() { racePred = trainSmall(t, 7) })
	if racePred == nil {
		t.Fatal("shared race predictor failed to train")
	}
	return racePred
}

// TestPredictKernelConcurrent drives a trained predictor from 32 goroutines
// over a mix of kernels and GPUs. It guards the serving path's thread
// safety: the tile singleflight cache, the model-map RWMutex, and the
// read-only MLP forward pass must all be race-clean, and results must be
// deterministic regardless of interleaving.
func TestPredictKernelConcurrent(t *testing.T) {
	p := sharedRacePredictor(t)
	gpus := []gpu.Spec{gpu.MustLookup("V100"), gpu.MustLookup("H100")}
	ks := []kernels.Kernel{
		kernels.NewBMM(4, 256, 256, 256),
		kernels.NewLinear(128, 512, 512),
		kernels.NewElementwise(kernels.OpEWAdd, 1024, 1024),
		kernels.NewSoftmax(256, 512),
		kernels.NewLayerNorm(256, 512),
	}

	// Reference forecasts computed serially first.
	want := map[string]float64{}
	for _, g := range gpus {
		for _, k := range ks {
			l, err := p.PredictKernel(k, g)
			if err != nil {
				t.Fatalf("serial PredictKernel(%s, %s): %v", k.Label(), g.Name, err)
			}
			want[k.Label()+"@"+g.Name] = l
		}
	}

	const goroutines = 32
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g := gpus[(w+i)%len(gpus)]
				k := ks[(w+i)%len(ks)]
				l, err := p.PredictKernel(k, g)
				if err != nil {
					t.Errorf("PredictKernel(%s, %s): %v", k.Label(), g.Name, err)
					return
				}
				if ref := want[k.Label()+"@"+g.Name]; math.Abs(l-ref) > 1e-12 {
					t.Errorf("PredictKernel(%s, %s) = %v under concurrency, want %v", k.Label(), g.Name, l, ref)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPredictGraphConcurrent runs concurrent whole-graph forecasts — the
// shape of traffic the serve layer generates — alongside introspection
// calls that read the model maps.
func TestPredictGraphConcurrent(t *testing.T) {
	p := sharedRacePredictor(t)
	g := gpu.MustLookup("V100")

	gr := graph.New("race")
	a := gr.Add(kernels.NewLinear(64, 256, 256))
	b := gr.Add(kernels.NewElementwise(kernels.OpEWGELU, 64, 256), a)
	gr.Add(kernels.NewLayerNorm(64, 256), b)

	want, _, werr := p.PredictGraph(gr, g)
	if werr != nil {
		t.Fatal(werr)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, _, _ := p.PredictGraph(gr, g); math.Abs(got-want) > 1e-12 {
					t.Errorf("PredictGraph = %v under concurrency, want %v", got, want)
					return
				}
				if cats := p.TrainedCategories(); len(cats) != 5 {
					t.Errorf("TrainedCategories = %d, want 5", len(cats))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPredictorSeesTileDBAdds: a record added after the first forecast
// reaches the next one, because Add invalidates the tile memo the predictor
// resolves through — profiling that continues while serving is not pinned
// out by a memoized nearest match.
func TestPredictorSeesTileDBAdds(t *testing.T) {
	trained := sharedRacePredictor(t)
	g := gpu.MustLookup("V100")
	far, query := kernels.NewBMM(64, 2048, 2048, 2048), kernels.NewBMM(1, 32, 32, 32)
	predictor := func(tdb *tile.DB) *Predictor {
		p := NewPredictor(trained.Cfg, tdb)
		p.mlps, p.stats = trained.mlps, trained.stats
		return p
	}
	tdb := tile.NewDB()
	tdb.Add(far, g, tile.Tile{Dims: []int{1, 256, 256}})
	p := predictor(tdb)
	before, err := p.PredictKernel(query, g)
	if err != nil {
		t.Fatal(err)
	}
	tdb.Add(query, g, tile.Tile{Dims: []int{1, 16, 16}})
	after, _ := p.PredictKernel(query, g)

	fresh := tile.NewDB()
	fresh.Add(far, g, tile.Tile{Dims: []int{1, 256, 256}})
	fresh.Add(query, g, tile.Tile{Dims: []int{1, 16, 16}})
	want, _ := predictor(fresh).PredictKernel(query, g)
	if after != want || after == before {
		t.Errorf("forecast after the Add = %v, want %v as from a database built with the record (before the Add: %v)", after, want, before)
	}
}
