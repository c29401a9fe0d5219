package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"neusight/internal/dataset"
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
// safety: the tile singleflight cache, the atomically published model
// version, and the read-only MLP forward pass must all be race-clean, and results must be
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
// calls that read the published model version.
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
		p.cur.Store(trained.cur.Load())
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

// TestCalibrateAnswersAreNeverTorn: a graph is priced by one model, so
// every forecast taken while Calibrate retrains BMM and FC must equal the
// pre-calibration or the post-calibration answer, bit for bit — never BMM
// from the new weights summed with FC from the old ones.
func TestCalibrateAnswersAreNeverTorn(t *testing.T) {
	p, ds := calibSetup(t, 42)
	g := gpu.MustLookup("H100")
	ks := []kernels.Kernel{kernels.NewBMM(4, 512, 512, 512), kernels.NewLinear(2048, 1024, 1024)}
	gr := graph.New("bmm+fc")
	gr.Add(ks[1], gr.Add(ks[0]))

	// Reality is 3x slower than the model thinks, for both categories.
	var calib []dataset.Sample
	for _, m := range []int{256, 384, 512, 640, 768} {
		for _, k := range []kernels.Kernel{kernels.NewBMM(4, m, 512, 512), kernels.NewLinear(4*m, 1024, 1024)} {
			pred, err := p.PredictKernel(k, g)
			if err != nil {
				t.Fatal(err)
			}
			calib = append(calib, dataset.Sample{Kernel: k, GPU: g, Latency: 3 * pred})
		}
	}

	// A graph reader fills graph and a batch reader bmm and fc, so an
	// answer compares whole against either reader's share of a model's.
	type answer struct{ graph, bmm, fc float64 }
	readers := []func() answer{
		func() answer {
			total, _, err := p.PredictGraph(gr, g)
			if err != nil {
				t.Errorf("PredictGraph: %v", err)
			}
			return answer{graph: total}
		},
		func() answer {
			lats, errs := p.PredictKernels(ks, g)
			if errs[0] != nil || errs[1] != nil {
				t.Errorf("PredictKernels: %v", errs)
			}
			return answer{bmm: lats[0], fc: lats[1]}
		},
	}
	model := func() answer {
		a, b := readers[0](), readers[1]()
		return answer{a.graph, b.bmm, b.fc}
	}
	before := model()
	isModel := func(a, m answer) bool {
		return a == answer{graph: m.graph} || a == answer{bmm: m.bmm, fc: m.fc}
	}

	// Readers record every answer that is not the old model's; the
	// distinct values stay few, so the set stays small.
	var (
		mu    sync.Mutex
		seen  = map[answer]int{}
		stop  = make(chan struct{})
		wg    sync.WaitGroup
		reads atomic.Int64
	)
	for _, read := range readers {
		wg.Add(1)
		go func(read func() answer) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if a := read(); !isModel(a, before) {
					mu.Lock()
					seen[a]++
					mu.Unlock()
				}
				reads.Add(1)
			}
		}(read)
	}
	rep := p.Calibrate(ds, calib)
	close(stop)
	wg.Wait()

	after := model()
	if reads.Load() == 0 {
		t.Fatal("no forecast ran during Calibrate")
	}
	if rep.Trained[kernels.CatBMM] == 0 || rep.Trained[kernels.CatLinear] == 0 {
		t.Fatalf("calibration trained %v, want BMM and FC", rep.Trained)
	}
	if after.bmm == before.bmm || after.fc == before.fc {
		t.Fatalf("calibration left a category unmoved: before %+v, after %+v", before, after)
	}
	for a, n := range seen {
		if !isModel(a, after) {
			t.Errorf("%d of %d forecasts read %+v during Calibrate: neither the old model's %+v nor the new one's %+v",
				n, reads.Load(), a, before, after)
		}
	}
}
