package predict

import (
	"context"
	"errors"
	"testing"

	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
)

// walkKernels is the kernel-by-kernel forecast PredictGraphKernels
// performed before kernel lists were compiled into plans; the plan fold
// must equal it bit for bit on every engine.
func walkKernels(e Engine, ks []kernels.Kernel, g gpu.Spec) (float64, core.GraphReport) {
	var rep core.GraphReport
	total := 0.0
	for _, k := range ks {
		if k.Category() == kernels.CatNetwork {
			rep.Network++
			continue
		}
		rep.Kernels++
		res, err := e.PredictKernel(context.Background(), Request{Kernel: k, GPU: g})
		lat := res.Latency
		if err != nil {
			rep.Fallbacks++
			lat = core.MemBoundLatency(k, g)
		} else {
			rep.Predicted++
		}
		total += lat
	}
	return total, rep
}

func TestPredictGraphKernelsEqualsKernelWalk(t *testing.T) {
	reg := conformanceRegistry(t)
	g := gpu.MustLookup("A100-40GB")
	gr := graph.Fuse(models.MustLookup("GPT2-Large").TrainingGraph(2))
	ks := append(gr.Kernels(), kernels.Kernel{Op: kernels.OpAllReduce, B: 1 << 20, M: 1}, kernels.NewPool2D(2, 8, 16, 16, 2, 2))
	for _, name := range reg.List() {
		e, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRep := walkKernels(e, ks, g)
		got, rep, _ := PredictGraphKernels(context.Background(), e, ks, g)
		if got != want || rep != wantRep {
			t.Errorf("%s: plan fold = %v %+v, kernel walk = %v %+v", name, got, rep, want, wantRep)
		}
		if gp, ok := e.(GraphPredictor); ok {
			got, rep, _ := gp.PredictGraph(context.Background(), gr, g)
			if want, wantRep := walkKernels(e, gr.Kernels(), g); got != want || rep != wantRep {
				t.Errorf("%s PredictGraph = %v %+v, kernel walk = %v %+v", name, got, rep, want, wantRep)
			}
		}
	}
}

func TestPredictGraphKernelsAbortsOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ks := models.MustLookup("BERT-Large").InferenceGraph(1).Kernels()
	total, rep, err := PredictGraphKernels(ctx, NewRooflineEngine(), ks, gpu.MustLookup("V100"))
	if !errors.Is(err, context.Canceled) || total != 0 {
		t.Fatalf("cancelled forecast = (%v, %v), want (0, context.Canceled)", total, err)
	}
	if rep.Predicted != 0 || rep.Fallbacks != 0 || rep.Kernels != len(ks) {
		t.Errorf("aborted report = %+v, want only the submission size (%d)", rep, len(ks))
	}
}
