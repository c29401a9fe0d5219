package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/tile"
)

// walkGraph is the node-by-node forecast that PredictGraph performed
// before graphs were compiled into plans: every node predicted on its own,
// summed in node order. It lives on as the reference the plan fold must
// equal bit for bit.
func walkGraph(t *testing.T, p *Predictor, gr *graph.Graph, g gpu.Spec) (float64, GraphReport) {
	t.Helper()
	var rep GraphReport
	total := 0.0
	for _, n := range gr.Nodes {
		if n.Kernel.Category() == kernels.CatNetwork {
			rep.Network++
			continue
		}
		rep.Kernels++
		lat, err := p.PredictKernel(n.Kernel, g)
		if err != nil {
			rep.Fallbacks++
			lat = MemBoundLatency(n.Kernel, g)
		} else {
			rep.Predicted++
		}
		total += lat
	}
	return total, rep
}

// table5Graphs yields every Table 5 model × batch {1, 4} × {inference,
// training, inference+fused} graph.
func table5Graphs(visit func(name string, gr *graph.Graph)) {
	for _, m := range models.Table5() {
		for _, batch := range []int{1, 4} {
			visit(fmt.Sprintf("%s/b%d/inference", m.Name, batch), m.InferenceGraph(batch))
			visit(fmt.Sprintf("%s/b%d/training", m.Name, batch), m.TrainingGraph(batch))
			visit(fmt.Sprintf("%s/b%d/fused", m.Name, batch), graph.Fuse(m.InferenceGraph(batch)))
		}
	}
}

// TestPredictGraphEqualsNodeWalk: forecasting a graph by its distinct
// kernels gives exactly the node-by-node total and report.
func TestPredictGraphEqualsNodeWalk(t *testing.T) {
	p := sharedRacePredictor(t)
	g := gpu.MustLookup("H100")
	table5Graphs(func(name string, gr *graph.Graph) {
		want, wantRep := walkGraph(t, p, gr, g)
		got, rep, err := p.PredictGraph(gr, g)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: plan fold = %v, node walk = %v (difference %g)", name, got, want, got-want)
		}
		if rep != wantRep {
			t.Errorf("%s: report = %+v, node walk = %+v", name, rep, wantRep)
		}
	})
}

// withoutSoftmax trains every category but softmax, so softmax kernels
// fail with ErrUntrained and graphs holding them fold fallbacks.
func withoutSoftmax(t *testing.T) *Predictor {
	t.Helper()
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 33, BMM: 60, FC: 40, EW: 30, LN: 20,
		GPUs: gpu.TrainSet(), MaxBMMDim: 512,
	}, gpusim.New(), tdb)
	cfg := testConfig()
	cfg.Epochs = 3
	p := NewPredictor(cfg, tdb)
	p.Train(ds)
	return p
}

// TestPredictGraphReportCountsPerNode: a fallback is counted once per node
// that used it, network nodes are counted and skipped, and the error reads
// as it did when every node was predicted on its own.
func TestPredictGraphReportCountsPerNode(t *testing.T) {
	p := withoutSoftmax(t)
	g := gpu.MustLookup("V100")
	gr := models.MustLookup("BERT-Large").InferenceGraph(2)
	last := len(gr.Nodes) - 1
	gr.Add(kernels.Kernel{Op: kernels.OpAllReduce, B: 1 << 20, M: 1}, last)
	gr.Add(kernels.Kernel{Op: kernels.OpSendRecv, B: 1 << 16, M: 1}, last)

	want, wantRep := walkGraph(t, p, gr, g)
	got, rep, err := p.PredictGraph(gr, g)
	if got != want || rep != wantRep {
		t.Fatalf("plan fold = %v %+v, node walk = %v %+v", got, rep, want, wantRep)
	}
	if rep.Network != 2 || rep.Fallbacks < 2 || rep.Kernels != rep.Predicted+rep.Fallbacks {
		t.Fatalf("report = %+v, want 2 network nodes and one fallback per softmax node", rep)
	}
	if !errors.Is(err, ErrUntrained) {
		t.Fatalf("error = %v, want it to wrap ErrUntrained", err)
	}
	if msg := fmt.Sprintf("%d of %d kernels", rep.Fallbacks, rep.Kernels); !strings.Contains(err.Error(), msg) {
		t.Errorf("error %q should count fallbacks per node (%q)", err, msg)
	}
}

// TestFoldPredictionsAbortsOnCancellation: a cancelled answer among the
// distinct kernels fails the whole fold and leaves only the submission
// size in the report.
func TestFoldPredictionsAbortsOnCancellation(t *testing.T) {
	pl := graph.Compile(graphOfThree())
	g := gpu.MustLookup("V100")
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		total, rep, err := FoldPredictions(pl, g, func(j int) (float64, error) {
			switch j {
			case 0:
				return 0, ErrUntrained // a fallback before the abort must not survive it
			case 1:
				return 0, fmt.Errorf("engine gave up: %w", cause)
			}
			return 1, nil
		})
		if !errors.Is(err, cause) || total != 0 {
			t.Errorf("fold = (%v, %v), want (0, %v)", total, err, cause)
		}
		if want := (GraphReport{Kernels: 3}); rep != want {
			t.Errorf("aborted report = %+v, want %+v", rep, want)
		}
	}
}

// TestPredictPlanAllocations pins a forecast on a warm predictor at its
// result and batch buffers plus two matrix headers per category: nothing
// per kernel, no tile-key strings, no goroutines. 18 measured; the ceiling
// leaves room for a forward pass that finds its scratch pool emptied — by
// a collection, or under -race, where sync.Pool drops a share on purpose
// (23 seen).
func TestPredictPlanAllocations(t *testing.T) {
	p := sharedRacePredictor(t)
	g := gpu.MustLookup("H100")
	pl := graph.Compile(models.MustLookup("GPT3-XL").TrainingGraph(2))
	if _, _, err := p.PredictPlan(pl, g); err != nil { // warms the tile cache
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { p.PredictPlan(pl, g) }); got > 26 {
		t.Errorf("PredictPlan on a warm predictor: %v allocations, ceiling 26", got)
	}
}
