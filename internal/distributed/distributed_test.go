package distributed

import (
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/network"
)

// simLat prices kernels with the ground-truth simulator on the server's GPU.
func simLat(srv gpu.ServerSpec) func(kernels.Kernel) float64 {
	sim := gpusim.New()
	return func(k kernels.Kernel) float64 { return sim.KernelLatency(k, srv.GPU) }
}

func gpt2() models.Config { return models.MustLookup("GPT2-Large") }

func TestDPSplitsBatchAndAddsAllReduce(t *testing.T) {
	srv := gpu.MustLookupServer("A100x4-NVLink")
	link := network.NewSim()
	p := Plan{Model: gpt2(), GlobalBatch: 4, Server: srv, Strategy: DataParallel, Training: true}
	f, err := Estimate(p, simLat(srv), link)
	if err != nil {
		t.Fatal(err)
	}
	if f.NetworkMs <= 0 {
		t.Fatal("DP training must pay a gradient all-reduce")
	}
	// Compute equals a single-GPU iteration at batch 1.
	want := gpt2().TrainingGraph(1).Latency(simLat(srv))
	if f.ComputeMs != want {
		t.Fatalf("DP compute = %v, want per-GPU batch-1 latency %v", f.ComputeMs, want)
	}
	if f.TotalMs != f.ComputeMs+f.NetworkMs {
		t.Fatal("total must decompose into compute + network")
	}
}

func TestDPInferenceHasNoCollectives(t *testing.T) {
	srv := gpu.MustLookupServer("H100x4-DGX")
	p := Plan{Model: gpt2(), GlobalBatch: 8, Server: srv, Strategy: DataParallel, Training: false}
	f, err := Estimate(p, simLat(srv), network.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	if f.NetworkMs != 0 {
		t.Fatal("DP inference must not all-reduce")
	}
}

func TestTPShardsCompute(t *testing.T) {
	srv := gpu.MustLookupServer("H100x4-DGX")
	link := network.NewSim()
	lat := simLat(srv)
	p := Plan{Model: gpt2(), GlobalBatch: 4, Server: srv, Strategy: TensorParallel, Training: true}
	f, err := Estimate(p, lat, link)
	if err != nil {
		t.Fatal(err)
	}
	single := gpt2().TrainingGraph(4).Latency(lat)
	if f.ComputeMs >= single {
		t.Fatalf("TP compute %v should be below single-GPU %v", f.ComputeMs, single)
	}
	if f.ComputeMs < single/8 {
		t.Fatalf("TP compute %v implausibly low vs single-GPU %v", f.ComputeMs, single)
	}
	if f.NetworkMs <= 0 {
		t.Fatal("TP must all-reduce activations")
	}
}

func TestTPTrainingDoublesCollectives(t *testing.T) {
	srv := gpu.MustLookupServer("A100x4-NVLink")
	link := network.NewSim()
	lat := simLat(srv)
	train, _ := Estimate(Plan{Model: gpt2(), GlobalBatch: 4, Server: srv, Strategy: TensorParallel, Training: true}, lat, link)
	infer, _ := Estimate(Plan{Model: gpt2(), GlobalBatch: 4, Server: srv, Strategy: TensorParallel, Training: false}, lat, link)
	if train.NetworkMs != 2*infer.NetworkMs {
		t.Fatalf("training collectives %v, want 2x inference %v", train.NetworkMs, infer.NetworkMs)
	}
}

func TestPPSlowerThanDPAtSameGlobalBatch(t *testing.T) {
	// Paper Table 8: with one micro-batch, pipeline parallel pays the full
	// sequential cost and is several times slower than data parallel.
	srv := gpu.MustLookupServer("H100x4-DGX")
	link := network.NewSim()
	lat := simLat(srv)
	dp, err := Estimate(Plan{Model: gpt2(), GlobalBatch: 4, Server: srv, Strategy: DataParallel, Training: true}, lat, link)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Estimate(Plan{Model: gpt2(), GlobalBatch: 4, Server: srv, Strategy: PipelineParallel, Training: true}, lat, link)
	if err != nil {
		t.Fatal(err)
	}
	if r := pp.TotalMs / dp.TotalMs; r < 2 || r > 6 {
		t.Fatalf("PP/DP ratio = %v, want ~3-4 (Table 8 shape)", r)
	}
}

func TestPPMicroBatchingShrinksBubble(t *testing.T) {
	srv := gpu.MustLookupServer("H100x4-DGX")
	link := network.NewSim()
	lat := simLat(srv)
	one, _ := Estimate(Plan{Model: gpt2(), GlobalBatch: 8, Server: srv, Strategy: PipelineParallel, Training: true, MicroBatches: 1}, lat, link)
	four, _ := Estimate(Plan{Model: gpt2(), GlobalBatch: 8, Server: srv, Strategy: PipelineParallel, Training: true, MicroBatches: 4}, lat, link)
	if four.TotalMs >= one.TotalMs {
		t.Fatalf("micro-batching should reduce pipeline latency: m=4 %v vs m=1 %v", four.TotalMs, one.TotalMs)
	}
}

func TestEstimateValidation(t *testing.T) {
	srv := gpu.MustLookupServer("A100x4-NVLink")
	link := network.NewSim()
	lat := simLat(srv)
	if _, err := Estimate(Plan{Model: gpt2(), GlobalBatch: 0, Server: srv, Strategy: DataParallel}, lat, link); err == nil {
		t.Fatal("zero batch must error")
	}
	if _, err := Estimate(Plan{Model: gpt2(), GlobalBatch: 2, Server: srv, Strategy: DataParallel}, lat, link); err == nil {
		t.Fatal("batch below DP width must error")
	}
	bad := srv
	bad.NumGPUs = 1
	if _, err := Estimate(Plan{Model: gpt2(), GlobalBatch: 4, Server: bad, Strategy: DataParallel}, lat, link); err == nil {
		t.Fatal("single-GPU server must error")
	}
}

// TestPredictionVsMeasurementDistributed is the Table 8 shape check: the
// calibrated link model plus the ground-truth kernel latencies land within
// tens of percent of the full simulation.
func TestPredictionVsMeasurementDistributed(t *testing.T) {
	srv := gpu.MustLookupServer("H100x4-DGX")
	sim := network.NewSim()
	calibrated := network.Calibrate(sim, gpu.MustLookupServer("V100x4-NVLink"))
	lat := simLat(srv)
	for _, s := range []Strategy{DataParallel, TensorParallel, PipelineParallel} {
		p := Plan{Model: gpt2(), GlobalBatch: 4, Server: srv, Strategy: s, Training: true}
		measured, err := Estimate(p, lat, sim)
		if err != nil {
			t.Fatal(err)
		}
		predicted, err := Estimate(p, lat, calibrated)
		if err != nil {
			t.Fatal(err)
		}
		rel := (predicted.TotalMs - measured.TotalMs) / measured.TotalMs
		if rel < -0.35 || rel > 0.35 {
			t.Fatalf("%v: network-calibration error %v too large", s, rel)
		}
	}
}

func TestMultiNodeScalingShape(t *testing.T) {
	srv := gpu.MustLookupServer("H100x8-DGX")
	lat := simLat(srv)
	link := network.Calibrate(network.NewSim(), gpu.MustLookupServer("V100x4-NVLink"))
	tree := network.Table9Hierarchy(0.8)
	model := models.GPT3MultiNode()

	var prev float64
	results := map[int]float64{}
	for _, nodes := range []int{1, 4, 384, 768, 3840} {
		f, err := EstimateMultiNode(MultiNodePlan{
			Model: model, Nodes: nodes, Server: srv, PerNodeBatch: 8, Tree: tree,
			DType: kernels.FP16,
		}, lat, link)
		if err != nil {
			t.Fatal(err)
		}
		if f.TotalMs <= prev {
			t.Fatalf("latency must grow with nodes: %d -> %v after %v", nodes, f.TotalMs, prev)
		}
		prev = f.TotalMs
		results[nodes] = f.TotalMs
	}
	// Table 9 shape: big jump from 4 to 384 (InfiniBand engages), mild
	// growth beyond.
	if results[384] < 2*results[4] {
		t.Fatalf("expected a large jump at 384 nodes: %v vs %v", results[384], results[4])
	}
	if (results[3840]-results[384])/results[384] > 0.25 {
		t.Fatalf("growth beyond 384 nodes should be mild: %v -> %v", results[384], results[3840])
	}
}

func TestMultiNodeValidation(t *testing.T) {
	srv := gpu.MustLookupServer("H100x8-DGX")
	lat := simLat(srv)
	link := network.NewSim()
	if _, err := EstimateMultiNode(MultiNodePlan{Model: gpt2(), Nodes: 0, Server: srv, PerNodeBatch: 8}, lat, link); err == nil {
		t.Fatal("zero nodes must error")
	}
}

func TestPipelineSchedules(t *testing.T) {
	srv := gpu.MustLookupServer("H100x4-DGX")
	link := network.NewSim()
	lat := simLat(srv)
	base := Plan{Model: gpt2(), GlobalBatch: 8, Server: srv,
		Strategy: PipelineParallel, Training: true, MicroBatches: 4}
	gpipe := base
	gpipe.Schedule = GPipe
	ofob := base
	ofob.Schedule = OneFOneB
	fg, err := Estimate(gpipe, lat, link)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := Estimate(ofob, lat, link)
	if err != nil {
		t.Fatal(err)
	}
	// Iteration latency is schedule-independent at this granularity.
	if fg.TotalMs != fo.TotalMs {
		t.Fatalf("GPipe %v vs 1F1B %v: iteration time should match", fg.TotalMs, fo.TotalMs)
	}
}

func TestScheduleStrings(t *testing.T) {
	if GPipe.String() != "GPipe" || OneFOneB.String() != "1F1B" {
		t.Fatalf("schedule names: %v, %v", GPipe, OneFOneB)
	}
}
