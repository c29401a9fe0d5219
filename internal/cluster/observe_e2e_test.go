package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/observe"
	"neusight/internal/predict"
	"neusight/internal/serve"
	"neusight/internal/tile"
)

// calibProc is one in-test serve process for the continuous-calibration
// e2e: a full serving stack over a caller-supplied engine registry.
type calibProc struct {
	addr string
	svc  *serve.Service
	node *Node
}

func startCalibProc(t *testing.T, reg *predict.Registry) *calibProc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewMulti(reg, predict.EngineNeuSight, serve.Config{CacheSize: 256})
	node, err := NewNode(Config{
		Self:          ln.Addr().String(),
		Steer:         SteerOff,
		PollInterval:  50 * time.Millisecond,
		Registry:      reg,
		DefaultEngine: predict.EngineNeuSight,
		Invalidate:    svc.InvalidateEngine,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: node.Handler(serve.NewHandler(svc))}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &calibProc{addr: ln.Addr().String(), svc: svc, node: node}
}

// TestContinuousCalibrationAcrossCluster is the acceptance test for the
// profile-guided continuous-learning loop, end to end over real HTTP:
// biased observations posted to member A push the drift MAPE over the
// threshold on /v2/stats, a single background retrain fires and
// calibrates the model, the generation bump gossips, and member B's
// cached stale prediction is invalidated — its fresh answer shifting
// toward what was observed.
func TestContinuousCalibrationAcrossCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short")
	}
	// Both processes serve the same predictor weights — two members that
	// loaded the same model replica. A's engine is the real generational
	// CoreEngine (it retrains); B wraps the shared predictor in a
	// generation-less engine, so B's cache keys never move on their own
	// and only gossiped invalidation can evict them — which makes the
	// gossip leg of this test load-bearing rather than decorative.
	tdb := tile.NewDB()
	h100 := gpu.MustLookup("H100")
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 7, BMM: 150, FC: 80, EW: 60, Softmax: 40, LN: 40,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := core.NewPredictor(core.Config{
		Hidden: 32, Layers: 2, Epochs: 25, BatchSize: 128, LR: 5e-3, WeightDecay: 1e-4, Seed: 1,
	}, tdb)
	if rep := p.Train(ds); len(rep.FinalLoss) != 5 {
		t.Fatalf("trained %d categories, want 5", len(rep.FinalLoss))
	}

	coreEng := predict.NewCoreEngine(p)
	regA := predict.NewRegistry()
	regA.MustRegister(coreEng)
	regB := predict.NewRegistry()
	regB.MustRegister(predict.NewFuncEngine(predict.EngineNeuSight, predict.SourceModel,
		func(k kernels.Kernel, g gpu.Spec) (float64, error) { return p.PredictKernel(k, g) }))

	a := startCalibProc(t, regA)
	b := startCalibProc(t, regB)
	a.node.SetPeers([]string{b.addr})
	b.node.SetPeers([]string{a.addr})

	// Settle first-contact gossip so later invalidations are attributable
	// to the retrain alone.
	a.node.SyncNow()
	b.node.SyncNow()
	inv0 := b.node.GossipStats().Invalidations

	// Wire the drift monitor to A the way `serve -observe` does.
	mon := observe.NewMonitor(observe.Config{Window: 64, MinSamples: 8, Threshold: 0.5},
		func(ctx context.Context, engine string, k kernels.Kernel, g gpu.Spec) (float64, error) {
			res, err := a.svc.PredictKernelEngine(ctx, engine, k, g)
			return res.Latency, err
		})
	mon.RegisterRetrainer(predict.EngineNeuSight, func(calib []dataset.Sample) (uint64, error) {
		if rep := p.Calibrate(ds, calib); len(rep.Trained) == 0 {
			return p.Generation(), errors.New("no calibration sample in a trained category")
		}
		return p.Generation(), nil
	})
	a.svc.SetObserver(mon)
	t.Cleanup(func() { mon.Close() })

	// In-distribution BMM shapes on one GPU, so every observation lands in
	// the same (engine, GPU) drift window. Shapes large enough that the
	// learned utilization is above the floor clamp — tiny kernels pin
	// util at the floor and calibration cannot move them.
	var probes []kernels.Kernel
	for _, m := range []int{256, 320, 384, 448, 512, 576, 640, 768} {
		probes = append(probes, kernels.NewBMM(4, m, 512, 512))
	}
	probe := probes[0]
	ctx := context.Background()

	// B serves and caches its answer for the probe before any drift.
	resB0, err := b.svc.PredictKernelEngine(ctx, "", probe, h100)
	if err != nil {
		t.Fatal(err)
	}
	latB0 := resB0.Latency

	// Reality is 3x slower than the shared model believes: MAPE 2/3.
	observations := make([]serve.ObserveRequest, 0, len(probes))
	for _, k := range probes {
		res, err := a.svc.PredictKernelEngine(ctx, "", k, h100)
		if err != nil {
			t.Fatal(err)
		}
		observations = append(observations, serve.ObserveRequest{
			Kernel: serve.KernelRequest{
				Op: k.Op.String(), B: k.B, M: k.M, K: k.K, N: k.N, GPU: h100.Name,
			},
			ObservedMs: 3 * res.Latency,
		})
	}

	post := func(body any) *http.Response {
		t.Helper()
		enc, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+a.addr+"/v2/observe", "application/json", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// One short of MinSamples: drift must already be visible on /v2/stats,
	// with no retrain scheduled yet.
	resp := post(serve.ObserveBatchRequest{Observations: observations[:7]})
	var or serve.ObserveResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || or.Accepted != 7 {
		t.Fatalf("batch observe: status %d accepted %d, want 200/7", resp.StatusCode, or.Accepted)
	}

	sresp, err := http.Get("http://" + a.addr + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.StatsV2
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Observe == nil || len(st.Observe.Windows) != 1 {
		t.Fatalf("/v2/stats observe section %+v, want one drift window", st.Observe)
	}
	w := st.Observe.Windows[0]
	if !w.Drifting || w.MAPE < 0.6 {
		t.Fatalf("window %+v, want drifting at MAPE ~0.67 after biased observations", w)
	}
	if !w.Retrainable {
		t.Fatal("CoreEngine-backed member must report retrainable")
	}
	if st.Observe.Retrains != 0 {
		t.Fatalf("retrain fired with %d samples, below MinSamples 8", w.Samples)
	}

	// The MinSamples-th observation tips the window over: the single
	// background retrain fires.
	gen0 := predict.Generation(coreEng)
	resp = post(observations[7])
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single observe status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		rep := mon.Report()
		if rep.RetrainErrors > 0 {
			t.Fatalf("retrain failed: %+v", rep.Windows)
		}
		if rep.Retrains == 1 && !rep.RetrainActive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retrain did not complete: %+v", rep)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := mon.Report().Retrains; got != 1 {
		t.Fatalf("retrains = %d, want exactly 1 (single-flight)", got)
	}
	if gen1 := predict.Generation(coreEng); gen1 <= gen0 {
		t.Fatalf("generation %d after calibration, want > %d", gen1, gen0)
	}

	// B has not heard the news: its cache still serves the stale forecast
	// even though the shared weights changed underneath — the exact hazard
	// generation gossip exists to close.
	if res, err := b.svc.PredictKernelEngine(ctx, "", probe, h100); err != nil || res.Latency != latB0 {
		t.Fatalf("B pre-gossip = (%v, %v), want the stale cached %v", res.Latency, err, latB0)
	}

	// One gossip round from A: B must invalidate and re-predict with the
	// calibrated weights, shifting toward the observed 3x latencies.
	a.node.SyncNow()
	if inv := b.node.GossipStats().Invalidations; inv != inv0+1 {
		t.Fatalf("B invalidations = %d, want %d (retrain news exactly once)", inv, inv0+1)
	}
	resB1, err := b.svc.PredictKernelEngine(ctx, "", probe, h100)
	if err != nil {
		t.Fatal(err)
	}
	latB1, observed := resB1.Latency, 3*latB0
	if latB1 <= latB0 {
		t.Fatalf("B post-gossip = %v, want a fresh forecast above the stale %v (observed %v)", latB1, latB0, observed)
	}
	if math.Abs(observed-latB1) >= observed-latB0 {
		t.Fatalf("B post-gossip %v no closer to observed %v than stale %v", latB1, observed, latB0)
	}
}
