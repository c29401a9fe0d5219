package predict

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"neusight/internal/baselines"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
)

// goldenCase is one line of the engine golden: a kernel on a GPU, asked
// under a live or a cancelled context.
type goldenCase struct {
	k      kernels.Kernel
	g      string
	cancel bool
}

// goldenCases is the fixed 12-kernel list every engine answers: each
// trained category in fp32 and fp16, a fused kernel, a convolution, a
// network kernel the contract rejects, and a cancelled context, on
// training GPUs; renderEveryGPU takes three kernels to every GPU.
func goldenCases() []goldenCase {
	bmm := kernels.NewBMM(4, 256, 256, 256)
	return []goldenCase{
		{k: bmm, g: "V100"},
		{k: kernels.NewBMM(8, 512, 512, 512).WithDType(kernels.FP16), g: "A100-40GB"},
		{k: kernels.NewLinear(128, 512, 512), g: "V100"},
		{k: kernels.NewLinear(256, 1024, 4096).WithDType(kernels.FP16), g: "T4"},
		{k: kernels.NewElementwise(kernels.OpEWGELU, 128, 1024), g: "T4"},
		{k: kernels.NewElementwise(kernels.OpEWAdd, 512, 4096).WithDType(kernels.FP16), g: "P100"},
		{k: kernels.NewSoftmax(64, 512), g: "V100"},
		{k: kernels.NewLayerNorm(64, 1024), g: "P4"},
		{k: kernels.Fuse(kernels.NewLinear(128, 512, 512), kernels.NewElementwise(kernels.OpEWReLU, 128, 512)), g: "V100"},
		{k: kernels.NewConv2D(kernels.Conv2DShape{Batch: 2, Cin: 64, H: 56, W: 56, Cout: 64, Kh: 3, Kw: 3, Stride: 1, Pad: 1}), g: "A100-40GB"},
		{k: kernels.Kernel{Op: kernels.OpAllReduce, B: 1 << 20, M: 1}, g: "V100"},
		{k: bmm, g: "V100", cancel: true},
	}
}

// goldenFuncEngine is the func-engine fixture: a FLOPs-over-peak bound that
// refuses softmax, so both its result and its error path are pinned.
func goldenFuncEngine() Engine {
	return NewFuncEngine("func-bound", SourceAnalytical, func(k kernels.Kernel, g gpu.Spec) (float64, error) {
		if k.Op == kernels.OpSoftmax {
			return 0, fmt.Errorf("func-bound: no softmax model for %s", k.Label())
		}
		return k.FLOPs() / (g.PeakFLOPSFor(k.DType == kernels.FP16) * 1e9), nil
	})
}

// renderOutcome formats one answer bit-exactly.
func renderOutcome(res Result, err error) string {
	errText := ""
	if err != nil {
		errText = err.Error()
	}
	return fmt.Sprintf("lat=%016x util=%016x engine=%q source=%q err=%q",
		math.Float64bits(res.Latency), math.Float64bits(res.Utilization), res.Engine, res.Source, errText)
}

// renderEngine writes one engine's section: its capability set, each case
// through PredictKernel, the live cases as one PredictKernels batch, and
// the batch again under a cancelled context.
func renderEngine(buf *bytes.Buffer, e Engine) {
	_, trainable := e.(Trainable)
	_, batcher := e.(Batcher)
	_, generational := e.(Generational)
	_, hint := e.(ShardHint)
	_, graph := e.(GraphPredictor)
	fmt.Fprintf(buf, "engine %s trainable=%t batcher=%t generational=%t shardhint=%t graph=%t\n",
		e.Name(), trainable, batcher, generational, hint, graph)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var live []Request
	for i, c := range goldenCases() {
		ctx := context.Background()
		if c.cancel {
			ctx = cancelled
		}
		req := Request{Kernel: c.k, GPU: gpu.MustLookup(c.g)}
		res, err := e.PredictKernel(ctx, req)
		fmt.Fprintf(buf, "  kernel %2d %s@%s cancel=%t %s\n", i, c.k.Label(), c.g, c.cancel, renderOutcome(res, err))
		if !c.cancel {
			live = append(live, req)
		}
	}
	for i, out := range e.PredictKernels(context.Background(), live) {
		fmt.Fprintf(buf, "  batch  %2d %s\n", i, renderOutcome(out.Result, out.Err))
	}
	for i, out := range e.PredictKernels(cancelled, live[:2]) {
		fmt.Fprintf(buf, "  cancelled batch %d %s\n", i, renderOutcome(out.Result, out.Err))
	}
}

// renderNilPanic records what a constructor panics with on a nil backend.
func renderNilPanic(buf *bytes.Buffer, name string, build func()) {
	defer func() { fmt.Fprintf(buf, "nil %s panics %v\n", name, recover()) }()
	build()
}

// engineGolden renders every adapter of the standard set except the core
// engine (trained as the conformance suite trains them) plus a func engine.
func engineGolden(t *testing.T) []byte {
	reg := conformanceRegistry(t)
	var buf bytes.Buffer
	engines := []Engine{}
	for _, name := range []string{EngineHabitat, EngineLiRegression, EngineRoofline, EngineDirectMLP, EngineDirectTransformer, EngineGPUSim} {
		e, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	engines = append(engines, goldenFuncEngine())
	for _, e := range engines {
		renderEngine(&buf, e)
	}

	renderNilPanic(&buf, "habitat", func() { NewHabitatEngine(nil) })
	renderNilPanic(&buf, "liregression", func() { NewLiEngine(nil) })
	renderNilPanic(&buf, "direct-mlp", func() { NewDirectMLPEngine(nil) })
	renderNilPanic(&buf, "direct-transformer", func() { NewDirectTransformerEngine(nil) })
	renderNilPanic(&buf, "gpusim", func() { NewSimEngine(nil) })
	renderNilPanic(&buf, "func", func() { NewFuncEngine("f", SourceAnalytical, nil) })

	// Untrained baselines answer with their own errors.
	cfg := baselines.DirectConfig{Hidden: 8, Layers: 1, Epochs: 1, BatchSize: 32, LR: 3e-3, Seed: 1}
	req := Request{Kernel: kernels.NewBMM(2, 128, 128, 128), GPU: gpu.MustLookup("V100")}
	for _, e := range []Engine{
		NewHabitatEngine(baselines.NewHabitat(cfg, gpusim.New())),
		NewLiEngine(baselines.NewLiRegression()),
		NewDirectMLPEngine(baselines.NewDirectMLP(cfg)),
		NewDirectTransformerEngine(baselines.NewDirectTransformer(cfg, 1)),
	} {
		res, err := e.PredictKernel(context.Background(), req)
		fmt.Fprintf(&buf, "untrained %s %s\n", e.Name(), renderOutcome(res, err))
	}

	// Last, so the lines above keep their places: every engine on every
	// registered GPU, held-out ones included, where the Li et al. fit
	// extrapolates.
	for _, e := range engines {
		renderEveryGPU(&buf, e)
	}
	return buf.Bytes()
}

// renderEveryGPU writes e's answers for three kernels on every GPU.
func renderEveryGPU(buf *bytes.Buffer, e Engine) {
	for _, g := range gpu.All() {
		for _, k := range []kernels.Kernel{
			kernels.NewBMM(4, 256, 256, 256),
			kernels.NewLinear(256, 1024, 4096).WithDType(kernels.FP16),
			kernels.NewLayerNorm(64, 1024),
		} {
			res, err := e.PredictKernel(context.Background(), Request{Kernel: k, GPU: g})
			fmt.Fprintf(buf, "every-gpu %s %s@%s %s\n", e.Name(), k.Label(), g.Name, renderOutcome(res, err))
		}
	}
}

// TestEngineGolden pins every adapter's answers, errors and capability set
// bit for bit: testdata/engines.golden was written by the commit before the
// adapters collapsed into one kernelEngine type, so never regenerate it
// from the current code.
func TestEngineGolden(t *testing.T) {
	got := engineGolden(t)
	want, err := os.ReadFile(filepath.Join("testdata", "engines.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("engine golden line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
