package models

import (
	"math"
	"testing"

	"neusight/internal/graph"
	"neusight/internal/kernels"
)

func TestTable5Inventory(t *testing.T) {
	cfgs := Table5()
	if len(cfgs) != 6 {
		t.Fatalf("Table 5 has %d workloads, want 6", len(cfgs))
	}
	byName := map[string]Config{}
	for _, c := range cfgs {
		byName[c.Name] = c
	}
	gpt2 := byName["GPT2-Large"]
	if gpt2.Layers != 36 || gpt2.Heads != 20 || gpt2.Hidden != 1280 || gpt2.SeqLen != 1024 {
		t.Fatalf("GPT2-Large config wrong: %+v", gpt2)
	}
	sw := byName["SwitchTrans"]
	if sw.Experts != 4 {
		t.Fatalf("Switch Transformer must use the 4-expert configuration, got %d", sw.Experts)
	}
	bert := byName["BERT-Large"]
	if !bert.Classifier {
		t.Fatal("BERT must use the classification head (binary task, Section 6.1)")
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("GPT3-XL"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("GPT3-175B"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("LLaMA"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestParamCountsPlausible(t *testing.T) {
	// Table 5's dimension columns do not exactly reproduce its parameter
	// column (e.g. BERT-Large at hidden 760 is ~110M, not 340M), so
	// NumParams is informational: it must be positive and in the
	// hundreds-of-millions-to-billions range the table describes.
	for _, c := range Table5() {
		got := c.NumParams()
		if got < 5e7 || got > 5e10 {
			t.Errorf("%s: derived params %.3g outside plausible range", c.Name, got)
		}
	}
	if GPT3MultiNode().NumParams() < 1e11 {
		t.Error("GPT3-175B config should derive >100B params")
	}
}

func TestInferenceGraphStructure(t *testing.T) {
	c := MustLookup("GPT2-Large")
	g := c.InferenceGraph(4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := g.CountByCategory()
	// Per layer: 2 BMM, 3 Linear, 2 LN, 3 EW(add+gelu... add,add,gelu), 1 softmax.
	if got := counts[kernels.CatBMM]; got != 2*c.Layers {
		t.Fatalf("BMM count = %d, want %d", got, 2*c.Layers)
	}
	if got := counts[kernels.CatSoftmax]; got != c.Layers {
		t.Fatalf("softmax count = %d, want %d", got, c.Layers)
	}
	// Per layer: QKV, attention projection, FFN up, FFN down; plus LM head.
	if got := counts[kernels.CatLinear]; got != 4*c.Layers+1 {
		t.Fatalf("linear count = %d, want %d", got, 4*c.Layers+1)
	}
	if got := counts[kernels.CatLayerNorm]; got != 2*c.Layers+1 {
		t.Fatalf("layernorm count = %d, want %d", got, 2*c.Layers+1)
	}
}

func TestAttentionDims(t *testing.T) {
	c := MustLookup("GPT3-XL")
	g := c.InferenceGraph(2)
	var scores, ctx *kernels.Kernel
	for _, k := range g.Kernels() {
		if k.Op == kernels.OpBMM {
			k := k
			if scores == nil {
				scores = &k
			} else if ctx == nil {
				ctx = &k
				break
			}
		}
	}
	d := c.HeadDim()
	if scores.B != 2*c.Heads || scores.M != c.SeqLen || scores.K != d || scores.N != c.SeqLen {
		t.Fatalf("scores BMM = %+v", scores)
	}
	if ctx.K != c.SeqLen || ctx.N != d {
		t.Fatalf("context BMM = %+v", ctx)
	}
}

func TestHeadDimPadding(t *testing.T) {
	bert := MustLookup("BERT-Large")
	if bert.Hidden%bert.Heads == 0 {
		t.Skip("table dims divide evenly; padding rule unused")
	}
	if got := bert.HeadDim(); got != 48 {
		t.Fatalf("BERT head dim = %d, want 48 (760/16 rounded up)", got)
	}
}

func TestTrainingGraphBiggerThanInference(t *testing.T) {
	c := MustLookup("BERT-Large")
	inf := c.InferenceGraph(8)
	train := c.TrainingGraph(8)
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	r := train.TotalFLOPs() / inf.TotalFLOPs()
	if r < 2.5 || r > 3.5 {
		t.Fatalf("training/inference FLOP ratio = %v, want ~3 (fwd + 2x bwd GEMMs)", r)
	}
}

func TestFLOPsScaleWithBatch(t *testing.T) {
	c := MustLookup("GPT2-Large")
	f1 := c.InferenceGraph(1).TotalFLOPs()
	f8 := c.InferenceGraph(8).TotalFLOPs()
	if r := f8 / f1; math.Abs(r-8) > 0.5 {
		t.Fatalf("batch-8 FLOPs ratio = %v, want ~8", r)
	}
}

func TestTransformerFLOPsSanity(t *testing.T) {
	// GPT2-Large forward at batch 1 should cost roughly 2 * params *
	// tokens FLOPs (the standard estimate), within 2x given attention.
	c := MustLookup("GPT2-Large")
	got := c.InferenceGraph(1).TotalFLOPs()
	want := 2 * c.NumParams() * float64(c.SeqLen)
	if got < want/2 || got > want*2.5 {
		t.Fatalf("forward FLOPs %.3g, rule-of-thumb %.3g", got, want)
	}
}

func TestMoEGraph(t *testing.T) {
	c := MustLookup("SwitchTrans")
	g := c.InferenceGraph(2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Router + 2 expert GEMMs per expert per layer + QKV + proj + head:
	// linear count = layers*(2 + 1 + experts*2) + 1.
	wantLinear := c.Layers*(3+c.Experts*2) + 1
	if got := g.CountByCategory()[kernels.CatLinear]; got != wantLinear {
		t.Fatalf("MoE linear count = %d, want %d", got, wantLinear)
	}
	// Two softmaxes per layer: attention + router gate.
	if got := g.CountByCategory()[kernels.CatSoftmax]; got != 2*c.Layers {
		t.Fatalf("MoE softmax count = %d, want %d", got, 2*c.Layers)
	}
}

func TestMoEFLOPsComparableToDense(t *testing.T) {
	// Top-1 routing: per-token FFN work matches a dense model of the same
	// hidden size, so the MoE graph should cost about the same FLOPs as
	// its dense twin (not E times more).
	moe := MustLookup("SwitchTrans")
	dense := moe
	dense.Experts = 0
	fMoE := moe.InferenceGraph(4).TotalFLOPs()
	fDense := dense.InferenceGraph(4).TotalFLOPs()
	if r := fMoE / fDense; r < 0.9 || r > 1.3 {
		t.Fatalf("MoE/dense FLOP ratio = %v, want ~1 (top-1 routing)", r)
	}
}

func TestOODCriterion(t *testing.T) {
	// Paper: GPT3/OPT models contain BMMs with operand dims >= 2048, BERT
	// (seq 512) and GPT2 (seq 1024, head dim 64) do not exceed 1024.
	ood := map[string]bool{
		"BERT-Large": false, "GPT2-Large": false, "SwitchTrans": false,
		"GPT3-XL": true, "OPT-1.3B": true, "GPT3-2.7B": true,
	}
	for _, c := range Table5() {
		if got := c.HasOODDims(); got != ood[c.Name] {
			t.Errorf("%s: OOD = %v, want %v", c.Name, got, ood[c.Name])
		}
	}
}

func TestClassifierVsLMHead(t *testing.T) {
	bert := MustLookup("BERT-Large")
	g := bert.InferenceGraph(16)
	lastK := g.Nodes[len(g.Nodes)-1].Kernel
	if lastK.Op != kernels.OpLinear || lastK.N != 2 || lastK.M != 16 {
		t.Fatalf("BERT head = %+v, want per-sample binary classifier", lastK)
	}
	gpt := MustLookup("GPT2-Large").InferenceGraph(2)
	lastK = gpt.Nodes[len(gpt.Nodes)-1].Kernel
	if lastK.N != 50257 {
		t.Fatalf("GPT head = %+v, want vocab-wide LM head", lastK)
	}
}

func TestZeroBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for batch 0")
		}
	}()
	MustLookup("GPT2-Large").InferenceGraph(0)
}

// TestGraphBuildAllocations pins what building and compiling a model graph
// allocates: a name, a Graph, and one node slab, pointer slice and
// dependency arena per Reserve — not a heap object per node (the forward
// graph of GPT3-XL b2 alone was 1317 allocations before the slabs). A count
// above the ceiling means a Reserve no longer matches what its builder
// adds. Measured: 6, 10, 4 and 8; the builds get two more because under
// -race the detector's own bookkeeping now and then counts as one.
func TestGraphBuildAllocations(t *testing.T) {
	for _, m := range Table5() {
		infer, train := m.InferenceGraph(2), m.TrainingGraph(2)
		for _, c := range []struct {
			what    string
			ceiling float64
			run     func()
		}{
			{"InferenceGraph", 8, func() { m.InferenceGraph(2) }},
			{"TrainingGraph", 12, func() { m.TrainingGraph(2) }},
			{"Compile(inference)", 4, func() { graph.Compile(infer) }},
			{"Compile(training)", 8, func() { graph.Compile(train) }},
		} {
			if got := testing.AllocsPerRun(10, c.run); got > c.ceiling {
				t.Errorf("%s %s: %v allocations, ceiling %v", m.Name, c.what, got, c.ceiling)
			}
		}
	}
}

// TestShardedGraphsValidate: the graphs the distributed layer derives —
// tensor-parallel shards, their training graphs, and the multi-node study's
// FP16 copy — are valid DAGs on the slab storage, at the size the unsharded
// graph has.
func TestShardedGraphsValidate(t *testing.T) {
	for _, m := range append(Table5(), GPT3MultiNode()) {
		for _, width := range []int{2, 8} {
			infer, train := m.TPInferenceGraph(1, width), m.TPTrainingGraph(1, width)
			for _, g := range []*graph.Graph{infer, train, train.WithDType(kernels.FP16), graph.Fuse(train)} {
				if err := g.Validate(); err != nil {
					t.Errorf("%s tp%d: %v", m.Name, width, err)
				}
			}
			if got, want := len(infer.Nodes), len(m.InferenceGraph(1).Nodes); got != want {
				t.Errorf("%s tp%d: %d nodes, unsharded %d", m.Name, width, got, want)
			}
			if got, want := len(train.WithDType(kernels.FP16).Nodes), len(m.TrainingGraph(1).Nodes); got != want {
				t.Errorf("%s tp%d training/fp16: %d nodes, unsharded %d", m.Name, width, got, want)
			}
		}
	}
}
