// Package models builds the kernel graphs of the paper's evaluation
// workloads (Table 5): BERT-Large, GPT2-Large, GPT3-XL, OPT-1.3B,
// GPT3-2.7B, and the 4-expert Switch Transformer, plus the GPT-3 scale
// configuration used for the multi-node study (Table 9). Graphs mirror what
// Torch.fx extraction records from a HuggingFace-style transformer: the
// per-layer kernel sequence with concrete tensor dimensions.
package models

import (
	"fmt"

	"neusight/internal/graph"
	"neusight/internal/kernels"
)

// Config describes a transformer workload (Table 5 columns).
type Config struct {
	Name       string
	Year       int
	ParamsDesc string // human-readable parameter count ("1.3B")
	Layers     int
	Heads      int
	Hidden     int
	SeqLen     int
	Vocab      int
	Experts    int  // >0 selects a Switch-style MoE FFN
	Classifier bool // BERT-style classification head instead of LM head
}

// Table5 returns the six evaluation workloads with the paper's dimensions.
func Table5() []Config {
	return []Config{
		{Name: "BERT-Large", Year: 2018, ParamsDesc: "340M", Layers: 12, Heads: 16, Hidden: 760, SeqLen: 512, Vocab: 30522, Classifier: true},
		{Name: "GPT2-Large", Year: 2019, ParamsDesc: "774M", Layers: 36, Heads: 20, Hidden: 1280, SeqLen: 1024, Vocab: 50257},
		{Name: "GPT3-XL", Year: 2020, ParamsDesc: "1.3B", Layers: 24, Heads: 24, Hidden: 3072, SeqLen: 2048, Vocab: 50257},
		{Name: "OPT-1.3B", Year: 2022, ParamsDesc: "1.3B", Layers: 24, Heads: 24, Hidden: 2048, SeqLen: 2048, Vocab: 50272},
		{Name: "GPT3-2.7B", Year: 2020, ParamsDesc: "2.7B", Layers: 32, Heads: 32, Hidden: 2560, SeqLen: 2048, Vocab: 50257},
		{Name: "SwitchTrans", Year: 2021, ParamsDesc: "5.3B", Layers: 24, Heads: 32, Hidden: 1024, SeqLen: 512, Vocab: 32128, Experts: 4},
	}
}

// GPT3MultiNode returns the GPT-3 scale configuration of the multi-node
// study (Table 9): the 175B-class model trained with 8-wide tensor
// parallelism per node.
func GPT3MultiNode() Config {
	return Config{Name: "GPT3-175B", Year: 2020, ParamsDesc: "175B", Layers: 96, Heads: 96, Hidden: 12288, SeqLen: 2048, Vocab: 50257}
}

// Lookup finds a Table 5 workload by name.
func Lookup(name string) (Config, error) {
	for _, c := range Table5() {
		if c.Name == name {
			return c, nil
		}
	}
	if name == "GPT3-175B" {
		return GPT3MultiNode(), nil
	}
	return Config{}, fmt.Errorf("models: unknown workload %q", name)
}

// MustLookup panics on unknown workload names.
func MustLookup(name string) Config {
	c, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return c
}

// HeadDim returns the per-head dimension, rounding up when Hidden is not an
// exact multiple of Heads (BERT-Large's 760/16 from Table 5): libraries pad
// the head dimension rather than splitting unevenly.
func (c Config) HeadDim() int {
	return (c.Hidden + c.Heads - 1) / c.Heads
}

// NumParams estimates the trainable parameter count of the architecture.
func (c Config) NumParams() float64 {
	h := float64(c.Hidden)
	perLayerAttn := 4 * h * h // QKV (3h²) + output projection (h²)
	ffnMult := 1.0
	if c.Experts > 0 {
		ffnMult = float64(c.Experts)
	}
	perLayerFFN := 8 * h * h * ffnMult // two 4x expansions
	embed := float64(c.Vocab) * h
	return float64(c.Layers)*(perLayerAttn+perLayerFFN) + embed
}

// InferenceGraph builds the forward kernel graph for one inference pass at
// the given batch size. For generative models this is the prefill pass whose
// latency is the paper's "time to generate the first token" metric; for
// classifier models it ends in the classification head.
func (c Config) InferenceGraph(batch int) *graph.Graph {
	g := graph.New(fmt.Sprintf("%s/b%d/infer", c.Name, batch))
	c.buildForward(g, batch)
	return g
}

// TrainingGraph builds the forward+backward kernel graph for one training
// iteration at the given batch size (paper Section 6.1: "per-iteration
// training time, including a single forward and backward pass").
func (c Config) TrainingGraph(batch int) *graph.Graph {
	fwd := graph.New(fmt.Sprintf("%s/b%d", c.Name, batch))
	c.buildForward(fwd, batch)
	return graph.Backward(fwd)
}

// buildForward appends the forward kernels. Returns the last node ID.
func (c Config) buildForward(g *graph.Graph, batch int) int {
	return c.buildForwardSharded(g, batch, 1)
}

// buildForwardSharded appends the forward kernels for one GPU's shard under
// Megatron-style tensor model parallelism of the given width (tp=1 is the
// unsharded model). Column-parallel layers (QKV, FFN up, LM head) split the
// output dimension; row-parallel layers (attention projection, FFN down)
// split the input dimension; attention heads divide across shards;
// layernorms, residuals, and embeddings replicate.
func (c Config) buildForwardSharded(g *graph.Graph, batch, tp int) int {
	if batch <= 0 {
		panic("models: batch must be positive")
	}
	if tp < 1 {
		panic("models: tensor-parallel width must be >= 1")
	}
	tokens := batch * c.SeqLen
	h := c.Hidden
	d := c.HeadDim()
	heads := ceilDiv(c.Heads, tp)
	hShard := ceilDiv(h, tp)
	ffnShard := ceilDiv(4*h, tp)
	attnRows := batch * heads // BMM batch dimension

	// Per layer: 8 attention nodes and the closing residual, with 11
	// dependencies, plus the FFN's (see below and buildMoEFFN).
	ffnNodes, ffnDeps := 3, 3
	if c.Experts > 0 {
		ffnNodes, ffnDeps = 3+3*c.Experts, 2+4*c.Experts
	}
	g.Reserve(3+c.Layers*(9+ffnNodes), 2+c.Layers*(11+ffnDeps))

	last := g.Add(kernels.NewEmbedding(tokens, h, c.Vocab))
	for layer := 0; layer < c.Layers; layer++ {
		// Attention block.
		ln1 := g.Add(kernels.NewLayerNorm(tokens, h), last)
		qkv := g.Add(kernels.NewLinear(tokens, h, 3*hShard), ln1)
		scores := g.Add(kernels.NewBMM(attnRows, c.SeqLen, d, c.SeqLen), qkv)
		probs := g.Add(kernels.NewSoftmax(attnRows*c.SeqLen, c.SeqLen), scores)
		ctx := g.Add(kernels.NewBMM(attnRows, c.SeqLen, c.SeqLen, d), probs)
		proj := g.Add(kernels.NewLinear(tokens, hShard, h), ctx)
		res1 := g.Add(kernels.NewElementwise(kernels.OpEWAdd, tokens, h), proj, last)

		// FFN block (dense or Switch MoE).
		ln2 := g.Add(kernels.NewLayerNorm(tokens, h), res1)
		var ffnOut int
		if c.Experts > 0 {
			ffnOut = c.buildMoEFFN(g, ln2, tokens)
		} else {
			up := g.Add(kernels.NewLinear(tokens, h, ffnShard), ln2)
			act := g.Add(kernels.NewElementwise(kernels.OpEWGELU, tokens, ffnShard), up)
			ffnOut = g.Add(kernels.NewLinear(tokens, ffnShard, h), act)
		}
		last = g.Add(kernels.NewElementwise(kernels.OpEWAdd, tokens, h), ffnOut, res1)
	}
	final := g.Add(kernels.NewLayerNorm(tokens, h), last)
	if c.Classifier {
		// Classification reads the pooled [CLS] token per sample.
		return g.Add(kernels.NewLinear(batch, h, 2), final)
	}
	// Vocab-parallel LM head.
	return g.Add(kernels.NewLinear(tokens, h, ceilDiv(c.Vocab, tp)), final)
}

// TPInferenceGraph builds one GPU's forward shard under tensor model
// parallelism of the given width.
func (c Config) TPInferenceGraph(batch, width int) *graph.Graph {
	g := graph.New(fmt.Sprintf("%s/b%d/tp%d/infer", c.Name, batch, width))
	c.buildForwardSharded(g, batch, width)
	return g
}

// TPTrainingGraph builds one GPU's forward+backward shard under tensor
// model parallelism of the given width.
func (c Config) TPTrainingGraph(batch, width int) *graph.Graph {
	fwd := graph.New(fmt.Sprintf("%s/b%d/tp%d", c.Name, batch, width))
	c.buildForwardSharded(fwd, batch, width)
	return graph.Backward(fwd)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// buildMoEFFN emits a Switch Transformer FFN: a router projection and
// softmax over experts, then each expert processing its 1/E share of the
// tokens (top-1 routing with balanced load, the Switch design point).
func (c Config) buildMoEFFN(g *graph.Graph, in, tokens int) int {
	h := c.Hidden
	router := g.Add(kernels.NewLinear(tokens, h, c.Experts), in)
	gate := g.Add(kernels.NewSoftmax(tokens, c.Experts), router)
	perExpert := (tokens + c.Experts - 1) / c.Experts
	var few [8]int // keeps the usual expert counts off the heap
	expertOuts := few[:0]
	for e := 0; e < c.Experts; e++ {
		up := g.Add(kernels.NewLinear(perExpert, h, 4*h), gate)
		act := g.Add(kernels.NewElementwise(kernels.OpEWGELU, perExpert, 4*h), up)
		down := g.Add(kernels.NewLinear(perExpert, 4*h, h), act)
		expertOuts = append(expertOuts, down)
	}
	// Weighted combine of expert outputs back into token order.
	return g.Add(kernels.NewElementwise(kernels.OpEWMul, tokens, h), expertOuts...)
}

// HasOODDims reports whether the workload contains BMM kernels with an
// operand dimension above the 1024 cap of the predictor training set —
// the paper's criterion for calling a model out-of-distribution.
func (c Config) HasOODDims() bool {
	for _, k := range c.InferenceGraph(1).Kernels() {
		if k.Op != kernels.OpBMM {
			continue
		}
		if k.M > 1024 || k.K > 1024 || k.N > 1024 {
			return true
		}
	}
	return false
}
