// Package nn builds the neural predictors used across the framework: the
// per-operator utilization MLPs at the heart of NeuSight (paper Section 4.3),
// the larger MLPs used for the Habitat baseline, and the transformer
// regressor used in the "larger predictors" study (paper Table 1).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	ad "neusight/internal/autodiff"
	"neusight/internal/mat"
)

// Module is anything with a forward pass over a batch matrix and trainable
// parameters.
type Module interface {
	// Forward maps a (batch x in) matrix to a (batch x out) matrix.
	Forward(x *ad.Value) *ad.Value
	// Params returns the trainable parameters in a stable order.
	Params() []*ad.Value
}

// Activation selects the nonlinearity applied between MLP layers.
type Activation int

// Supported activations.
const (
	ActReLU Activation = iota
	ActTanh
	ActGELU
	ActSigmoid
)

func applyAct(a Activation, x *ad.Value) *ad.Value {
	switch a {
	case ActReLU:
		return ad.ReLU(x)
	case ActTanh:
		return ad.Tanh(x)
	case ActGELU:
		return ad.GELU(x)
	case ActSigmoid:
		return ad.Sigmoid(x)
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// Linear is a fully-connected layer y = xW + b.
type Linear struct {
	W *ad.Value // in x out
	B *ad.Value // 1 x out
}

// NewLinear builds a Linear layer with Kaiming-style initialization.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	std := math.Sqrt(2.0 / float64(in))
	return &Linear{
		W: ad.NewVariable(mat.RandN(rng, in, out, std)),
		B: ad.NewVariable(mat.New(1, out)),
	}
}

// Forward implements Module.
func (l *Linear) Forward(x *ad.Value) *ad.Value {
	return ad.AddRowVector(ad.MatMul(x, l.W), l.B)
}

// Params implements Module.
func (l *Linear) Params() []*ad.Value { return []*ad.Value{l.W, l.B} }

// MLPConfig describes a multi-layer perceptron.
type MLPConfig struct {
	In         int        // input feature count
	Hidden     int        // hidden width
	Out        int        // output count
	Layers     int        // number of hidden layers
	Activation Activation // nonlinearity between layers
}

// MLP is a stack of Linear layers with a fixed activation, mirroring the
// paper's predictor: "8 hidden layers, each with 512 hidden units ... ReLU
// applied at the end of every layer" (scaled down by callers where pure-Go
// training time matters).
type MLP struct {
	Cfg    MLPConfig
	layers []*Linear
}

// NewMLP builds an MLP per cfg, seeded by rng.
func NewMLP(rng *rand.Rand, cfg MLPConfig) *MLP {
	if cfg.Layers < 1 {
		panic("nn: MLP needs at least one hidden layer")
	}
	m := &MLP{Cfg: cfg}
	m.layers = append(m.layers, NewLinear(rng, cfg.In, cfg.Hidden))
	for i := 1; i < cfg.Layers; i++ {
		m.layers = append(m.layers, NewLinear(rng, cfg.Hidden, cfg.Hidden))
	}
	m.layers = append(m.layers, NewLinear(rng, cfg.Hidden, cfg.Out))
	return m
}

// Clone returns a deep copy of m: the same architecture with weight
// tensors of its own, so training the copy leaves m untouched.
func (m *MLP) Clone() *MLP {
	c := &MLP{Cfg: m.Cfg}
	for _, l := range m.layers {
		c.layers = append(c.layers, &Linear{W: ad.NewVariable(l.W.Data.Clone()), B: ad.NewVariable(l.B.Data.Clone())})
	}
	return c
}

// Forward implements Module.
func (m *MLP) Forward(x *ad.Value) *ad.Value {
	h := x
	for i, l := range m.layers {
		h = l.Forward(h)
		if i != len(m.layers)-1 {
			h = applyAct(m.Cfg.Activation, h)
		}
	}
	return h
}

// Params implements Module.
func (m *MLP) Params() []*ad.Value {
	var ps []*ad.Value
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
