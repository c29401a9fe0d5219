// Package opt implements the gradient-based optimizers used to train the
// utilization predictors: AdamW with decoupled weight decay (the paper
// trains with "AdamW ... with L2 regularization", Section 6.1), and plain
// SGD as the hand-checkable reference the tests drive.
package opt

import (
	"math"

	ad "neusight/internal/autodiff"
)

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	params   []*ad.Value
	lr       float64
	momentum float64
	velocity [][]float64
}

// NewSGD builds an SGD optimizer over params.
func NewSGD(params []*ad.Value, lr, momentum float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum}
	if momentum != 0 {
		s.velocity = make([][]float64, len(params))
		for i, p := range params {
			s.velocity[i] = make([]float64, len(p.Data.Data))
		}
	}
	return s
}

// Step applies one update from the gradients currently stored in the
// parameters, then zeroes them.
func (s *SGD) Step() {
	for i, p := range s.params {
		g := p.Grad.Data
		w := p.Data.Data
		if s.momentum == 0 {
			for j := range w {
				w[j] -= s.lr * g[j]
			}
		} else {
			v := s.velocity[i]
			for j := range w {
				v[j] = s.momentum*v[j] + g[j]
				w[j] -= s.lr * v[j]
			}
		}
		p.ZeroGrad()
	}
}

// SetLR changes the learning rate for subsequent steps.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR reports the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// AdamW is Adam with decoupled weight decay (Loshchilov & Hutter).
type AdamW struct {
	params      []*ad.Value
	lr          float64
	beta1       float64
	beta2       float64
	eps         float64
	weightDecay float64
	t           int
	m, v        [][]float64
}

// AdamWConfig carries AdamW hyperparameters; zero values select defaults
// (beta1 0.9, beta2 0.999, eps 1e-8).
type AdamWConfig struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// NewAdamW builds an AdamW optimizer over params.
func NewAdamW(params []*ad.Value, cfg AdamWConfig) *AdamW {
	if cfg.Beta1 == 0 {
		cfg.Beta1 = 0.9
	}
	if cfg.Beta2 == 0 {
		cfg.Beta2 = 0.999
	}
	if cfg.Eps == 0 {
		cfg.Eps = 1e-8
	}
	a := &AdamW{
		params: params, lr: cfg.LR, beta1: cfg.Beta1, beta2: cfg.Beta2,
		eps: cfg.Eps, weightDecay: cfg.WeightDecay,
		m: make([][]float64, len(params)), v: make([][]float64, len(params)),
	}
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Data.Data))
		a.v[i] = make([]float64, len(p.Data.Data))
	}
	return a
}

// Step applies one update from the gradients currently stored in the
// parameters, then zeroes them.
func (a *AdamW) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		g := p.Grad.Data
		w := p.Data.Data
		m, v := a.m[i], a.v[i]
		for j := range w {
			m[j] = a.beta1*m[j] + (1-a.beta1)*g[j]
			v[j] = a.beta2*v[j] + (1-a.beta2)*g[j]*g[j]
			mHat := m[j] / bc1
			vHat := v[j] / bc2
			w[j] -= a.lr * (mHat/(math.Sqrt(vHat)+a.eps) + a.weightDecay*w[j])
		}
		p.ZeroGrad()
	}
}

// SetLR changes the learning rate for subsequent steps.
func (a *AdamW) SetLR(lr float64) { a.lr = lr }

// LR reports the current learning rate.
func (a *AdamW) LR() float64 { return a.lr }

// CosineDecay returns the learning rate at step t of total steps, decaying
// from base to floor along a half cosine.
func CosineDecay(base, floor float64, t, total int) float64 {
	if total <= 1 {
		return base
	}
	frac := float64(t) / float64(total-1)
	if frac > 1 {
		frac = 1
	}
	return floor + 0.5*(base-floor)*(1+math.Cos(math.Pi*frac))
}
