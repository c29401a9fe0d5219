// Package loss provides the training losses used by the predictors: MSE for
// the direct-regression baselines and SMAPE (the NeuSight loss, following
// Tofallis 2015 as cited in paper Section 6.1).
// All functions compose autodiff ops so gradients flow to the predictions.
package loss

import ad "neusight/internal/autodiff"

// eps keeps SMAPE finite when prediction and target both approach zero.
const eps = 1e-9

// MSE returns mean((pred - target)²) as a 1x1 Value.
func MSE(pred, target *ad.Value) *ad.Value {
	d := ad.Sub(pred, target)
	return ad.MeanAll(ad.Mul(d, d))
}

// SMAPE returns the symmetric mean absolute percentage error,
// mean(|pred - target| / ((|pred| + |target|)/2)), as a 1x1 Value.
func SMAPE(pred, target *ad.Value) *ad.Value {
	d := ad.Abs(ad.Sub(pred, target))
	den := ad.Scale(ad.Add(ad.Abs(pred), ad.Abs(target)), 0.5)
	return ad.MeanAll(ad.Div(d, ad.AddScalar(den, eps)))
}
