package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/mat"
	"neusight/internal/nn"
	"neusight/internal/predict"
	"neusight/internal/tile"
)

const (
	modelFile = "model.json"
	tilesFile = "tiles.json"
)

// trainAndSave trains the reduced predictor of `neusight serve -quick`
// (same dataset sizes, same core.Config, dataset seed 42) and writes it and
// its tile database into dir. Every process of a run — the bench itself and
// the server child — then loads these files, so both sides hold
// bit-identical weights.
func trainAndSave(dir string) error {
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{
		Seed: 42, BMM: 300, FC: 150, EW: 120, Softmax: 60, LN: 60,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	p := core.NewPredictor(core.Config{
		Hidden: 48, Layers: 3, Epochs: 40, BatchSize: 256, LR: 3e-3, WeightDecay: 1e-4, Seed: 42,
	}, tdb)
	p.Train(ds)
	if err := p.Save(filepath.Join(dir, modelFile)); err != nil {
		return fmt.Errorf("saving model: %w", err)
	}
	if err := tdb.Save(filepath.Join(dir, tilesFile)); err != nil {
		return fmt.Errorf("saving tile database: %w", err)
	}
	return nil
}

// loadModel restores the predictor trainAndSave wrote into dir.
func loadModel(dir string) (*core.Predictor, error) {
	tdb, err := tile.LoadDB(filepath.Join(dir, tilesFile))
	if err != nil {
		return nil, fmt.Errorf("loading tile database: %w", err)
	}
	p, err := core.Load(filepath.Join(dir, modelFile), tdb)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	return p, nil
}

// network is one operator category's trained MLP as the traced run needs
// it: compiled for the nn timing, and taken apart — weights, biases, feature
// normalization — so that the mat timing can multiply the very activations
// a forward pass produces. The predictor keeps its networks private; the
// file it saves does not.
type network struct {
	cfg       nn.MLPConfig
	compiled  *nn.CompiledMLP
	ws, bs    []*mat.Matrix // per layer: in × out weights, 1 × out bias
	mean, std []float64
}

// loadNetworks decodes every category's network out of the saved model.
func loadNetworks(dir string) (map[kernels.Category]*network, error) {
	data, err := os.ReadFile(filepath.Join(dir, modelFile))
	if err != nil {
		return nil, err
	}
	var saved struct {
		MLPs  map[string]*nn.MLP `json:"mlps"`
		Stats map[string]struct {
			Mean []float64 `json:"mean"`
			Std  []float64 `json:"std"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &saved); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", modelFile, err)
	}
	nets := map[kernels.Category]*network{}
	for _, cat := range []kernels.Category{kernels.CatBMM, kernels.CatLinear, kernels.CatElementwise, kernels.CatSoftmax, kernels.CatLayerNorm} {
		m, ok := saved.MLPs[cat.String()]
		if !ok {
			return nil, fmt.Errorf("%s holds no %s network", modelFile, cat)
		}
		// An MLP's own wire form lists its tensors in layer order, weight
		// then bias.
		wire, err := m.MarshalJSON()
		if err != nil {
			return nil, err
		}
		var tensors struct {
			Weights [][]float64 `json:"weights"`
			Shapes  [][2]int    `json:"shapes"`
		}
		if err := json.Unmarshal(wire, &tensors); err != nil {
			return nil, err
		}
		st := saved.Stats[cat.String()]
		net := &network{cfg: m.Cfg, compiled: nn.Compile(m), mean: st.Mean, std: st.Std}
		for i := 0; i+1 < len(tensors.Weights); i += 2 {
			net.ws = append(net.ws, mat.FromSlice(tensors.Shapes[i][0], tensors.Shapes[i][1], tensors.Weights[i]))
			net.bs = append(net.bs, mat.FromSlice(tensors.Shapes[i+1][0], tensors.Shapes[i+1][1], tensors.Weights[i+1]))
		}
		nets[cat] = net
	}
	return nets, nil
}

// inputs builds the normalized feature rows core hands the network for ks
// on g: one row per kernel, as core.PredictKernelsDetail featurizes them.
func (n *network) inputs(tdb *tile.DB, ks []kernels.Kernel, g gpu.Spec) *mat.Matrix {
	x := mat.New(len(ks), n.cfg.In)
	for i, k := range ks {
		t := tdb.LookupOrSelect(k, g)
		row := x.Row(i)
		copy(row, core.Features(k, g, t, tile.Waves(k, t, g)))
		for j := range row {
			row[j] = (row[j] - n.mean[j]) / n.std[j]
		}
	}
	return x
}

// activations runs the forward pass layer by layer and returns the left
// operand of every layer's matrix product, with a destination for each.
func (n *network) activations(x *mat.Matrix) (acts, outs []*mat.Matrix) {
	act := nn.ActFunc(n.cfg.Activation)
	h := x
	for i, w := range n.ws {
		out := mat.New(h.Rows, w.Cols)
		acts, outs = append(acts, h), append(outs, out)
		if i == len(n.ws)-1 {
			break
		}
		next := mat.New(h.Rows, w.Cols)
		mat.MatMulInto(next, h, w)
		mat.AddRowVectorApplyInto(next, next, n.bs[i], act)
		h = next
	}
	return acts, outs
}

// newRegistry registers the engines every benchmark target serves: the
// learned engine under test, and roofline beside it as the issue fixes.
func newRegistry(eng predict.Engine) *predict.Registry {
	reg := predict.NewRegistry()
	reg.MustRegister(eng)
	reg.MustRegister(predict.NewRooflineEngine())
	return reg
}
