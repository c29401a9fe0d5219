package models

import (
	"fmt"

	"neusight/internal/graph"
	"neusight/internal/kernels"
)

// ResNet-50 (He et al. 2015): the CNN workload the paper's related work
// benchmarks against cycle-accurate simulation ("the most popular GPU
// simulator can take up to 18 hours to simulate ResNet-50 with a batch
// size of 256", Section 1). NeuSight forecasts it in milliseconds. The
// convolutions lower to implicit GEMM and route to the fully-connected
// predictor; batch-norm and ReLU are elementwise.

// bottleneckSpec is one ResNet stage: the number of residual bottleneck
// blocks and their channel widths at a spatial resolution.
type bottleneckSpec struct {
	blocks   int
	inC      int // input channels of the first block
	midC     int // 1x1 reduce width
	outC     int // 1x1 expand width
	spatial  int // input H = W at this stage
	firstStr int // stride of the first block (downsampling)
}

// resnet50Stages is the standard ResNet-50 configuration.
var resnet50Stages = []bottleneckSpec{
	{blocks: 3, inC: 64, midC: 64, outC: 256, spatial: 56, firstStr: 1},
	{blocks: 4, inC: 256, midC: 128, outC: 512, spatial: 56, firstStr: 2},
	{blocks: 6, inC: 512, midC: 256, outC: 1024, spatial: 28, firstStr: 2},
	{blocks: 3, inC: 1024, midC: 512, outC: 2048, spatial: 14, firstStr: 2},
}

// ResNet50InferenceGraph builds the forward kernel graph of ResNet-50 at
// 224x224 input resolution.
func ResNet50InferenceGraph(batch int) *graph.Graph {
	g := graph.New(fmt.Sprintf("ResNet50/b%d/infer", batch))
	buildResNet50(g, batch)
	return g
}

func buildResNet50(g *graph.Graph, batch int) {
	if batch <= 0 {
		panic("models: batch must be positive")
	}
	// Stem: 7x7/2 conv, BN+ReLU, 3x3/2 max pool.
	last := g.Add(kernels.NewConv2D(kernels.Conv2DShape{
		Batch: batch, Cin: 3, H: 224, W: 224, Cout: 64, Kh: 7, Kw: 7, Stride: 2, Pad: 3,
	}))
	last = addBNReLU(g, last, batch, 64, 112)
	last = g.Add(kernels.NewPool2D(batch, 64, 112, 112, 3, 2), last)

	for _, st := range resnet50Stages {
		inC := st.inC
		sp := st.spatial
		for b := 0; b < st.blocks; b++ {
			stride := 1
			if b == 0 {
				stride = st.firstStr
			}
			outSp := sp / stride
			// 1x1 reduce.
			c1 := g.Add(kernels.NewConv2D(kernels.Conv2DShape{
				Batch: batch, Cin: inC, H: sp, W: sp, Cout: st.midC, Kh: 1, Kw: 1, Stride: stride, Pad: 0,
			}), last)
			r1 := addBNReLU(g, c1, batch, st.midC, outSp)
			// 3x3.
			c2 := g.Add(kernels.NewConv2D(kernels.Conv2DShape{
				Batch: batch, Cin: st.midC, H: outSp, W: outSp, Cout: st.midC, Kh: 3, Kw: 3, Stride: 1, Pad: 1,
			}), r1)
			r2 := addBNReLU(g, c2, batch, st.midC, outSp)
			// 1x1 expand.
			c3 := g.Add(kernels.NewConv2D(kernels.Conv2DShape{
				Batch: batch, Cin: st.midC, H: outSp, W: outSp, Cout: st.outC, Kh: 1, Kw: 1, Stride: 1, Pad: 0,
			}), r2)
			bn3 := g.Add(kernels.NewElementwise(kernels.OpEWMul, batch*st.outC, outSp*outSp), c3)
			// Projection shortcut on the first block of each stage.
			shortcut := last
			if b == 0 {
				shortcut = g.Add(kernels.NewConv2D(kernels.Conv2DShape{
					Batch: batch, Cin: inC, H: sp, W: sp, Cout: st.outC, Kh: 1, Kw: 1, Stride: stride, Pad: 0,
				}), last)
			}
			sum := g.Add(kernels.NewElementwise(kernels.OpEWAdd, batch*st.outC, outSp*outSp), bn3, shortcut)
			last = g.Add(kernels.NewElementwise(kernels.OpEWReLU, batch*st.outC, outSp*outSp), sum)
			inC = st.outC
			sp = outSp
		}
	}
	// Global average pool + classifier.
	pooled := g.Add(kernels.NewPool2D(batch, 2048, 7, 7, 7, 7), last)
	g.Add(kernels.NewLinear(batch, 2048, 1000), pooled)
}

// addBNReLU appends a batch-norm (elementwise scale+shift) and ReLU over
// batch x channels x sp x sp activations.
func addBNReLU(g *graph.Graph, dep, batch, channels, sp int) int {
	bn := g.Add(kernels.NewElementwise(kernels.OpEWMul, batch*channels, sp*sp), dep)
	return g.Add(kernels.NewElementwise(kernels.OpEWReLU, batch*channels, sp*sp), bn)
}
