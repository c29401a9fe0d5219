package graph

import (
	"reflect"
	"testing"

	"neusight/internal/kernels"
)

// layered builds layers × (LN → Linear → GELU) behind an embedding, with
// an all-reduce after every layer: the repeat structure of a transformer.
func layered(layers int) *Graph {
	g := New("layered")
	prev := g.Add(kernels.NewEmbedding(128, 256, 1000))
	for l := 0; l < layers; l++ {
		a := g.Add(kernels.NewLayerNorm(128, 256), prev)
		b := g.Add(kernels.NewLinear(128, 256, 1024), a)
		c := g.Add(kernels.NewElementwise(kernels.OpEWGELU, 128, 1024), b)
		prev = g.Add(kernels.Kernel{Op: kernels.OpAllReduce, B: 128 * 1024, M: 1}, c)
	}
	return g
}

func TestCompileDistinctKernelsAndNodeOrder(t *testing.T) {
	g := layered(6)
	pl := Compile(g)
	if pl.Nodes() != len(g.Nodes) || pl.Network != 6 || pl.Predictable() != len(g.Nodes)-6 {
		t.Fatalf("nodes/network/predictable = %d/%d/%d, want %d/6/%d",
			pl.Nodes(), pl.Network, pl.Predictable(), len(g.Nodes), len(g.Nodes)-6)
	}
	if len(pl.Kernels) != 4 {
		t.Fatalf("distinct kernels = %d, want 4 (embedding, LN, linear, GELU)", len(pl.Kernels))
	}
	if want := []int{1, 6, 6, 6}; !reflect.DeepEqual(pl.Counts, want) {
		t.Errorf("counts = %v, want %v", pl.Counts, want)
	}
	for i, n := range g.Nodes {
		j := pl.Index[i]
		if n.Kernel.Category() == kernels.CatNetwork {
			if j != -1 {
				t.Errorf("network node %d has index %d, want -1", i, j)
			}
			continue
		}
		if pl.Kernels[j].Key() != n.Kernel.Key() {
			t.Errorf("node %d (%s) maps to %s", i, n.Kernel.Label(), pl.Kernels[j].Label())
		}
	}
	if pl.FLOPs != g.TotalFLOPs() {
		t.Errorf("FLOPs = %v, want exactly %v", pl.FLOPs, g.TotalFLOPs())
	}
	if byList := CompileKernels(g.Kernels()); !reflect.DeepEqual(byList, pl) {
		t.Error("CompileKernels(g.Kernels()) differs from Compile(g)")
	}
}

// TestCompileKeepsLabelSharingKernelsApart: a plan deduplicates by
// kernels.Key, not by Label — kernels whose forecasts can differ stay
// distinct even when they print the same.
func TestCompileKeepsLabelSharingKernelsApart(t *testing.T) {
	conv := kernels.NewConv2D(kernels.Conv2DShape{Batch: 1, Cin: 64, H: 8, W: 8, Cout: 128, Kh: 1, Kw: 1, Stride: 1})
	strided := kernels.NewConv2D(kernels.Conv2DShape{Batch: 1, Cin: 64, H: 16, W: 16, Cout: 128, Kh: 1, Kw: 1, Stride: 2})
	fused := kernels.Fuse(kernels.NewLinear(32, 64, 64), kernels.NewElementwise(kernels.OpEWReLU, 32, 64))
	heavier := fused
	heavier.FusedBytes += 4096
	if conv.Label() != strided.Label() || fused.Label() != heavier.Label() {
		t.Fatal("fixture kernels must share labels pairwise")
	}
	pl := CompileKernels([]kernels.Kernel{conv, strided, fused, heavier, conv, heavier})
	if len(pl.Kernels) != 4 {
		t.Fatalf("distinct kernels = %d, want 4", len(pl.Kernels))
	}
	if want := []int32{0, 1, 2, 3, 0, 3}; !reflect.DeepEqual(pl.Index, want) {
		t.Errorf("index = %v, want %v", pl.Index, want)
	}
}

func TestCompileEmpty(t *testing.T) {
	pl := Compile(New("empty"))
	if pl.Nodes() != 0 || len(pl.Kernels) != 0 || pl.FLOPs != 0 {
		t.Errorf("empty plan = %+v", pl)
	}
}
