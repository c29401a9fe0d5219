package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"neusight/internal/kernels"
)

func chainGraph() *Graph {
	g := New("chain")
	a := g.Add(kernels.NewLinear(512, 1024, 1024))
	b := g.Add(kernels.NewElementwise(kernels.OpEWGELU, 512, 1024), a)
	g.Add(kernels.NewLinear(512, 1024, 1024), b)
	return g
}

func TestAddAndValidate(t *testing.T) {
	g := chainGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(g.Nodes))
	}
}

func TestAddForwardDepPanics(t *testing.T) {
	g := New("bad")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on forward dependency")
		}
	}()
	g.Add(kernels.NewSoftmax(4, 4), 0) // depends on itself
}

func TestLatencyIsSequentialSum(t *testing.T) {
	g := chainGraph()
	lat := g.Latency(func(k kernels.Kernel) float64 { return 2.5 })
	if lat != 7.5 {
		t.Fatalf("Latency = %v, want 7.5 (3 kernels x 2.5)", lat)
	}
}

func TestTotalsAndCategories(t *testing.T) {
	g := chainGraph()
	var wantF, wantB float64
	for _, k := range g.Kernels() {
		wantF += k.FLOPs()
		wantB += k.MemBytes()
	}
	if g.TotalFLOPs() != wantF || g.TotalBytes() != wantB {
		t.Fatal("totals disagree with per-kernel sums")
	}
	counts := g.CountByCategory()
	if counts[kernels.CatLinear] != 2 || counts[kernels.CatElementwise] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	byCat := g.LatencyByCategory(func(k kernels.Kernel) float64 { return 1 })
	if byCat[kernels.CatLinear] != 2 {
		t.Fatalf("latency by category = %v", byCat)
	}
}

func TestConsumers(t *testing.T) {
	g := New("diamond")
	a := g.Add(kernels.NewLinear(4, 4, 4))
	b := g.Add(kernels.NewElementwise(kernels.OpEWReLU, 4, 4), a)
	c := g.Add(kernels.NewElementwise(kernels.OpEWTanh, 4, 4), a)
	g.Add(kernels.NewElementwise(kernels.OpEWAdd, 4, 4), b, c)
	cons := g.Consumers()
	if len(cons[a]) != 2 {
		t.Fatalf("node a consumers = %v, want 2", cons[a])
	}
	if len(cons[3]) != 0 {
		t.Fatal("sink must have no consumers")
	}
}

func TestBackwardDoublesGEMMs(t *testing.T) {
	fwd := New("fc")
	fwd.Add(kernels.NewLinear(512, 1024, 2048))
	train := Backward(fwd)
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1 forward + 2 backward GEMMs.
	if got := train.CountByCategory()[kernels.CatLinear]; got != 3 {
		t.Fatalf("linear kernels = %d, want 3", got)
	}
	// Backward FLOPs ≈ 2x forward for GEMMs.
	fwdF := fwd.TotalFLOPs()
	if r := train.TotalFLOPs() / fwdF; r < 2.9 || r > 3.1 {
		t.Fatalf("train/fwd FLOP ratio = %v, want ~3", r)
	}
}

func TestBackwardBMMDims(t *testing.T) {
	fwd := New("bmm")
	fwd.Add(kernels.NewBMM(8, 128, 64, 256))
	train := Backward(fwd)
	if len(train.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(train.Nodes))
	}
	dA, dB := train.Nodes[1].Kernel, train.Nodes[2].Kernel
	if dA.M != 128 || dA.K != 256 || dA.N != 64 {
		t.Fatalf("dA dims = %+v, want (M=128, K=256, N=64)", dA)
	}
	if dB.M != 64 || dB.K != 128 || dB.N != 256 {
		t.Fatalf("dB dims = %+v, want (M=64, K=128, N=256)", dB)
	}
	// Both backward BMMs match the forward FLOP count.
	if dA.FLOPs() != fwd.Nodes[0].Kernel.FLOPs() || dB.FLOPs() != fwd.Nodes[0].Kernel.FLOPs() {
		t.Fatal("backward BMM FLOPs should equal forward")
	}
}

func TestBackwardElementwiseAndNorms(t *testing.T) {
	fwd := New("mix")
	a := fwd.Add(kernels.NewElementwise(kernels.OpEWAdd, 2048, 1280))
	b := fwd.Add(kernels.NewLayerNorm(2048, 1280), a)
	fwd.Add(kernels.NewSoftmax(2048, 2048), b)
	train := Backward(fwd)
	counts := train.CountByCategory()
	if counts[kernels.CatElementwise] != 2 || counts[kernels.CatLayerNorm] != 2 || counts[kernels.CatSoftmax] != 2 {
		t.Fatalf("counts = %v, want each category doubled", counts)
	}
}

func TestBackwardSkipsNetworkOps(t *testing.T) {
	fwd := New("net")
	fwd.Add(kernels.Kernel{Op: kernels.OpAllReduce, B: 1 << 20, M: 1})
	train := Backward(fwd)
	if len(train.Nodes) != 1 {
		t.Fatalf("network ops must not get backward kernels, got %d nodes", len(train.Nodes))
	}
}

// Property: Backward output is always a valid DAG and never shrinks.
func TestBackwardValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New("rand")
		prev := -1
		for i := 0; i < 1+r.Intn(20); i++ {
			var k kernels.Kernel
			switch r.Intn(5) {
			case 0:
				k = kernels.NewBMM(1+r.Intn(8), 1+r.Intn(512), 1+r.Intn(512), 1+r.Intn(512))
			case 1:
				k = kernels.NewLinear(1+r.Intn(512), 1+r.Intn(512), 1+r.Intn(512))
			case 2:
				k = kernels.NewElementwise(kernels.OpEWAdd, 1+r.Intn(512), 1+r.Intn(512))
			case 3:
				k = kernels.NewSoftmax(1+r.Intn(512), 1+r.Intn(512))
			default:
				k = kernels.NewLayerNorm(1+r.Intn(512), 1+r.Intn(512))
			}
			if prev >= 0 {
				prev = g.Add(k, prev)
			} else {
				prev = g.Add(k)
			}
		}
		train := Backward(g)
		return train.Validate() == nil && len(train.Nodes) >= len(g.Nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFuseResidualAddLayerNorm(t *testing.T) {
	g := New("gpt2-block-tail")
	a := g.Add(kernels.NewElementwise(kernels.OpEWAdd, 2048, 1280))
	g.Add(kernels.NewLayerNorm(2048, 1280), a)
	fused := Fuse(g)
	if len(fused.Nodes) != 1 {
		t.Fatalf("fused nodes = %d, want 1", len(fused.Nodes))
	}
	k := fused.Nodes[0].Kernel
	if !k.Fused || k.Op != kernels.OpEWAdd {
		t.Fatalf("fused kernel = %+v, want EWAdd-headed fusion", k)
	}
	if k.FLOPs() != g.TotalFLOPs() {
		t.Fatal("fusion must accumulate FLOPs")
	}
	if k.MemBytes() >= g.TotalBytes() {
		t.Fatal("fusion must drop intermediate traffic")
	}
}

func TestFuseGEMMActivation(t *testing.T) {
	g := New("ffn")
	a := g.Add(kernels.NewLinear(2048, 1280, 5120))
	g.Add(kernels.NewElementwise(kernels.OpEWGELU, 2048, 5120), a)
	fused := Fuse(g)
	if len(fused.Nodes) != 1 {
		t.Fatalf("fused nodes = %d, want 1", len(fused.Nodes))
	}
	if fused.Nodes[0].Kernel.Category() != kernels.CatLinear {
		t.Fatal("GEMM+activation must stay in the Linear category")
	}
}

func TestFuseRespectsFanOut(t *testing.T) {
	// The producer feeds two consumers: fusion must not fire.
	g := New("fanout")
	a := g.Add(kernels.NewElementwise(kernels.OpEWAdd, 128, 128))
	g.Add(kernels.NewLayerNorm(128, 128), a)
	g.Add(kernels.NewElementwise(kernels.OpEWReLU, 128, 128), a)
	fused := Fuse(g)
	if len(fused.Nodes) != 3 {
		t.Fatalf("fused nodes = %d, want 3 (fan-out blocks fusion)", len(fused.Nodes))
	}
}

func TestFuseChainOfElementwise(t *testing.T) {
	g := New("ewchain")
	a := g.Add(kernels.NewElementwise(kernels.OpEWAdd, 1024, 1024))
	b := g.Add(kernels.NewElementwise(kernels.OpEWMul, 1024, 1024), a)
	g.Add(kernels.NewElementwise(kernels.OpEWTanh, 1024, 1024), b)
	fused := Fuse(g)
	if len(fused.Nodes) != 1 {
		t.Fatalf("fused nodes = %d, want 1", len(fused.Nodes))
	}
	if got := fused.Nodes[0].Kernel.FLOPs(); got != g.TotalFLOPs() {
		t.Fatalf("fused FLOPs = %v, want %v", got, g.TotalFLOPs())
	}
}

func TestFuseDoesNotCrossGEMMBoundary(t *testing.T) {
	// EW then Linear: no fusion rule allows EW -> GEMM.
	g := New("nofuse")
	a := g.Add(kernels.NewElementwise(kernels.OpEWAdd, 512, 512))
	g.Add(kernels.NewLinear(512, 512, 512), a)
	fused := Fuse(g)
	if len(fused.Nodes) != 2 {
		t.Fatalf("fused nodes = %d, want 2", len(fused.Nodes))
	}
}

// Property: fusion preserves total FLOPs exactly, never increases traffic,
// and yields a valid graph.
func TestFusePreservesWorkProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New("rand")
		prev := -1
		for i := 0; i < 1+r.Intn(25); i++ {
			var k kernels.Kernel
			switch r.Intn(5) {
			case 0:
				k = kernels.NewLinear(8+r.Intn(512), 8+r.Intn(512), 8+r.Intn(512))
			case 1:
				k = kernels.NewElementwise(kernels.OpEWAdd, 8+r.Intn(2048), 8+r.Intn(2048))
			case 2:
				k = kernels.NewElementwise(kernels.OpEWGELU, 8+r.Intn(2048), 8+r.Intn(2048))
			case 3:
				k = kernels.NewLayerNorm(8+r.Intn(2048), 8+r.Intn(2048))
			default:
				k = kernels.NewSoftmax(8+r.Intn(2048), 8+r.Intn(2048))
			}
			if prev >= 0 && r.Intn(4) > 0 {
				prev = g.Add(k, prev)
			} else {
				prev = g.Add(k)
			}
		}
		fused := Fuse(g)
		if fused.Validate() != nil {
			return false
		}
		if fused.TotalFLOPs() != g.TotalFLOPs() {
			return false
		}
		return fused.TotalBytes() <= g.TotalBytes() && len(fused.Nodes) <= len(g.Nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWithDType(t *testing.T) {
	g := chainGraph()
	h := g.WithDType(kernels.FP16)
	if h.TotalBytes()*2 != g.TotalBytes() {
		t.Fatal("fp16 graph should have half the traffic")
	}
	if h.TotalFLOPs() != g.TotalFLOPs() {
		t.Fatal("precision must not change FLOPs")
	}
}

// TestDepsAreIsolated: every node's Deps is a slice of one shared arena,
// so it must be capped at its own length — an append to one node's Deps
// reallocates and leaves every other node's intact — on graphs built by
// Add alone (across slab and arena growth) and by every transform.
func TestDepsAreIsolated(t *testing.T) {
	g := New("wide")
	for i := 0; i < 300; i++ {
		deps := []int{}
		for d := i - 3; d < i; d++ {
			if d >= 0 {
				deps = append(deps, d)
			}
		}
		g.Add(kernels.NewLinear(8, 8, 1+i%5), deps...)
		if i%3 == 0 {
			g.Add(kernels.NewElementwise(kernels.OpEWGELU, 8, 1+i%5), len(g.Nodes)-1)
		}
	}
	reserved := New("reserved")
	reserved.Reserve(g.size())
	for _, n := range g.Nodes {
		reserved.Add(n.Kernel, n.Deps...)
	}
	for _, gr := range []*Graph{g, reserved, Backward(g), Fuse(g), g.WithDType(kernels.FP16), Fuse(Backward(g))} {
		if err := gr.Validate(); err != nil {
			t.Fatalf("%s: %v", gr.Name, err)
		}
		want := make([][]int, len(gr.Nodes))
		for i, n := range gr.Nodes {
			want[i] = append([]int(nil), n.Deps...)
		}
		for _, n := range gr.Nodes {
			_ = append(n.Deps, -1)
		}
		for i, n := range gr.Nodes {
			if len(n.Deps) != len(want[i]) || (len(want[i]) > 0 && !reflect.DeepEqual(n.Deps, want[i])) {
				t.Fatalf("%s: node %d deps = %v after appends to the others, want %v", gr.Name, i, n.Deps, want[i])
			}
		}
	}
}
