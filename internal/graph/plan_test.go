package graph

import (
	"math/rand"
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

// compileByMap is compile as it was before the direct-mapped table: every
// node's kernels.Key through one map. The fast path must equal it exactly.
func compileByMap(ks []kernels.Kernel) *Plan {
	p := &Plan{Index: make([]int32, len(ks))}
	seen := map[kernels.Key]int32{}
	for i, k := range ks {
		p.FLOPs += k.FLOPs()
		if k.Category() == kernels.CatNetwork {
			p.Network++
			p.Index[i] = -1
			continue
		}
		j, ok := seen[k.Key()]
		if !ok {
			j = int32(len(p.Kernels))
			seen[k.Key()] = j
			p.Kernels = append(p.Kernels, k)
			p.Counts = append(p.Counts, 0)
		}
		p.Counts[j]++
		p.Index[i] = j
	}
	return p
}

// TestCompileEqualsMapReference: on seeded random kernel lists drawn from
// everything that distinguishes two keys — shapes in both precisions, fused
// chains of 1 to 10 ops that differ only in FusedFLOPs or FusedBytes, conv
// kernels that differ only in ConvInputElems, network kernels, and shapes
// that collide in the direct-mapped table — the compiled plan is the
// map-only reference's, field for field.
func TestCompileEqualsMapReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		dim := func() int { return 1 << r.Intn(6) }
		var pool []kernels.Kernel
		for i := 0; i < 12; i++ {
			k := kernels.NewBMM(dim(), dim(), dim(), dim())
			pool = append(pool, k, k.WithDType(kernels.FP16),
				kernels.NewLinear(dim(), dim(), dim()),
				kernels.NewElementwise(kernels.OpEWAdd+kernels.Op(r.Intn(6)), dim(), dim()))
		}
		for i := 0; i < 6; i++ {
			chain := make([]kernels.Kernel, 1+r.Intn(10))
			for c := range chain {
				chain[c] = kernels.NewElementwise(kernels.OpEWAdd+kernels.Op(r.Intn(6)), 32, 64)
			}
			fused := kernels.Fuse(kernels.NewLinear(32, 64, 64), chain...)
			moreFLOPs, moreBytes := fused, fused
			moreFLOPs.FusedFLOPs++
			moreBytes.FusedBytes++
			conv := kernels.NewConv2D(kernels.Conv2DShape{Batch: 1, Cin: 64, H: 8, W: 8, Cout: 128, Kh: 1, Kw: 1, Stride: 1})
			strided := conv
			strided.ConvInputElems *= float64(2 + i)
			pool = append(pool, fused, moreFLOPs, moreBytes, conv, strided,
				kernels.Kernel{Op: kernels.OpAllReduce, B: dim(), M: dim()},
				kernels.Kernel{Op: kernels.OpSendRecv, B: dim(), M: dim()})
		}
		// Shapes that share pool[0]'s table slot and differ from it in one
		// dimension only, found by search.
		for _, vary := range []func(k *kernels.Kernel, d int){
			func(k *kernels.Kernel, d int) { k.B += d }, func(k *kernels.Kernel, d int) { k.M += d },
			func(k *kernels.Kernel, d int) { k.K += d }, func(k *kernels.Kernel, d int) { k.N += d },
		} {
			for d := 1; ; d++ {
				k := pool[0]
				if vary(&k, d); shapeSlot(&k) == shapeSlot(&pool[0]) {
					pool = append(pool, k)
					break
				}
			}
		}
		ks := make([]kernels.Kernel, 400)
		for i := range ks {
			ks[i] = pool[r.Intn(len(pool))]
		}
		got, want := CompileKernels(ks), compileByMap(ks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: compiled plan differs from the map-only reference:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}
