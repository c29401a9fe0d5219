package kernels

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBMMAccounting(t *testing.T) {
	k := NewBMM(4, 128, 64, 256)
	if got, want := k.FLOPs(), 2.0*4*128*64*256; got != want {
		t.Fatalf("FLOPs = %v, want %v", got, want)
	}
	if got, want := k.MemBytes(), 4.0*4*(128*64+64*256+128*256); got != want {
		t.Fatalf("MemBytes = %v, want %v", got, want)
	}
	dims := k.OutputDims()
	if len(dims) != 3 || dims[0] != 4 || dims[1] != 128 || dims[2] != 256 {
		t.Fatalf("OutputDims = %v", dims)
	}
}

func TestLinearAccounting(t *testing.T) {
	k := NewLinear(512, 1024, 4096)
	want := 2.0*512*1024*4096 + 512*4096
	if got := k.FLOPs(); got != want {
		t.Fatalf("FLOPs = %v, want %v", got, want)
	}
	if k.Category() != CatLinear {
		t.Fatalf("Category = %v", k.Category())
	}
}

func TestElementwiseAccounting(t *testing.T) {
	add := NewElementwise(OpEWAdd, 1024, 512)
	if got, want := add.FLOPs(), 1024.0*512; got != want {
		t.Fatalf("add FLOPs = %v, want %v", got, want)
	}
	if got, want := add.MemBytes(), 3.0*4*1024*512; got != want {
		t.Fatalf("add MemBytes = %v, want %v", got, want)
	}
	gelu := NewElementwise(OpEWGELU, 1024, 512)
	if gelu.FLOPs() <= add.FLOPs() {
		t.Fatal("GELU should cost more flops per element than add")
	}
	if got, want := gelu.MemBytes(), 2.0*4*1024*512; got != want {
		t.Fatalf("gelu MemBytes = %v, want %v (unary: one read one write)", got, want)
	}
}

func TestNewElementwiseRejectsNonEW(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-elementwise op")
		}
	}()
	NewElementwise(OpSoftmax, 4, 4)
}

func TestNonPositiveDimsPanic(t *testing.T) {
	defer func() {
		const want = "kernels: BMM requires positive dimensions, got [0 1 1 1]"
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	NewBMM(0, 1, 1, 1)
}

func TestFP16HalvesMemory(t *testing.T) {
	k32 := NewBMM(1, 256, 256, 256)
	k16 := k32.WithDType(FP16)
	if k16.MemBytes()*2 != k32.MemBytes() {
		t.Fatalf("fp16 bytes %v, fp32 bytes %v", k16.MemBytes(), k32.MemBytes())
	}
	if k16.FLOPs() != k32.FLOPs() {
		t.Fatal("precision must not change FLOP count")
	}
	if k16.ArithmeticIntensity() != 2*k32.ArithmeticIntensity() {
		t.Fatal("fp16 should double arithmetic intensity")
	}
}

func TestCategorization(t *testing.T) {
	cases := map[Op]Category{
		OpBMM: CatBMM, OpLinear: CatLinear,
		OpEWAdd: CatElementwise, OpEWGELU: CatElementwise,
		OpSoftmax: CatSoftmax, OpLayerNorm: CatLayerNorm,
		OpEmbedding: CatMemoryBound, OpDropout: CatMemoryBound,
		OpAllReduce: CatNetwork, OpSendRecv: CatNetwork,
	}
	for op, want := range cases {
		if got := Categorize(op); got != want {
			t.Errorf("Categorize(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestFuseAccumulatesFLOPsDropsIntermediates(t *testing.T) {
	// Residual add fused with layernorm, the paper's GPT-2 example.
	add := NewElementwise(OpEWAdd, 2048, 1280)
	ln := NewLayerNorm(2048, 1280)
	fused := Fuse(add, ln)

	if fused.Op != OpEWAdd {
		t.Fatal("fused kernel must keep the first op's type for predictor routing")
	}
	if got, want := fused.FLOPs(), add.FLOPs()+ln.FLOPs(); got != want {
		t.Fatalf("fused FLOPs = %v, want %v", got, want)
	}
	if fused.MemBytes() >= add.MemBytes()+ln.MemBytes() {
		t.Fatal("fusion must reduce memory traffic")
	}
	if fused.MemBytes() < 4*2048*1280 {
		t.Fatal("fused traffic cannot drop below one tensor")
	}
	if !strings.Contains(fused.Label(), "fused") {
		t.Fatalf("Label = %q should mention fusion", fused.Label())
	}
}

func TestFuseGEMMWithActivation(t *testing.T) {
	lin := NewLinear(2048, 1280, 5120)
	gelu := NewElementwise(OpEWGELU, 2048, 5120)
	fused := Fuse(lin, gelu)
	if fused.Category() != CatLinear {
		t.Fatal("GEMM+activation must route to the Linear predictor")
	}
	if got, want := fused.FLOPs(), lin.FLOPs()+gelu.FLOPs(); got != want {
		t.Fatalf("FLOPs = %v, want %v", got, want)
	}
	if fused.MemBytes() >= lin.MemBytes()+gelu.MemBytes() {
		t.Fatal("fusion must reduce traffic")
	}
}

func TestFuseNoRestIsIdentity(t *testing.T) {
	k := NewSoftmax(128, 128)
	if f := Fuse(k); f.Fused {
		t.Fatal("Fuse with no rest should return the kernel unchanged")
	}
}

// Property: FLOPs and MemBytes are positive and scale monotonically in B for
// every constructible op.
func TestCostsPositiveAndMonotonicProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b, m, k, n := 1+r.Intn(64), 1+r.Intn(512), 1+r.Intn(512), 1+r.Intn(512)
		ks := []Kernel{
			NewBMM(b, m, k, n),
			NewLinear(m, k, n),
			NewElementwise(OpEWAdd, b, m),
			NewSoftmax(b, m),
			NewLayerNorm(b, m),
			NewEmbedding(b, m, 50257),
		}
		for _, kern := range ks {
			if kern.MemBytes() <= 0 {
				return false
			}
			if kern.Op != OpEmbedding && kern.FLOPs() <= 0 {
				return false
			}
		}
		// Doubling the batch must not decrease cost.
		big := NewBMM(2*b, m, k, n)
		return big.FLOPs() > ks[0].FLOPs() && big.MemBytes() > ks[0].MemBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: arithmetic intensity of a square GEMM grows with its dimension
// (the roofline's compute-bound transition).
func TestIntensityGrowsWithGEMMSize(t *testing.T) {
	prev := 0.0
	for _, n := range []int{64, 128, 256, 512, 1024, 2048} {
		ai := NewBMM(1, n, n, n).ArithmeticIntensity()
		if ai <= prev {
			t.Fatalf("intensity not increasing at n=%d: %v <= %v", n, ai, prev)
		}
		prev = ai
	}
}

func TestLabelFormats(t *testing.T) {
	if got := NewBMM(2, 3, 4, 5).Label(); got != "bmm[2x(3x4@4x5)]" {
		t.Fatalf("Label = %q", got)
	}
	if got := NewLinear(10, 20, 30).Label(); got != "linear[10x20->30]" {
		t.Fatalf("Label = %q", got)
	}
	if got := NewBMM(1, 2, 2, 2).WithDType(FP16).Label(); !strings.Contains(got, "fp16") {
		t.Fatalf("Label = %q should mention fp16", got)
	}
}

func TestNetworkKernels(t *testing.T) {
	ar := Kernel{Op: OpAllReduce, B: 1 << 20, M: 1}
	if ar.MemBytes() != 4*(1<<20) {
		t.Fatalf("allreduce bytes = %v", ar.MemBytes())
	}
	if ar.Category() != CatNetwork {
		t.Fatal("allreduce must be a network kernel")
	}
}

// TestConstructorsDoNotAllocate pins the constructors at zero heap
// allocations: every graph build calls one per node.
func TestConstructorsDoNotAllocate(t *testing.T) {
	var sink Kernel
	allocs := testing.AllocsPerRun(100, func() {
		sink = NewBMM(2, 3, 4, 5)
		sink = NewLinear(2, 3, 4)
		sink = NewElementwise(OpEWAdd, 2, 3)
		sink = NewSoftmax(2, 3)
		sink = NewLayerNorm(2, 3)
		sink = NewEmbedding(2, 3, 4)
	})
	if allocs != 0 {
		t.Errorf("kernel constructors allocate %v times per run, want 0", allocs)
	}
	_ = sink
}
