package gpusim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

func TestDeterminism(t *testing.T) {
	s := New()
	g := gpu.MustLookup("V100")
	k := kernels.NewBMM(8, 512, 512, 512)
	if s.KernelLatency(k, g) != s.KernelLatency(k, g) {
		t.Fatal("simulator must be deterministic")
	}
}

func TestLatencyPositive(t *testing.T) {
	s := New()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gpus := gpu.All()
		g := gpus[r.Intn(len(gpus))]
		ks := []kernels.Kernel{
			kernels.NewBMM(1+r.Intn(64), 1+r.Intn(2048), 1+r.Intn(2048), 1+r.Intn(2048)),
			kernels.NewLinear(1+r.Intn(8192), 1+r.Intn(4096), 1+r.Intn(4096)),
			kernels.NewElementwise(kernels.OpEWAdd, 1+r.Intn(16384), 1+r.Intn(4096)),
			kernels.NewSoftmax(1+r.Intn(16384), 1+r.Intn(4096)),
			kernels.NewLayerNorm(1+r.Intn(16384), 1+r.Intn(4096)),
			kernels.NewEmbedding(1+r.Intn(4096), 1+r.Intn(4096), 50257),
		}
		for _, k := range ks {
			l := s.KernelLatency(k, g)
			if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRooflineBound: measured throughput can never exceed the device peak
// (the fundamental performance law the paper bounds predictions with).
func TestRooflineBound(t *testing.T) {
	s := New()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gpus := gpu.All()
		g := gpus[r.Intn(len(gpus))]
		k := kernels.NewBMM(1+r.Intn(32), 32+r.Intn(2048), 32+r.Intn(2048), 32+r.Intn(2048))
		util := s.ComputeUtilization(k, g)
		return util > 0 && util <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationRampsWithBatch mirrors paper Table 2: the (512x64)x(64x512)
// GEMM utilizes the device better as batch (and thus waves) grows.
func TestUtilizationRampsWithBatch(t *testing.T) {
	s := &Simulator{Overhead: true, Noise: false}
	g := gpu.MustLookup("H100")
	var prev float64
	for _, b := range []int{32, 64, 128, 256, 512} {
		u := s.ComputeUtilization(kernels.NewBMM(b, 512, 64, 512), g)
		if u < prev-0.02 { // allow small wave-quantization dips
			t.Fatalf("utilization dropped at batch %d: %v -> %v", b, prev, u)
		}
		prev = u
	}
	u32 := s.ComputeUtilization(kernels.NewBMM(32, 512, 64, 512), g)
	u512 := s.ComputeUtilization(kernels.NewBMM(512, 512, 64, 512), g)
	if u512 <= u32 {
		t.Fatalf("utilization should grow from batch 32 (%v) to 512 (%v)", u32, u512)
	}
}

// TestWaveScalingShape mirrors paper Fig. 5: throughput of a fixed 256³ MM
// grows with wave count and saturates.
func TestWaveScalingShape(t *testing.T) {
	s := &Simulator{Overhead: true, Noise: false}
	g := gpu.MustLookup("V100")
	tput := func(b int) float64 {
		k := kernels.NewBMM(b, 256, 256, 256)
		return s.AchievedFLOPS(k, g)
	}
	low, mid, high := tput(1), tput(40), tput(280)
	if !(low < mid && mid < high) {
		t.Fatalf("throughput not increasing: %v, %v, %v", low, mid, high)
	}
	// Saturation: the second half of the ramp gains less than the first.
	if (high-mid)/mid > (mid-low)/low {
		t.Fatalf("no saturation: gains %v then %v", (mid-low)/low, (high-mid)/mid)
	}
}

// TestNewerGPUFaster: H100 must beat V100 on a large GEMM by a factor
// reflecting its higher peak.
func TestNewerGPUFaster(t *testing.T) {
	s := New()
	k := kernels.NewBMM(16, 2048, 2048, 2048)
	v := s.KernelLatency(k, gpu.MustLookup("V100"))
	h := s.KernelLatency(k, gpu.MustLookup("H100"))
	if h >= v {
		t.Fatalf("H100 (%v ms) not faster than V100 (%v ms)", h, v)
	}
	ratio := v / h
	if ratio < 3 || ratio > 20 {
		t.Fatalf("H100/V100 speedup %vx implausible for a compute-bound GEMM", ratio)
	}
}

// TestMemoryBoundOpsScaleWithBW: elementwise add is bandwidth-bound, so the
// A100-80GB (1935 GB/s) must outpace the T4 (320 GB/s) roughly by BW ratio.
func TestMemoryBoundOpsScaleWithBW(t *testing.T) {
	s := &Simulator{Overhead: false, Noise: false}
	k := kernels.NewElementwise(kernels.OpEWAdd, 16384, 4096)
	t4 := s.KernelLatency(k, gpu.MustLookup("T4"))
	a100 := s.KernelLatency(k, gpu.MustLookup("A100-80GB"))
	ratio := t4 / a100
	bwRatio := 1935.0 / 320.0
	if ratio < bwRatio*0.5 || ratio > bwRatio*1.8 {
		t.Fatalf("EW speedup %v too far from BW ratio %v", ratio, bwRatio)
	}
}

// TestLaunchOverheadDominatesTinyKernels: for a tiny kernel the measured
// latency should be mostly overhead — the effect the paper blames for
// higher error on small models (Section 6.2).
func TestLaunchOverheadDominatesTinyKernels(t *testing.T) {
	g := gpu.MustLookup("H100")
	k := kernels.NewElementwise(kernels.OpEWAdd, 32, 32)
	with := (&Simulator{Overhead: true, Noise: false}).KernelLatency(k, g)
	without := (&Simulator{Overhead: false, Noise: false}).KernelLatency(k, g)
	if with < 2*without {
		t.Fatalf("overhead %v should dominate compute %v for tiny kernels", with, without)
	}
}

// TestFP16TensorCoreSpeedsUpGEMM: on H100 an FP16 GEMM must be much faster
// than FP32 (tensor cores), but on P4 (no tensor cores) only modestly
// faster (memory traffic halves).
func TestFP16TensorCoreSpeedsUpGEMM(t *testing.T) {
	s := &Simulator{Overhead: false, Noise: false}
	k32 := kernels.NewBMM(16, 2048, 2048, 2048)
	k16 := k32.WithDType(kernels.FP16)

	h := gpu.MustLookup("H100")
	sp := s.KernelLatency(k32, h) / s.KernelLatency(k16, h)
	if sp < 3 {
		t.Fatalf("H100 fp16 speedup %vx too low for tensor cores", sp)
	}
	p4 := gpu.MustLookup("P4")
	sp4 := s.KernelLatency(k32, p4) / s.KernelLatency(k16, p4)
	if sp4 > 2.5 {
		t.Fatalf("P4 fp16 speedup %vx too high without tensor cores", sp4)
	}
}

// TestAMDMatrixPath: CDNA devices use their matrix engines for GEMM, so
// achieved FLOPS on MI100 should exceed its vector FP32 peak fraction.
func TestAMDMatrixPath(t *testing.T) {
	s := &Simulator{Overhead: false, Noise: false}
	k := kernels.NewBMM(32, 2048, 2048, 2048)
	mi := gpu.MustLookup("MI100")
	achieved := s.AchievedFLOPS(k, mi) / 1e12
	if achieved < mi.PeakFLOPS*0.8 {
		t.Fatalf("MI100 GEMM achieves %v TFLOPS; matrix path should push past %v", achieved, mi.PeakFLOPS*0.8)
	}
	if achieved > mi.MatrixPeakFLOPS {
		t.Fatalf("achieved %v TFLOPS exceeds matrix peak %v", achieved, mi.MatrixPeakFLOPS)
	}
}

// TestLatencyMonotoneInWork: strictly more work on the same device can
// never be faster (holding the kernel family fixed).
func TestLatencyMonotoneInWork(t *testing.T) {
	s := &Simulator{Overhead: true, Noise: false}
	g := gpu.MustLookup("A100-40GB")
	prev := 0.0
	for _, n := range []int{128, 256, 512, 1024, 2048, 4096} {
		l := s.KernelLatency(kernels.NewBMM(4, n, n, n), g)
		if l <= prev {
			t.Fatalf("latency not increasing at n=%d: %v <= %v", n, l, prev)
		}
		prev = l
	}
}

func TestNetworkKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for network kernels")
		}
	}()
	New().KernelLatency(kernels.Kernel{Op: kernels.OpAllReduce, B: 1024, M: 1}, gpu.MustLookup("V100"))
}

// TestNoiseSmall: the pseudo-measurement jitter stays within a few percent.
func TestNoiseSmall(t *testing.T) {
	g := gpu.MustLookup("T4")
	k := kernels.NewBMM(8, 1024, 1024, 1024)
	noisy := (&Simulator{Overhead: true, Noise: true}).KernelLatency(k, g)
	clean := (&Simulator{Overhead: true, Noise: false}).KernelLatency(k, g)
	if rel := math.Abs(noisy-clean) / clean; rel > 0.03 {
		t.Fatalf("noise %v exceeds 3%%", rel)
	}
}
