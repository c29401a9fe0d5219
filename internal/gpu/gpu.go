// Package gpu holds the device spec registry: the public, spec-sheet-level
// description of every GPU the paper trains on or forecasts for (paper
// Table 4), plus multi-GPU server configurations (Section 6.3).
//
// Only the fields here are visible to any predictor. The execution simulator
// (internal/gpusim) layers additional hidden micro-architectural parameters
// on top; keeping them out of this package enforces the paper's premise that
// forecasting must work from publicly documented features alone.
package gpu

import (
	"fmt"
	"sort"
)

// Vendor identifies the GPU manufacturer.
type Vendor string

// Known vendors.
const (
	NVIDIA Vendor = "NVIDIA"
	AMD    Vendor = "AMD"
)

// Spec is the public description of a device (paper Table 4 columns).
type Spec struct {
	Name            string
	Vendor          Vendor
	Year            int
	PeakFLOPS       float64 // FP32 TFLOPS
	MatrixPeakFLOPS float64 // dedicated matrix-path TFLOPS (AMD CDNA); 0 if none
	TensorCoreFLOPS float64 // FP16 tensor-core TFLOPS; 0 if none
	MemoryGB        float64 // HBM/GDDR capacity
	MemoryBWGBs     float64 // peak memory bandwidth, GB/s
	SMs             int     // streaming multiprocessors / compute units
	L2CacheMB       float64
}

// PeakFLOPSFor returns the matrix-path peak for the given precision,
// falling back to the vector FP32 peak when no dedicated unit exists.
func (s Spec) PeakFLOPSFor(fp16 bool) float64 {
	if fp16 && s.TensorCoreFLOPS > 0 {
		return s.TensorCoreFLOPS
	}
	if s.MatrixPeakFLOPS > 0 {
		return s.MatrixPeakFLOPS
	}
	return s.PeakFLOPS
}

// registry is keyed by canonical name.
var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("gpu: duplicate spec %q", s.Name))
	}
	registry[s.Name] = s
}

func init() {
	// NVIDIA devices (paper Table 4). TensorCoreFLOPS from vendor
	// documentation where the architecture has tensor cores.
	register(Spec{Name: "P4", Vendor: NVIDIA, Year: 2016, PeakFLOPS: 5.4, MemoryGB: 8, MemoryBWGBs: 192, SMs: 40, L2CacheMB: 2})
	register(Spec{Name: "P100", Vendor: NVIDIA, Year: 2016, PeakFLOPS: 9.5, MemoryGB: 16, MemoryBWGBs: 732, SMs: 56, L2CacheMB: 4})
	register(Spec{Name: "V100", Vendor: NVIDIA, Year: 2017, PeakFLOPS: 8.1, TensorCoreFLOPS: 112, MemoryGB: 32, MemoryBWGBs: 900, SMs: 80, L2CacheMB: 6})
	register(Spec{Name: "T4", Vendor: NVIDIA, Year: 2018, PeakFLOPS: 14.1, TensorCoreFLOPS: 65, MemoryGB: 16, MemoryBWGBs: 320, SMs: 40, L2CacheMB: 4})
	register(Spec{Name: "A100-40GB", Vendor: NVIDIA, Year: 2020, PeakFLOPS: 19.5, TensorCoreFLOPS: 312, MemoryGB: 40, MemoryBWGBs: 1555, SMs: 108, L2CacheMB: 40})
	register(Spec{Name: "A100-80GB", Vendor: NVIDIA, Year: 2020, PeakFLOPS: 19.5, TensorCoreFLOPS: 312, MemoryGB: 80, MemoryBWGBs: 1935, SMs: 108, L2CacheMB: 40})
	register(Spec{Name: "L4", Vendor: NVIDIA, Year: 2023, PeakFLOPS: 31.3, TensorCoreFLOPS: 121, MemoryGB: 24, MemoryBWGBs: 300, SMs: 60, L2CacheMB: 48})
	register(Spec{Name: "H100", Vendor: NVIDIA, Year: 2022, PeakFLOPS: 66.9, TensorCoreFLOPS: 989, MemoryGB: 80, MemoryBWGBs: 3430, SMs: 132, L2CacheMB: 50})
	// B200 is the paper's "upcoming GPU" scenario (Section 4.3 discusses
	// Blackwell): memory size, bandwidth, and peak FLOPS are public at
	// announcement; SM count and L2 size here are pre-release estimates,
	// exactly the situation NeuSight is built for.
	register(Spec{Name: "B200", Vendor: NVIDIA, Year: 2024, PeakFLOPS: 80, TensorCoreFLOPS: 2250, MemoryGB: 192, MemoryBWGBs: 8000, SMs: 160, L2CacheMB: 126})

	// AMD devices (CDNA compute units play the role of SMs; the matrix
	// path has roughly 2x the vector FP32 peak, per the CDNA2 whitepaper).
	register(Spec{Name: "MI100", Vendor: AMD, Year: 2020, PeakFLOPS: 23.1, MatrixPeakFLOPS: 46.1, MemoryGB: 32, MemoryBWGBs: 1230, SMs: 120, L2CacheMB: 8})
	register(Spec{Name: "MI210", Vendor: AMD, Year: 2021, PeakFLOPS: 22.6, MatrixPeakFLOPS: 45.3, MemoryGB: 64, MemoryBWGBs: 1640, SMs: 104, L2CacheMB: 16})
	register(Spec{Name: "MI250", Vendor: AMD, Year: 2021, PeakFLOPS: 22.6, MatrixPeakFLOPS: 45.3, MemoryGB: 64, MemoryBWGBs: 1640, SMs: 104, L2CacheMB: 16})
}

// Lookup returns the spec for name.
func Lookup(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("gpu: unknown device %q", name)
	}
	return s, nil
}

// MustLookup is Lookup that panics on unknown names; for test and example
// code where the name is a compile-time constant.
func MustLookup(name string) Spec {
	s, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}

// All returns every registered spec sorted by name.
func All() []Spec {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	specs := make([]Spec, len(names))
	for i, n := range names {
		specs[i] = registry[n]
	}
	return specs
}

// TrainSet returns the GPUs used to collect predictor training data (paper
// Section 6.1: 5 NVIDIA devices released 2016-2020).
func TrainSet() []Spec {
	return specsFor("P4", "P100", "V100", "T4", "A100-40GB")
}

// TestSet returns the held-out GPUs (paper: H100, L4, A100-80GB).
func TestSet() []Spec {
	return specsFor("H100", "L4", "A100-80GB")
}

// AMDTrainSet returns the AMD training devices for the Figure 9 study.
func AMDTrainSet() []Spec { return specsFor("MI100", "MI210") }

func specsFor(names ...string) []Spec {
	specs := make([]Spec, len(names))
	for i, n := range names {
		specs[i] = MustLookup(n)
	}
	return specs
}
