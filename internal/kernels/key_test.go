package kernels

import "testing"

// TestKeyIsAtLeastAsFineAsLabel: kernels that differ in anything Label
// renders differ in Key, and so do kernels that differ only in a field
// Label omits but a forecast reads.
func TestKeyIsAtLeastAsFineAsLabel(t *testing.T) {
	lin := NewLinear(64, 256, 512)
	conv := NewConv2D(Conv2DShape{Batch: 1, Cin: 256, H: 8, W: 8, Cout: 512, Kh: 1, Kw: 1, Stride: 1})
	strided := NewConv2D(Conv2DShape{Batch: 1, Cin: 256, H: 16, W: 16, Cout: 512, Kh: 1, Kw: 1, Stride: 2})
	gelu := NewElementwise(OpEWGELU, 64, 512)
	fused := Fuse(lin, gelu)
	heavier := fused
	heavier.FusedBytes *= 2

	if conv.Label() != strided.Label() || conv.Key() == strided.Key() {
		t.Errorf("convolutions sharing label %q must differ in Key by ConvInputElems (%v vs %v)",
			conv.Label(), conv.ConvInputElems, strided.ConvInputElems)
	}
	if fused.Label() != heavier.Label() || fused.Key() == heavier.Key() {
		t.Errorf("fused kernels sharing label %q must differ in Key by FusedBytes", fused.Label())
	}

	distinct := []Kernel{
		lin, lin.WithDType(FP16), NewLinear(64, 256, 513), conv, strided, gelu,
		NewElementwise(OpEWTanh, 64, 512), NewBMM(1, 64, 256, 512), NewBMM(2, 64, 256, 512),
		fused, heavier, Fuse(lin, NewElementwise(OpEWReLU, 64, 512)),
		Fuse(lin, gelu, NewElementwise(OpEWAdd, 64, 512)),
	}
	seen := map[Key]string{}
	for _, k := range distinct {
		if prev, ok := seen[k.Key()]; ok {
			t.Errorf("%s and %s share a Key", prev, k.Label())
		}
		seen[k.Key()] = k.Label()
	}
	if again := Fuse(lin, gelu); again.Key() != fused.Key() {
		t.Error("equal kernels built separately must share a Key")
	}
}

// TestKeyLongFusionChain: ops beyond the inline capacity still tell keys
// apart.
func TestKeyLongFusionChain(t *testing.T) {
	chain := func(last Op) Kernel {
		rest := make([]Kernel, keyFusedOps+2)
		for i := range rest {
			rest[i] = NewElementwise(OpEWAdd, 8, 8)
		}
		rest[len(rest)-1] = NewElementwise(last, 8, 8)
		k := Fuse(NewElementwise(OpEWAdd, 8, 8), rest...)
		k.FusedFLOPs, k.FusedBytes = 1, 1 // isolate the op list
		return k
	}
	if chain(OpEWAdd).Key() == chain(OpEWMul).Key() {
		t.Error("chains differing in an op past the inline capacity share a Key")
	}
	if chain(OpEWMul).Key() != chain(OpEWMul).Key() {
		t.Error("equal long chains must share a Key")
	}
}

func TestKeyAllocatesNothing(t *testing.T) {
	fused := Fuse(NewLinear(64, 256, 512), NewElementwise(OpEWGELU, 64, 512), NewElementwise(OpEWAdd, 64, 512))
	seen := map[Key]int{fused.Key(): 1}
	if n := testing.AllocsPerRun(100, func() { seen[fused.Key()]++ }); n != 0 {
		t.Errorf("Key + map update allocated %v times per run, want 0", n)
	}
}
