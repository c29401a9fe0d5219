package gpu

import "testing"

func TestLookupKnown(t *testing.T) {
	h, err := Lookup("H100")
	if err != nil {
		t.Fatal(err)
	}
	if h.SMs != 132 || h.MemoryBWGBs != 3430 || h.L2CacheMB != 50 {
		t.Fatalf("H100 spec corrupted: %+v", h)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("GTX480"); err == nil {
		t.Fatal("expected error for unregistered device")
	}
}

func TestUpcomingGPURegistered(t *testing.T) {
	b, err := Lookup("B200")
	if err != nil {
		t.Fatal("B200 (the upcoming-GPU scenario) must be registered")
	}
	h := MustLookup("H100")
	if b.MemoryBWGBs <= h.MemoryBWGBs || b.TensorCoreFLOPS <= h.TensorCoreFLOPS {
		t.Fatal("B200 must supersede H100 on bandwidth and tensor peak")
	}
}

func TestTableFourInventory(t *testing.T) {
	// Every Table 4 device must be registered with plausible values.
	names := []string{"P4", "P100", "V100", "T4", "A100-40GB", "A100-80GB", "L4", "H100", "MI100", "MI210", "MI250"}
	for _, n := range names {
		s, err := Lookup(n)
		if err != nil {
			t.Fatalf("missing Table 4 device %s", n)
		}
		if s.PeakFLOPS <= 0 || s.MemoryBWGBs <= 0 || s.SMs <= 0 || s.L2CacheMB <= 0 || s.MemoryGB <= 0 {
			t.Fatalf("%s has non-positive fields: %+v", n, s)
		}
		if s.Year < 2015 || s.Year > 2024 {
			t.Fatalf("%s has implausible year %d", n, s.Year)
		}
	}
}

func TestTrainTestDisjoint(t *testing.T) {
	train := map[string]bool{}
	for _, s := range TrainSet() {
		train[s.Name] = true
	}
	for _, s := range TestSet() {
		if train[s.Name] {
			t.Fatalf("%s appears in both train and test sets", s.Name)
		}
	}
	if len(TrainSet()) != 5 {
		t.Fatalf("train set size %d, want 5 (paper Section 6.1)", len(TrainSet()))
	}
	if len(TestSet()) != 3 {
		t.Fatalf("test set size %d, want 3 (H100, L4, A100-80GB)", len(TestSet()))
	}
}

func TestAMDSets(t *testing.T) {
	for _, s := range append(AMDTrainSet(), MustLookup("MI250")) {
		if s.Vendor != AMD {
			t.Fatalf("%s in AMD sets but vendor %s", s.Name, s.Vendor)
		}
		if s.MatrixPeakFLOPS <= s.PeakFLOPS {
			t.Fatalf("%s: CDNA matrix peak %v should exceed vector peak %v", s.Name, s.MatrixPeakFLOPS, s.PeakFLOPS)
		}
	}
}

func TestPeakFLOPSFor(t *testing.T) {
	h := MustLookup("H100")
	if h.PeakFLOPSFor(false) != 66.9 {
		t.Fatalf("fp32 peak = %v", h.PeakFLOPSFor(false))
	}
	if h.PeakFLOPSFor(true) != 989 {
		t.Fatalf("fp16 tensor-core peak = %v", h.PeakFLOPSFor(true))
	}
	p4 := MustLookup("P4")
	if p4.PeakFLOPSFor(true) != p4.PeakFLOPS {
		t.Fatal("P4 has no tensor cores; fp16 should fall back to vector peak")
	}
	mi := MustLookup("MI250")
	if mi.PeakFLOPSFor(false) != 45.3 {
		t.Fatalf("MI250 matrix path = %v, want 45.3", mi.PeakFLOPSFor(false))
	}
}

func TestAllSortedAndComplete(t *testing.T) {
	specs := All()
	if len(specs) != 12 {
		t.Fatalf("All() returned %d specs, want 12", len(specs))
	}
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Name >= specs[i].Name {
			t.Fatal("All() not sorted by name")
		}
	}
}

func TestServerSpecs(t *testing.T) {
	a := MustLookupServer("A100x4-NVLink")
	if a.NumGPUs != 4 || a.LinkBWGBs != 600 {
		t.Fatalf("A100 server spec: %+v", a)
	}
	h := MustLookupServer("H100x4-DGX")
	if h.LinkBWGBs != 900 {
		t.Fatalf("H100 DGX link BW = %v, want 900", h.LinkBWGBs)
	}
	multi := MustLookupServer("H100x8-DGX")
	if multi.NodeNICGbps != 100 {
		t.Fatalf("multi-node NIC = %v Gbps, want 100", multi.NodeNICGbps)
	}
	if _, err := LookupServer("nope"); err == nil {
		t.Fatal("expected error for unknown server")
	}
}
