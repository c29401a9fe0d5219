package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/metrics"
	"neusight/internal/models"
)

var (
	labOnce   sync.Once
	sharedLab *Lab
)

// quickLab builds one reduced lab shared by all experiment tests (training
// the predictors is the expensive step).
func quickLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() { sharedLab = NewLab(QuickLabConfig()) })
	return sharedLab
}

// parsePct extracts the numeric value from a "12.3%" cell.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	// Every artifact of the paper's evaluation must be registered.
	want := []string{"ablation", "fig10", "fig2", "fig5", "fig7", "fig8",
		"fig9", "table1", "table2", "table6", "table7", "table8", "table9"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered experiments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered experiments = %v, want %v", got, want)
		}
	}
	if _, err := Run("nope", nil); err == nil {
		t.Fatal("unknown ID must error")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2,3")
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2,3 |") {
		t.Fatalf("markdown = %q", md)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, "\"2,3\"") {
		t.Fatalf("CSV must quote commas: %q", csv)
	}
	// AddRow pads missing cells.
	tb.AddRow("only")
	if got := tb.Rows[1][1]; got != "" {
		t.Fatalf("padding cell = %q", got)
	}
}

func TestFig2ShowsOODDegradation(t *testing.T) {
	lab := quickLab(t)
	tables := Fig2(lab)
	if len(tables) != 2 {
		t.Fatalf("Fig2 returned %d tables, want 2", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != len(fig2Dims) {
			t.Fatalf("%s rows = %d, want %d", tb.ID, len(tb.Rows), len(fig2Dims))
		}
	}
	// Habitat: mean error over OOD dims must exceed mean over in-dist dims.
	h := tables[0]
	var inDist, ood []float64
	for _, row := range h.Rows {
		for _, cell := range row[1:] {
			v := parsePct(t, cell)
			if strings.HasSuffix(row[0], "*") {
				ood = append(ood, v)
			} else {
				inDist = append(inDist, v)
			}
		}
	}
	if metrics.Mean(ood) <= metrics.Mean(inDist) {
		t.Fatalf("Habitat OOD error %.1f should exceed in-dist %.1f (Fig 2a shape)",
			metrics.Mean(ood), metrics.Mean(inDist))
	}
}

func TestTable2UtilizationRamps(t *testing.T) {
	lab := quickLab(t)
	tb := Table2(lab)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 batch sizes", len(tb.Rows))
	}
	first := parsePct(t, tb.Rows[0][1])
	last := parsePct(t, tb.Rows[len(tb.Rows)-1][1])
	if last <= first {
		t.Fatalf("utilization should ramp with batch: %v -> %v", first, last)
	}
	for _, r := range tb.Rows {
		v := parsePct(t, r[1])
		if v <= 0 || v > 100 {
			t.Fatalf("utilization %v out of (0, 100]", v)
		}
	}
}

func TestFig5ThroughputSaturates(t *testing.T) {
	lab := quickLab(t)
	tb := Fig5(lab)
	var tputs []float64
	for _, r := range tb.Rows {
		v, err := strconv.ParseFloat(r[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		tputs = append(tputs, v)
	}
	if tputs[len(tputs)-1] <= tputs[0] {
		t.Fatal("throughput must grow with waves")
	}
	peak := gpu.MustLookup("V100").PeakFLOPS
	for _, v := range tputs {
		if v > peak {
			t.Fatalf("throughput %v exceeds V100 peak %v", v, peak)
		}
	}
}

func TestFig7NeuSightWins(t *testing.T) {
	lab := quickLab(t)
	tables := Fig7(lab)
	if len(tables) != 2 {
		t.Fatalf("Fig7 returned %d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) < 20 {
			t.Fatalf("%s has only %d rows", tb.ID, len(tb.Rows))
		}
		// The AVERAGE row: NeuSight (col 4) must beat Habitat (col 6) and
		// Li et al. (col 7), the paper's headline ordering.
		avg := tb.Rows[len(tb.Rows)-3]
		if avg[0] != "AVERAGE" {
			t.Fatalf("%s missing AVERAGE row: %v", tb.ID, avg)
		}
		ns := parsePct(t, avg[4])
		habitat := parsePct(t, avg[6])
		li := parsePct(t, avg[7])
		if ns >= habitat || ns >= li {
			t.Fatalf("%s: NeuSight %.1f%% must beat Habitat %.1f%% and Li %.1f%%", tb.ID, ns, habitat, li)
		}
		// And the OOD-GPU average should stay moderate while baselines blow up.
		oodRow := tb.Rows[len(tb.Rows)-2]
		nsOOD := parsePct(t, oodRow[4])
		if nsOOD >= parsePct(t, oodRow[6]) {
			t.Fatalf("%s: NeuSight OOD %.1f%% must beat Habitat OOD", tb.ID, nsOOD)
		}
	}
}

func TestFig8CoversCategories(t *testing.T) {
	lab := quickLab(t)
	tb := Fig8(lab)
	if len(tb.Rows) != 5 {
		t.Fatalf("Fig8 rows = %d, want 5 operator categories", len(tb.Rows))
	}
	names := map[string]bool{}
	for _, r := range tb.Rows {
		names[r[0]] = true
	}
	for _, want := range []string{"BMM", "FC", "EW", "Softmax", "LN"} {
		if !names[want] {
			t.Fatalf("Fig8 missing category %s", want)
		}
	}
}

func TestTable6SharesSumToOne(t *testing.T) {
	lab := quickLab(t)
	tb := Table6(lab)
	for _, r := range tb.Rows {
		sum := 0.0
		for _, cell := range r[2:] {
			sum += parsePct(t, cell)
		}
		if sum < 95 || sum > 105 {
			t.Fatalf("row %v contribution sums to %.1f%%, want ~100%%", r[0], sum)
		}
	}
	// GEMMs dominate transformer inference (the paper's point).
	for _, r := range tb.Rows {
		if parsePct(t, r[3]) < 40 {
			t.Fatalf("%s: LINEAR share %.1f%% implausibly low", r[0], parsePct(t, r[3]))
		}
	}
}

func TestFig9AMDGeneralization(t *testing.T) {
	lab := quickLab(t)
	tables := Fig9(lab)
	if len(tables) != 2 {
		t.Fatalf("Fig9 returned %d tables", len(tables))
	}
	for _, tb := range tables {
		last := tb.Rows[len(tb.Rows)-1]
		if last[0] != "AVERAGE" {
			t.Fatal("missing AVERAGE row")
		}
		if avg := parsePct(t, last[4]); avg > 60 {
			t.Fatalf("%s: AMD cross-vendor error %.1f%% too high", tb.ID, avg)
		}
	}
}

func TestTable7FusionSpeedsUpAndPredicts(t *testing.T) {
	lab := quickLab(t)
	tb := Table7(lab)
	if len(tb.Rows) != 12 {
		t.Fatalf("Table7 rows = %d, want 4 workloads x 3 GPUs", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		mPlain, _ := strconv.ParseFloat(r[3], 64)
		mFused, _ := strconv.ParseFloat(r[5], 64)
		if mFused >= mPlain {
			t.Fatalf("%v: fusion should speed up measured latency (%v vs %v)", r[0], mFused, mPlain)
		}
	}
}

func TestFig10FP16Accuracy(t *testing.T) {
	lab := quickLab(t)
	tb := Fig10(lab)
	last := tb.Rows[len(tb.Rows)-1]
	if avg := parsePct(t, last[4]); avg > 60 {
		t.Fatalf("FP16 tensor-core average error %.1f%% too high", avg)
	}
}

func TestTable8DistributedAccuracy(t *testing.T) {
	lab := quickLab(t)
	tb := Table8(lab)
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "AVERAGE" {
		t.Fatal("missing AVERAGE row")
	}
	if avg := parsePct(t, last[6]); avg > 40 {
		t.Fatalf("distributed average error %.1f%% too high", avg)
	}
	// All three strategies must appear.
	strategies := map[string]bool{}
	for _, r := range tb.Rows[:len(tb.Rows)-1] {
		strategies[r[3]] = true
	}
	for _, s := range []string{"Data Parallel", "Tensor Parallel", "Pipeline Parallel"} {
		if !strategies[s] {
			t.Fatalf("missing strategy %s", s)
		}
	}
}

func TestTable9Shape(t *testing.T) {
	lab := quickLab(t)
	tb := Table9(lab)
	if len(tb.Rows) != 5 {
		t.Fatalf("Table9 rows = %d, want 5 node counts", len(tb.Rows))
	}
	var totals []float64
	for _, r := range tb.Rows {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, v)
	}
	for i := 1; i < len(totals); i++ {
		if totals[i] <= totals[i-1] {
			t.Fatalf("multi-node latency must grow with nodes: %v", totals)
		}
	}
	// Paper shape: large jump between 4 and 384 nodes, mild growth after.
	if totals[2] < 1.5*totals[1] {
		t.Fatalf("expected InfiniBand jump at 384 nodes: %v", totals)
	}
	if (totals[4]-totals[2])/totals[2] > 0.3 {
		t.Fatalf("growth beyond 384 nodes should be mild: %v", totals)
	}
}

func TestPredictGraphWithFallsBack(t *testing.T) {
	lab := quickLab(t)
	// A graph containing an operator no baseline models (embedding) must
	// still produce a finite total.
	m := models.MustLookup("BERT-Large")
	ks := m.InferenceGraph(1).Kernels()
	for _, p := range lab.Engines() {
		v := PredictGraphWith(p, ks, gpu.MustLookup("V100"))
		if v <= 0 {
			t.Fatalf("%s produced non-positive graph latency", p.Name())
		}
	}
}

func TestMeasureGraphSkipsNetworkKernels(t *testing.T) {
	lab := quickLab(t)
	ks := []kernels.Kernel{
		kernels.NewLinear(128, 128, 128),
		kernels.Kernel{Op: kernels.OpAllReduce, B: 1 << 20, M: 1},
	}
	withNet := lab.MeasureGraph(ks, gpu.MustLookup("V100"))
	withoutNet := lab.MeasureGraph(ks[:1], gpu.MustLookup("V100"))
	if withNet != withoutNet {
		t.Fatal("network kernels must not contribute to device measurement")
	}
}

func TestAblationOrdering(t *testing.T) {
	lab := quickLab(t)
	tb := Ablation(lab)
	if len(tb.Rows) != 4 {
		t.Fatalf("ablation rows = %d, want 4 variants", len(tb.Rows))
	}
	overall := map[string]float64{}
	for _, r := range tb.Rows {
		overall[r[0]] = parsePct(t, r[6])
	}
	// The learned utilization must beat both knocked-out variants, which
	// is the paper's core argument.
	full := overall["NeuSight (full)"]
	if full >= overall["Fixed util (70%)"] {
		t.Fatalf("full NeuSight %.1f%% must beat fixed utilization %.1f%%",
			full, overall["Fixed util (70%)"])
	}
	if full >= overall["Roofline (util=1)"] {
		t.Fatalf("full NeuSight %.1f%% must beat the roofline bound %.1f%%",
			full, overall["Roofline (util=1)"])
	}
}
