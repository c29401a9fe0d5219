package report

import (
	"math"
	"strings"
	"testing"

	"neusight/internal/graph"
	"neusight/internal/kernels"
)

func testGraph() *graph.Graph {
	g := graph.New("t")
	a := g.Add(kernels.NewLinear(512, 512, 512))
	b := g.Add(kernels.NewElementwise(kernels.OpEWGELU, 512, 512), a)
	g.Add(kernels.NewLinear(512, 512, 512), b)                       // same label as node a
	g.Add(kernels.Kernel{Op: kernels.OpAllReduce, B: 1024, M: 1}, b) // must be excluded
	return g
}

func unitLat(k kernels.Kernel) float64 {
	if k.Category() == kernels.CatLinear {
		return 10
	}
	return 5
}

func TestAnalyzeTotalsAndShares(t *testing.T) {
	b := Analyze(testGraph(), unitLat, 10)
	if b.TotalMs != 25 {
		t.Fatalf("total = %v, want 25 (network excluded)", b.TotalMs)
	}
	if b.ByCategory[0].Category != kernels.CatLinear || math.Abs(b.ByCategory[0].Percent-80) > 1e-9 {
		t.Fatalf("top category = %+v, want Linear at 80%%", b.ByCategory[0])
	}
	sum := 0.0
	for _, c := range b.ByCategory {
		sum += c.Percent
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestAnalyzeAggregatesRepeatedKernels(t *testing.T) {
	b := Analyze(testGraph(), unitLat, 10)
	if b.TopKernels[0].Count != 2 || b.TopKernels[0].TotalMs != 20 {
		t.Fatalf("top kernel = %+v, want the doubled linear", b.TopKernels[0])
	}
}

func TestAnalyzeTopNTruncation(t *testing.T) {
	b := Analyze(testGraph(), unitLat, 1)
	if len(b.TopKernels) != 1 {
		t.Fatalf("topN ignored: %d entries", len(b.TopKernels))
	}
}

func TestRenderContainsSections(t *testing.T) {
	out := Analyze(testGraph(), unitLat, 5).Render()
	for _, want := range []string{"total predicted latency", "by operator category", "top kernels", "FC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	b := Analyze(graph.New("empty"), unitLat, 5)
	if b.TotalMs != 0 || len(b.ByCategory) != 0 {
		t.Fatalf("empty graph breakdown = %+v", b)
	}
	if !strings.Contains(b.Render(), "0.0 ms") {
		t.Fatal("render of empty breakdown should still show the total")
	}
}
