package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the declaration this program is held to.
// The bench reads names, units, directions and bounds from it rather than
// repeating them, so the file and the program cannot drift apart unseen —
// a declared metric the program does not produce fails the run.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot locates the checkout root from the working directory: `go run
// -C bench .` and `go test` run inside bench/, a built binary may be
// started from the root.
func findRoot() (string, error) {
	for _, dir := range []string{"..", "."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("BENCHMARK.json with bench/ beside it not found from the working directory; run from the repository root or from bench/")
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// selectMetrics returns the declared metrics' names in declared order, and
// fails when a declared metric was not produced, was produced in another
// unit, or a produced one was not declared.
func selectMetrics(declared []specMetric, got map[string]stat) ([]string, error) {
	names := make([]string, len(declared))
	seen := map[string]bool{}
	for i, m := range declared {
		s, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %s, which this run did not produce", m.Name)
		}
		if s.Unit != m.Unit {
			return nil, fmt.Errorf("%s is measured in %s, BENCHMARK.json declares %s", m.Name, s.Unit, m.Unit)
		}
		names[i], seen[m.Name] = m.Name, true
	}
	for name := range got {
		if !seen[name] {
			return nil, fmt.Errorf("this run produced %s, which BENCHMARK.json does not declare", name)
		}
	}
	return names, nil
}
