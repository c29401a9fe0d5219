package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of a comparison, per workload and end-to-end metric.
const (
	verdictBetter     = "better"     // B's median is better than A's by more than the bound
	verdictWithin     = "within"     // the medians are within the bound of each other
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // either side's slices spread wider than the bound and the two overlap: the pair cannot tell
)

// worseBy is how much worse b is than a as a share of a, positive when
// worse, given which direction is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges one metric of one workload. A regression of the median
// beyond the bound is worse whatever the spread; short of that, a pair
// whose own slices spread wider than the bound (between their quartiles)
// while those ranges overlap is reported as unresolved, not as unchanged.
func verdict(m specMetric, a, b stat) string {
	w := worseBy(m.Better, a.Value, b.Value)
	if w > m.Bound {
		return verdictWorse
	}
	spread := func(s stat) float64 {
		if s.Value == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Value
	}
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	if overlap && (spread(a) > m.Bound || spread(b) > m.Bound) {
		return verdictUnresolved
	}
	if w < -m.Bound {
		return verdictBetter
	}
	return verdictWithin
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Trace {
		return nil, fmt.Errorf("%s is a traced run: end-to-end metrics are only ever taken from the untraced run", path)
	}
	return &r, nil
}

// compareFiles prints one row per workload × end-to-end metric present in
// both files and fails when any row is worse.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [quartiles]\tB median [quartiles]\tchange\tbound\tverdict")
	worse, rows := 0, 0
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, okA := ra.Metrics[m.Name]
			sb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb)
			if v == verdictWorse {
				worse++
			}
			rows++
			change := 0.0
			if sa.Value != 0 {
				change = 100 * (sb.Value - sa.Value) / sa.Value
			}
			fmt.Fprintf(tw, "%s\t%s (%s, %s is better)\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				ra.Workload, m.Name, m.Unit, m.Better, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3, change, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		return errors.New("the two files share no workload and metric to compare")
	}
	if worse > 0 {
		return fmt.Errorf("%d of %d rows are worse than their bound allows", worse, rows)
	}
	return nil
}

// historyLine is one run in bench/history.jsonl: where it ran and every
// end-to-end median.
type historyLine struct {
	Fingerprint fingerprint                   `json:"fingerprint"`
	Medians     map[string]map[string]float64 `json:"medians"`
}

// appendHistory adds one line for rep to the append-only trajectory.
func appendHistory(path string, rep *report) error {
	line := historyLine{Fingerprint: rep.Fingerprint, Medians: map[string]map[string]float64{}}
	for _, r := range rep.Results {
		m := map[string]float64{}
		for name, s := range r.Metrics {
			m[name] = s.Value
		}
		line.Medians[r.Workload] = m
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
