// Command bench is the repository's benchmark: seven workloads on the
// learned (neusight) engine, end-to-end metrics from an untraced run, and a
// layer budget from a separate traced run. BENCHMARK.json at the repository
// root declares what it reports; README.md in this directory says what the
// numbers mean and how to compare two commits with them.
//
//	go run -C bench .                      every workload, untraced
//	go run -C bench . -trace 1             every workload, traced (per-layer metrics, span files)
//	go run -C bench . -workload serve_graphs -seed 11
//	go run -C bench . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == roleServer {
		if err := serverMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench server child:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 7, "workload seed: fixes every pool, order and arrival schedule; the program under test sees only the generated requests")
	only := fs.String("workload", "", "run only this workload (default: all, in order)")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json); both sides of a comparison must use the same")
	trace := fs.Int("trace", 0, "1: the separate traced run — per-layer metrics and out/trace.<workload>.jsonl, no end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files, got %d arguments", fs.NArg())
		}
		return compareFiles(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds > 0 and -trace 0 or 1")
	}

	selected := workloads
	if *only != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *only {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", *only)
		}
	}
	e, err := newEnv(root, options{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setupRuns})
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.tmp)
	report, err := e.run(spec, selected)
	if err != nil {
		return err
	}
	name := "result.json"
	if e.trace {
		name = "result.trace.json"
	}
	if err := writeJSON(filepath.Join(e.out, name), report); err != nil {
		return err
	}
	if len(selected) == len(workloads) && !e.trace {
		if err := appendHistory(filepath.Join(root, "bench", "history.jsonl"), report); err != nil {
			return err
		}
	}
	// One workload was asked for: end with its result on one line, the
	// form a harness reads.
	if len(report.Results) == 1 {
		return json.NewEncoder(os.Stdout).Encode(report.Results[0].line())
	}
	return nil
}

func newEnv(root string, opts options) (*env, error) {
	e := &env{options: opts, nproc: runtime.NumCPU(), root: root, out: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.out, "tmp-")
	if err != nil {
		return nil, err
	}
	// The child is started with these paths from another working
	// directory only if they are absolute.
	e.tmp, err = filepath.Abs(tmp)
	return e, err
}

// report is the content of out/result.json.
type report struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Trace       bool        `json:"trace"`
	Results     []*result   `json:"results"`
}

// run measures the selected workloads in order and prints each as it ends.
// The first workload that fails a self-check ends the run with an error
// naming the workload and the metric.
func (e *env) run(spec *benchSpec, selected []workload) (*report, error) {
	declared := spec.EndToEnd
	measure := e.runWorkload
	if e.trace {
		declared, measure = spec.PerLayer, e.traceWorkload
	}
	rep := &report{Trace: e.trace}
	for _, w := range selected {
		fmt.Printf("== %s (seed %d, %gs%s)\n", w.name, e.seed, e.seconds, map[bool]string{true: ", traced"}[e.trace])
		res, err := measure(w)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		names, err := selectMetrics(declared, res.Metrics)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		fmt.Printf("   attempted %d, succeeded %d, failed %d\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
		for _, n := range names {
			s := res.Metrics[n]
			if e.trace {
				fmt.Printf("   %-34s %14.6g %s\n", n, s.Value, s.Unit)
				continue
			}
			fmt.Printf("   %-14s %12.6g %-5s [median of %d slices; quartiles %.6g–%.6g, min %.6g, max %.6g; %d samples]\n",
				n, s.Value, s.Unit, s.Slices, s.Q1, s.Q3, s.Min, s.Max, s.Samples)
		}
		if s, ok := res.Raw["host_speed"]; ok {
			fmt.Printf("   times above are at the reference speed; the host ran at %.4g of it [quartiles %.4g–%.4g, min %.4g, max %.4g over %d slices]\n",
				s.Value, s.Q1, s.Q3, s.Min, s.Max, s.Slices)
			fmt.Printf("   as the clock read: setup_s %.6g s, ops_per_s %.6g 1/s, p90_ms %.6g ms, cpu_ms_per_op %.6g ms\n",
				res.Raw["setup_s"].Value, res.Raw["ops_per_s"].Value, res.Raw["p90_ms"].Value, res.Raw["cpu_ms_per_op"].Value)
		}
		rep.Results = append(rep.Results, res)
	}
	rep.Fingerprint = e.fingerprint()
	return rep, nil
}

// line is the one-line form of a result: exactly the keys correct,
// attempted, failed and metrics, each metric as value and unit.
func (r *result) line() any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]vu{}
	for name, s := range r.Metrics {
		metrics[name] = vu{s.Value, s.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
