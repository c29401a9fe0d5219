// Command neusight is the CLI front end of the framework: it lists the
// device and workload inventories and the prediction-engine registry,
// trains a predictor from a dataset, and forecasts model latencies on any
// registered GPU with any registered engine.
//
// Usage:
//
//	neusight list-gpus
//	neusight list-models
//	neusight engines
//	neusight train   -data data.csv -out model.json -tiles tiles.json
//	neusight predict -model model.json -tiles tiles.json \
//	                 -workload GPT3-XL -gpu H100 -batch 2 [-train] [-fused]
//	                 [-engine neusight]
//	neusight quick   -workload GPT3-XL -gpu H100 -batch 2 [-engine roofline]
//	neusight serve   -addr :8080 [-model model.json -tiles tiles.json | -quick | -engines roofline,gpusim]
//	                 [-queue 1024] [-warmup trace.jsonl] [-trace-record trace.jsonl]
//	                 [-trace-compact 5] [-peers host2:8080,host3:8080]
//	                 [-join host2:8080] [-steer proxy|off]
//	                 [-advertise host1:8080] [-cluster-listen :9090]
//	                 [-cluster-token secret] [-health-interval 1s]
//	                 [-observe] [-drift-threshold 0.25]
//	neusight loadgen (-target http://host:8080 | -self roofline) \
//	                 -rate 500 -duration 10s \
//	                 [-arrival poisson|bursty -burst-on 20ms -burst-off 80ms]
//	                 [-mix kernel=0.7,batch=0.2,graph=0.1 -models BERT-Large -gpus H100,V100]
//	                 [-trace trace.jsonl] [-out report.json]
//	neusight plan    (-target http://host:8080 | -self roofline [-self-cluster 3]) \
//	                 -model GPT3-XL -gpus A100-80GB,H100 -traffic 500 [-training]
//	                 [-poll id | -cancel id | -resume id] [-out plan.json]
//
// "quick" trains a reduced predictor in-process (no files needed) — the
// fastest way to get a forecast. "serve" exposes the engine registry as a
// concurrent HTTP JSON API (/v2 selects an engine per request) with
// prediction caching, request coalescing and a queue bound (-queue) past
// which it answers 503, and -warmup / -trace-record persist the workload
// profile across restarts. -peers forms a cluster with other serve
// processes: engine-generation changes gossip between members so a
// retrain anywhere invalidates every member's stale cache, and requests
// are proxied to the member owning their (engine, GPU) key; -join grows
// a running cluster by announcing this process to any existing member.
// "loadgen" offers a service (or one it boots in-process via -self)
// open-loop Poisson or bursty traffic at a fixed rate and reports latency
// percentiles, outcomes and the server's own /v2/stats delta. "plan"
// submits a what-if capacity sweep to a service's /v2/plan API — every
// (GPU, parallelism strategy, fleet size) candidate priced through the
// prediction stack and ranked by throughput-per-cost — and polls the
// resumable async job to completion.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"neusight/internal/gpu"
	"neusight/internal/models"
	"neusight/internal/predict"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list-gpus":
		err = listGPUs()
	case "list-models":
		err = listModels()
	case "engines":
		err = listEngines()
	case "train":
		err = train(os.Args[2:])
	case "predict":
		err = predictCmd(os.Args[2:])
	case "quick":
		err = quick(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "loadgen":
		err = loadgenCmd(os.Args[2:])
	case "plan":
		err = planCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "neusight: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "neusight: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: neusight <command> [flags]

commands:
  list-gpus     print the device registry (paper Table 4)
  list-models   print the workload zoo (paper Table 5)
  engines       print the prediction-engine registry
  train         train a predictor from a profiled dataset CSV
  predict       forecast a workload with a saved predictor (-engine picks another engine)
  quick         train a reduced predictor in-process and forecast
  serve         run the concurrent multi-engine HTTP prediction service
  loadgen       offer fixed-rate open-loop load to a service and report what came back
  plan          submit/poll/cancel what-if capacity sweeps (/v2/plan) against a service or -self`)
}

func listGPUs() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tVENDOR\tYEAR\tPEAK TFLOPS\tMEM GB\tMEM BW GB/s\tSMs\tL2 MB")
	for _, g := range gpu.All() {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.1f\t%.0f\t%.0f\t%d\t%.0f\n",
			g.Name, g.Vendor, g.Year, g.PeakFLOPS, g.MemoryGB, g.MemoryBWGBs, g.SMs, g.L2CacheMB)
	}
	return w.Flush()
}

func listModels() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tYEAR\tPARAMS\tLAYERS\tHEADS\tHIDDEN\tSEQ LEN\tOOD DIMS")
	for _, c := range models.Table5() {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%v\n",
			c.Name, c.Year, c.ParamsDesc, c.Layers, c.Heads, c.Hidden, c.SeqLen, c.HasOODDims())
	}
	return w.Flush()
}

// listEngines builds the default engine registry (untrained — construction
// is cheap, training is not) and prints it alongside the catalog metadata.
func listEngines() error {
	reg := untrainedRegistry()
	catalog := map[string]predict.Info{}
	for _, info := range predict.Catalog() {
		catalog[info.Name] = info
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tSOURCE\tBATCH\tTRAINABLE\tDESCRIPTION")
	for _, eng := range reg.Engines() {
		name := eng.Name()
		info := catalog[name]
		native := "sequential"
		if predict.NativeBatch(eng) {
			native = "native"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%v\t%s\n", name, info.Source, native, info.Trainable, info.Description)
	}
	return w.Flush()
}
