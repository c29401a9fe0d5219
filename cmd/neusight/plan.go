package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// planResolver maps a plan spec's engine name to the registry's engine,
// defaulting the empty name — the resolve hook plan.NewManager needs.
// Shared by serve, loadgen's self targets, and the plan command itself.
func planResolver(reg *predict.Registry, def string) func(string) (predict.Engine, error) {
	return func(name string) (predict.Engine, error) {
		if name == "" {
			name = def
		}
		return reg.Get(name)
	}
}

// planCmd drives the /v2/plan capacity-planning API: it submits a what-if
// sweep (model × candidate GPUs × parallelism strategies × fleet sizes)
// and polls the async job to completion, printing the
// throughput-per-cost ranking. -poll/-cancel/-resume operate on an
// existing job instead of submitting. The target is an external service
// (-target URL) or an in-process one (-self roofline|quick, optionally
// -self-cluster N to fan the evaluation across N cluster members) so a
// full planning round needs no background process management — which is
// how scripts/plan_e2e.sh uses it.
func planCmd(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	target := fs.String("target", "", "base URL of the planning service (e.g. http://127.0.0.1:8080)")
	self := fs.String("self", "", "boot an in-process target instead of -target: roofline (analytical, instant) or quick (trains the reduced neusight predictor first)")
	selfCluster := fs.Int("self-cluster", 0, "boot this many in-process cluster members as the target and fan the sweep across them (needs -self)")

	pollID := fs.String("poll", "", "poll this job id once instead of submitting (with -wait: until terminal)")
	cancelID := fs.String("cancel", "", "cancel this job id instead of submitting")
	resumeID := fs.String("resume", "", "resume this cancelled job id instead of submitting")

	model := fs.String("model", "BERT-Large", "workload to plan capacity for (see `neusight list-models`)")
	traffic := fs.Float64("traffic", 0, "offered traffic to satisfy, requests/s (0 = rank by throughput-per-cost alone)")
	engine := fs.String("engine", "", "prediction engine pricing the sweep (default: the target's default engine)")
	gpus := fs.String("gpus", "A100-80GB,H100,L4", "candidate GPUs, comma-separated")
	strategies := fs.String("strategies", "", "candidate parallelism strategies, comma-separated dp/tp/pp (default: all three)")
	fleets := fs.String("fleets", "", "candidate fleet sizes (servers), comma-separated (default: 1,2,4)")
	gpusPerServer := fs.Int("gpus-per-server", 0, "GPUs per server in every candidate (default 4)")
	globalBatch := fs.Int("global-batch", 0, "global batch size per iteration (default max(8, gpus-per-server))")
	training := fs.Bool("training", false, "plan a training fleet (adds backward pass and gradient all-reduce)")
	microBatches := fs.Int("micro-batches", 0, "pipeline micro-batches (default min(4, global-batch))")
	seed := fs.Int64("seed", 1, "shuffle seed for the evaluation order (fixed seed = reproducible checkpoint order)")

	wait := fs.Bool("wait", true, "poll the submitted job until it is terminal")
	interval := fs.Duration("interval", 200*time.Millisecond, "poll cadence while waiting")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up waiting after this long (the job keeps running server-side)")
	top := fs.Int("top", 10, "print this many ranking rows (0 = all)")
	out := fs.String("out", "", "also write the final job status JSON (full ranking) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	actions := 0
	for _, id := range []string{*pollID, *cancelID, *resumeID} {
		if id != "" {
			actions++
		}
	}
	if actions > 1 {
		return fmt.Errorf("plan: -poll, -cancel, and -resume are mutually exclusive")
	}
	if *selfCluster != 0 && *self == "" {
		return fmt.Errorf("plan: -self-cluster needs -self roofline|quick for the engine mode")
	}
	if (*self != "") == (*target != "") {
		return fmt.Errorf("plan: pass exactly one of -target or -self")
	}
	if *self != "" && actions > 0 {
		return fmt.Errorf("plan: -poll/-cancel/-resume need -target (an in-process -self target dies with this command)")
	}

	base := *target
	if *self != "" {
		members := max(*selfCluster, 1)
		stop, seeds, err := startSelfCluster(*self, members, serve.Config{CacheSize: serve.DefaultCacheSize})
		if err != nil {
			return err
		}
		defer stop()
		base = seeds[0]
		if members > 1 {
			fmt.Fprintf(os.Stderr, "plan: %d-member self-cluster up, submitting to %s\n", members, base)
		}
	}
	base = strings.TrimRight(base, "/")

	switch {
	case *cancelID != "":
		st, err := planRequest(http.MethodDelete, base+"/v2/plan/"+*cancelID, nil)
		if err != nil {
			return err
		}
		return printPlanStatus(st, *top, *out)
	case *resumeID != "":
		st, err := planRequest(http.MethodPost, base+"/v2/plan/"+*resumeID, nil)
		if err != nil {
			return err
		}
		if *wait {
			return planWait(base, st.ID, *interval, *timeout, *top, *out)
		}
		return printPlanStatus(st, *top, *out)
	case *pollID != "":
		if *wait {
			return planWait(base, *pollID, *interval, *timeout, *top, *out)
		}
		st, err := planRequest(http.MethodGet, base+"/v2/plan/"+*pollID+"?full=1", nil)
		if err != nil {
			return err
		}
		return printPlanStatus(st, *top, *out)
	}

	spec := plan.Spec{
		Model:         *model,
		TrafficRPS:    *traffic,
		Engine:        *engine,
		GPUs:          splitPeers(*gpus),
		Strategies:    splitPeers(*strategies),
		GPUsPerServer: *gpusPerServer,
		GlobalBatch:   *globalBatch,
		Training:      *training,
		MicroBatches:  *microBatches,
		Seed:          *seed,
	}
	for _, f := range splitPeers(*fleets) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("plan: fleet size %q is not an integer", f)
		}
		spec.FleetSizes = append(spec.FleetSizes, n)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	st, err := planRequest(http.MethodPost, base+"/v2/plan", body)
	if err != nil {
		return err
	}
	fmt.Printf("plan: job %s submitted — %d configurations\n", st.ID, st.Total)
	if !*wait {
		return printPlanStatus(st, *top, *out)
	}
	return planWait(base, st.ID, *interval, *timeout, *top, *out)
}

// planWait polls one job until it leaves the running state, then prints
// its full ranking.
func planWait(base, id string, interval, timeout time.Duration, top int, out string) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := planRequest(http.MethodGet, base+"/v2/plan/"+id+"?full=1", nil)
		if err != nil {
			return err
		}
		if st.State != plan.StateRunning {
			return printPlanStatus(st, top, out)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("plan: job %s still %s after %v (%d/%d evaluated); it keeps running — poll again with `neusight plan -target %s -poll %s`",
				id, st.State, timeout, st.Evaluated, st.Total, base, id)
		}
		time.Sleep(interval)
	}
}

// planRequest performs one /v2/plan API call and decodes the job status,
// surfacing the API's error body on non-2xx.
func planRequest(method, url string, body []byte) (plan.Status, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return plan.Status{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return plan.Status{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return plan.Status{}, err
	}
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return plan.Status{}, fmt.Errorf("plan: %s %s: %s (HTTP %d)", method, url, apiErr.Error, resp.StatusCode)
		}
		return plan.Status{}, fmt.Errorf("plan: %s %s: HTTP %d", method, url, resp.StatusCode)
	}
	var st plan.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return plan.Status{}, fmt.Errorf("plan: decoding response: %w", err)
	}
	return st, nil
}

// printPlanStatus renders a job's summary and ranking for humans and,
// when out is set, writes the machine-readable status JSON alongside.
func printPlanStatus(st plan.Status, top int, out string) error {
	fmt.Printf("job %s: %s — %d/%d evaluated in %.1fs (%.0f configs/s)\n",
		st.ID, st.State, st.Evaluated, st.Total, st.ElapsedSec, st.ConfigsPerSec)
	if st.RemoteCells > 0 || st.RedispatchedBatches > 0 {
		fmt.Printf("cluster fan-out: %d cells evaluated by peers, %d batches re-dispatched after owner failure\n",
			st.RemoteCells, st.RedispatchedBatches)
	}
	if st.Error != "" {
		fmt.Printf("error: %s\n", st.Error)
	}
	ranking := st.Ranking
	if top > 0 && len(ranking) > top {
		ranking = ranking[:top]
	}
	if len(ranking) > 0 {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "RANK\tGPU\tSTRATEGY\tFLEET\tITER MS\tTHROUGHPUT RPS\tUSD/H\tRPS/USD\tMEETS\tFITS\tERROR")
		for i, r := range ranking {
			meets, fits := "-", "-"
			if r.MeetsTraffic {
				meets = "yes"
			}
			if r.FitsMemory {
				fits = "yes"
			}
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%.2f\t%.1f\t%.2f\t%.2f\t%s\t%s\t%s\n",
				i+1, r.GPU, r.Strategy, r.Fleet, r.IterationMs, r.ThroughputRPS,
				r.CostPerHour, r.ThroughputPerCost, meets, fits, r.Error)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("full status written to %s\n", out)
	}
	return nil
}
