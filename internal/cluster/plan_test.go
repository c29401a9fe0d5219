package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// gatedRoofline holds every batch at a gate and reports the first one to
// arrive, so the kill-mid-job test can kill a member that provably holds
// dispatched batches it has not answered. A delay in place of the gate
// left the kill racing the victim finishing its batches (about 1 run in 30
// under -race: "victim's batches were not re-dispatched").
type gatedRoofline struct {
	predict.Engine
	p *planProc
}

func (g gatedRoofline) PredictKernels(ctx context.Context, reqs []predict.Request) []predict.Outcome {
	g.p.arriveOnce.Do(func() { close(g.p.arrived) })
	select {
	case <-g.p.gate:
	case <-ctx.Done():
	}
	return g.Engine.PredictKernels(ctx, reqs)
}

// planProc is one in-test cluster member with a planner wired to the
// cluster's fan-out dispatcher — the wiring `neusight serve -peers` does.
type planProc struct {
	addr string
	node *Node
	pm   *plan.Manager
	srv  *http.Server
	once sync.Once

	// Set on a gated member only (see gatedRoofline): gate is closed by
	// release to let batches through, arrived when the first one arrives.
	gate, arrived           chan struct{}
	arriveOnce, releaseOnce sync.Once
}

func (p *planProc) release() { p.releaseOnce.Do(func() { close(p.gate) }) }

// kill tears the member down abruptly; idempotent because the fault
// injection and the test cleanup may both reach the same member.
func (p *planProc) kill() {
	p.once.Do(func() {
		p.node.Stop()
		p.srv.Close()
	})
}

func startPlanProc(t *testing.T, gated bool) *planProc {
	t.Helper()
	p := &planProc{}
	reg := predict.NewRegistry()
	var eng predict.Engine = predict.NewRooflineEngine()
	if gated {
		p.gate, p.arrived = make(chan struct{}), make(chan struct{})
		t.Cleanup(p.release)
		eng = gatedRoofline{Engine: eng, p: p}
	}
	reg.MustRegister(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewMulti(reg, predict.EngineRoofline, serve.Config{CacheSize: 64})
	node, err := NewNode(Config{
		Self:           ln.Addr().String(),
		Steer:          SteerProxy,
		PollInterval:   50 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
		Registry:       reg,
		DefaultEngine:  predict.EngineRoofline,
		Invalidate:     svc.InvalidateEngine,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.suspectAfter, node.deadAfter = 1, 2
	pm, err := plan.NewManager("", func(name string) (predict.Engine, error) {
		if name == "" {
			name = predict.EngineRoofline
		}
		return reg.Get(name)
	}, plan.Options{BatchSize: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pm.SetDispatcher(node.PlanDispatcher())
	svc.SetPlanner(pm)
	srv := &http.Server{Handler: node.Handler(serve.NewHandler(svc))}
	go srv.Serve(ln)
	p.addr, p.node, p.pm, p.srv = ln.Addr().String(), node, pm, srv
	t.Cleanup(p.kill)
	return p
}

func startPlanCluster(t *testing.T, n int, gated bool) []*planProc {
	t.Helper()
	procs := make([]*planProc, n)
	for i := range procs {
		procs[i] = startPlanProc(t, gated)
	}
	for i, p := range procs {
		peers := make([]string, 0, n-1)
		for j, o := range procs {
			if j != i {
				peers = append(peers, o.addr)
			}
		}
		p.node.SetPeers(peers)
		p.node.Start()
	}
	return procs
}

func fanoutSpec() plan.Spec {
	return plan.Spec{
		Model:      "BERT-Large",
		GPUs:       []string{"T4", "L4", "V100", "P100", "A100-80GB", "H100"},
		Strategies: []string{plan.StrategyDP},
		FleetSizes: []int{1, 2},
		Seed:       7,
	}
}

func submitPlan(t *testing.T, addr string, spec plan.Spec) plan.Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v2/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st plan.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	return st
}

func pollPlan(t *testing.T, addr, id string) plan.Status {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v2/plan/" + id + "?full=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st plan.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d: %+v", resp.StatusCode, st)
	}
	return st
}

func waitPlanTerminal(t *testing.T, addr, id string) plan.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := pollPlan(t, addr, id)
		if st.State != plan.StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running: %d/%d", id, st.Evaluated, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlanFansOutAcrossCluster submits a plan to one member of a
// 3-member cluster over real HTTP and verifies the configuration batches
// spread across the shard owners: the job completes with every cell
// evaluated exactly once, a nonzero share of them on peers, and the
// peers' served-cell counters accounting for exactly the remote share.
func TestPlanFansOutAcrossCluster(t *testing.T) {
	procs := startPlanCluster(t, 3, false)
	a := procs[0]
	st := submitPlan(t, a.addr, fanoutSpec())
	final := waitPlanTerminal(t, a.addr, st.ID)
	if final.State != plan.StateDone || final.Evaluated != final.Total {
		t.Fatalf("final %+v, want done with all %d cells", final, final.Total)
	}
	if len(final.Ranking) != final.Total {
		t.Fatalf("ranking has %d cells, want %d", len(final.Ranking), final.Total)
	}
	seen := map[int]bool{}
	for _, r := range final.Ranking {
		if seen[r.Index] {
			t.Fatalf("cell %d ranked twice", r.Index)
		}
		seen[r.Index] = true
		if r.Error != "" {
			t.Fatalf("cell %d errored: %s", r.Index, r.Error)
		}
	}
	if final.RemoteCells == 0 {
		t.Fatal("no cell evaluated on a peer — fan-out did not happen")
	}
	var served uint64
	for _, p := range procs[1:] {
		served += p.node.planEvalCells.Load()
	}
	if served != uint64(final.RemoteCells) {
		t.Fatalf("peers served %d cells, job credits %d", served, final.RemoteCells)
	}
}

// TestPlanSurvivesKilledMember kills one shard owner mid-job: its pending
// batches must be re-dispatched to the survivors and the job must still
// complete with every cell evaluated exactly once — no lost cells, no
// duplicates.
func TestPlanSurvivesKilledMember(t *testing.T) {
	spec := fanoutSpec()
	norm := spec
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	// Pick the peer owning the most cells as the victim, so the kill is
	// guaranteed to strand dispatched batches. The ring hashes the members'
	// random ports, and about one cluster in a hundred gives the receiving
	// member every cell: start another.
	var procs []*planProc
	victim := ""
	for attempt := 0; victim == "" && attempt < 5; attempt++ {
		procs = startPlanCluster(t, 3, true)
		d := procs[0].node.PlanDispatcher()
		owned := map[string]int{}
		for _, cfg := range plan.Expand(norm) {
			if addr := d.Assign(predict.EngineRoofline, cfg); addr != "" {
				owned[addr]++
			}
		}
		for addr, n := range owned {
			if victim == "" || n > owned[victim] {
				victim = addr
			}
		}
	}
	if victim == "" {
		t.Fatal("ring assigned no cells to peers in 5 clusters")
	}
	a := procs[0]

	// The survivors evaluate freely; the victim holds every batch it is
	// sent until after it has been killed, abruptly, with at least one in
	// hand.
	var doomed *planProc
	for _, p := range procs {
		if p.addr == victim {
			doomed = p
		} else {
			p.release()
		}
	}
	st := submitPlan(t, a.addr, spec)
	select {
	case <-doomed.arrived:
	case <-time.After(30 * time.Second):
		t.Fatalf("no batch reached the victim: %+v", pollPlan(t, a.addr, st.ID))
	}
	doomed.kill()
	doomed.release()

	final := waitPlanTerminal(t, a.addr, st.ID)
	if final.State != plan.StateDone || final.Evaluated != final.Total {
		t.Fatalf("final %+v, want done with all %d cells despite the kill", final, final.Total)
	}
	seen := map[int]bool{}
	for _, r := range final.Ranking {
		if seen[r.Index] {
			t.Fatalf("cell %d ranked twice", r.Index)
		}
		seen[r.Index] = true
	}
	if len(seen) != final.Total {
		t.Fatalf("%d distinct cells, want %d", len(seen), final.Total)
	}
	if final.RedispatchedBatches == 0 {
		t.Fatal("victim's batches were not re-dispatched")
	}
}
