package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/serve"
)

// TestMarkContactLifecycle walks one peer through the failure detector:
// alive -> suspect -> dead (evicted from the ring) -> readmitted on the
// first successful contact, with the transitions counted.
func TestMarkContactLifecycle(t *testing.T) {
	n := newTestNode(t, "h1:1", []string{"h2:1", "h3:1"})
	stateOf := func(addr string) MemberStatus {
		t.Helper()
		for _, ms := range n.MemberStates() {
			if ms.Addr == addr {
				return ms
			}
		}
		t.Fatalf("member %s missing from MemberStates", addr)
		return MemberStatus{}
	}

	if st := stateOf("h2:1"); st.State != MemberAlive {
		t.Fatalf("initial state = %s, want alive", st.State)
	}
	n.markContact("h2:1", false)
	if st := stateOf("h2:1"); st.State != MemberAlive || st.Strikes != 1 {
		t.Fatalf("after 1 strike = %+v, want alive with 1 strike", st)
	}
	n.markContact("h2:1", false)
	if st := stateOf("h2:1"); st.State != MemberSuspect {
		t.Fatalf("after %d strikes = %s, want suspect", DefaultSuspectAfter, st.State)
	}
	// Suspect members keep their ring points: nothing moved yet.
	if got := len(n.Members()); got != 3 {
		t.Fatalf("members = %d, want 3", got)
	}
	for i := DefaultSuspectAfter; i < DefaultDeadAfter; i++ {
		n.markContact("h2:1", false)
	}
	if st := stateOf("h2:1"); st.State != MemberDead {
		t.Fatalf("after %d strikes = %s, want dead", DefaultDeadAfter, st.State)
	}
	if !n.memberDead("h2:1") {
		t.Fatal("memberDead must report the dead member")
	}
	// Dead = evicted: no key may resolve to it, but it stays a member
	// (still probed, still listed).
	for i := 0; i < 50; i++ {
		primary, replica := n.Owners("alpha", fmt.Sprintf("gpu-%d", i))
		if primary == "h2:1" || replica == "h2:1" {
			t.Fatalf("key gpu-%d still assigned to dead member (%s, %s)", i, primary, replica)
		}
	}
	if len(n.Peers()) != 2 {
		t.Fatal("dead member must remain in the membership list")
	}
	if hs := n.HealthStats(); hs.Evictions != 1 {
		t.Fatalf("health stats = %+v, want 1 eviction", hs)
	}

	// One successful contact readmits: back on the ring, strikes cleared.
	n.markContact("h2:1", true)
	if st := stateOf("h2:1"); st.State != MemberAlive || st.Strikes != 0 {
		t.Fatalf("after readmission = %+v, want alive with 0 strikes", st)
	}
	owned := false
	for i := 0; i < 200 && !owned; i++ {
		primary, replica := n.Owners("alpha", fmt.Sprintf("gpu-%d", i))
		owned = primary == "h2:1" || replica == "h2:1"
	}
	if !owned {
		t.Fatal("readmitted member owns nothing — ring not rebuilt")
	}
	if hs := n.HealthStats(); hs.Readmissions != 1 {
		t.Fatalf("health stats = %+v, want 1 readmission", hs)
	}
}

// TestOwnersDistinct pins the replica invariant: every key's replica is a
// real, distinct member — and evicting the primary promotes exactly the
// replica (the consistent-hashing property failover correctness rests on).
func TestOwnersDistinct(t *testing.T) {
	n := newTestNode(t, "h1:1", []string{"h2:1", "h3:1"})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("gpu-%d", i)
		primary, replica := n.Owners("alpha", key)
		if primary == replica || replica == "" {
			t.Fatalf("key %s: owners (%s, %s) not distinct", key, primary, replica)
		}
	}
	// Eviction promotes the replica.
	key := "gpu-7"
	primary, replica := n.Owners("alpha", key)
	if primary == "h1:1" {
		key = "gpu-11" // pick a key with a peer primary
		primary, replica = n.Owners("alpha", key)
	}
	if primary != "h1:1" {
		for i := 0; i < DefaultDeadAfter; i++ {
			n.markContact(primary, false)
		}
		newPrimary, _ := n.Owners("alpha", key)
		if newPrimary != replica {
			t.Fatalf("evicting %s moved key to %s, want its replica %s", primary, newPrimary, replica)
		}
	}
	// A single-member ring has no replica.
	solo := newTestNode(t, "h1:1", nil)
	if p, r := solo.Owners("alpha", "gpu-1"); p != "h1:1" || r != "" {
		t.Fatalf("solo owners = (%s, %s), want (h1:1, \"\")", p, r)
	}
}

// TestAbsorbMembershipView: a gossiped membership view admits unknown
// members — but never resurrects a dead one (readmission takes a direct
// successful contact, not a rumor).
func TestAbsorbMembershipView(t *testing.T) {
	n := newTestNode(t, "h1:1", []string{"h2:1"})
	n.Absorb(GenMessage{Node: "h2:1", Members: map[string]MemberInfo{
		"h2:1": {Instance: 2}, "h3:1": {Instance: 3}, "h1:1": {Instance: 99},
	}})
	if !n.isMember("h3:1") {
		t.Fatal("gossiped member h3:1 not admitted")
	}
	// The new member's own views now pass the origin check.
	var drops int
	n.invalidate = func(string) int { drops++; return 1 }
	if got := n.Absorb(GenMessage{Node: "h3:1", Views: view("h3:1", 3, map[string]uint64{"alpha": 4})}); got != 1 {
		t.Fatalf("admitted member's view invalidated %d, want 1", got)
	}

	// Kill h3 locally; a rumor listing it must not readmit it.
	for i := 0; i < DefaultDeadAfter; i++ {
		n.markContact("h3:1", false)
	}
	n.Absorb(GenMessage{Node: "h2:1", Members: map[string]MemberInfo{"h3:1": {Instance: 3}}})
	if !n.memberDead("h3:1") {
		t.Fatal("gossiped rumor resurrected a dead member — readmission must need direct contact")
	}
	// Whereas a payload without a membership view keeps foreign origins out.
	before := n.GossipStats().ForeignOrigins
	n.Absorb(GenMessage{Node: "x", Views: view("evil:1", 1, map[string]uint64{"alpha": 9})})
	if n.isMember("evil:1") || n.GossipStats().ForeignOrigins != before+1 {
		t.Fatal("view-only payload must not grow the membership")
	}
}

// joinVia starts p's membership from one seed and runs the one gossip
// round a clustered `serve` runs before its listener opens: p pushes its
// view to the seed (which admits it) and absorbs the seed's. Both calls
// must reach the seed.
func joinVia(t *testing.T, p, seed *proc) *proc {
	t.Helper()
	p.node.SetPeers([]string{seed.addr})
	p.node.SyncNow()
	if gs := p.node.GossipStats(); gs.Pushes != 1 || gs.Polls != 1 {
		t.Fatalf("joining via %s: gossip %+v, want 1 push and 1 poll", seed.addr, gs)
	}
	return p
}

// TestJoinAndGossipSpread: a third process joins a two-member cluster by
// naming one seed and running one gossip round, and the membership
// spreads to the member the joiner never contacted through the seed's
// ordinary gossip round.
func TestJoinAndGossipSpread(t *testing.T) {
	a, b := twoProcs(t, SteerOff)
	c := joinVia(t, startProc(t, 3, SteerOff), a)

	// The joiner adopted the seed's membership...
	if !c.node.isMember(a.addr) || !c.node.isMember(b.addr) {
		t.Fatalf("joiner members = %v, want a and b", c.node.Members())
	}
	// ...the seed admitted the joiner...
	if !a.node.isMember(c.addr) {
		t.Fatalf("seed members = %v, want the joiner admitted", a.node.Members())
	}
	// ...and one push round from the seed reaches B, which the joiner
	// never contacted.
	a.node.SyncNow()
	if !b.node.isMember(c.addr) {
		t.Fatalf("B members = %v, want the joiner gossiped in", b.node.Members())
	}
	// All three rings agree on every key.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("gpu-%d", i)
		oa, _ := a.node.Owner("alpha", key)
		ob, _ := b.node.Owner("alpha", key)
		oc, _ := c.node.Owner("alpha", key)
		if oa != ob || ob != oc {
			t.Fatalf("key %s: owners diverge (%s, %s, %s)", key, oa, ob, oc)
		}
	}
}

// TestJoinWarmup is the acceptance scenario for start-up warmup: a member
// joining via a seed pulls the owners' recorded traces after its first
// gossip round and serves its first steered request as a cache hit — its
// backend engine is never evaluated for a key the warmup primed.
func TestJoinWarmup(t *testing.T) {
	a := startProc(t, 1, SteerProxy)
	rec, err := serve.NewTraceRecorder(t.TempDir() + "/trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	a.svc.SetTraceRecorder(rec)
	defer rec.Close()

	// A serves (and records) one kernel per registered GPU: the workload
	// profile the joiner will inherit.
	k := kernels.NewBMM(2, 64, 64, 64)
	for _, g := range gpu.All() {
		if _, err := predictKernel(a.svc, k, g); err != nil {
			t.Fatal(err)
		}
	}

	c := joinVia(t, startProc(t, 3, SteerProxy), a)
	warmed, skipped, err := c.node.WarmFromOwners(context.Background())
	if err != nil || skipped != 0 {
		t.Fatalf("warmup = (%d warmed, %d skipped, %v)", warmed, skipped, err)
	}
	if warmed == 0 {
		t.Fatal("join warmup primed nothing — the joiner owns some keys of every trace")
	}

	// Every warmed key must now be a cache hit: the engine saw exactly the
	// warmup evaluations, and a steered request adds none.
	calls := c.eng.calls.Load()
	if calls == 0 {
		t.Fatal("warmup never reached the joiner's engine")
	}
	g := gpuOwnedBy(t, c.node, c.addr)
	lat, code := postKernel(t, http.DefaultClient, "http://"+c.addr+"/v2/predict/kernel", g)
	if code != http.StatusOK || lat != 3 {
		t.Fatalf("first steered request = (%v, %d), want 3 from the joiner", lat, code)
	}
	if got := c.eng.calls.Load(); got != calls {
		t.Fatalf("first steered request evaluated the engine (%d -> %d calls), want a cache hit", calls, got)
	}
}

// TestWarmupSkipsUnreachedSeed: a member whose only seed hangs pays one
// push and one poll deadline for its start-up round, and the warmup after
// it skips the seed (suspect after those two strikes) instead of paying a
// third deadline for its trace.
func TestWarmupSkipsUnreachedSeed(t *testing.T) {
	const timeout = 400 * time.Millisecond
	seed := faultPeer(t, peerHangs, 0)
	c := startProcOpts(t, procOpts{lat: 3, mode: SteerProxy, reqTimeout: timeout})
	c.node.SetPeers([]string{seed})

	start := time.Now()
	c.node.SyncNow()
	warmed, skipped, err := c.node.WarmFromOwners(context.Background())
	elapsed := time.Since(start)
	if warmed != 0 || skipped != 1 || err != nil {
		t.Fatalf("warmup = (%d warmed, %d skipped, %v), want the hung seed skipped", warmed, skipped, err)
	}
	// Two deadlines, plus scheduling slack well short of a third.
	if elapsed > 2*timeout+timeout/2 {
		t.Fatalf("sync + warmup took %v with a hung seed, want at most two %v deadlines", elapsed, timeout)
	}
}

// TestControlPlaneAuth: with a token configured, every /v2/cluster/*
// request without the exact bearer token is a counted 401 — and the
// node's own outbound control-plane calls carry the token, so a token'd
// cluster still gossips, joins, and warms.
func TestControlPlaneAuth(t *testing.T) {
	const token = "s3cret"
	a := startProcOpts(t, procOpts{lat: 1, mode: SteerOff, token: token})
	b := startProcOpts(t, procOpts{lat: 2, mode: SteerOff, token: token})
	a.node.SetPeers([]string{b.addr})
	b.node.SetPeers([]string{a.addr})

	for _, path := range []string{RouteRing, RouteHealth, RouteGenerations, RouteTrace} {
		resp, err := http.Get("http://" + a.addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("tokenless GET %s = %d, want 401", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, "http://"+a.addr+RouteRing, nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token = %d, want 401", resp.StatusCode)
	}
	if hs := a.node.HealthStats(); hs.AuthRejected != 5 {
		t.Fatalf("health stats = %+v, want 5 auth rejections", hs)
	}

	// The right token gets through.
	req, _ = http.NewRequest(http.MethodGet, "http://"+a.addr+RouteRing, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correct token = %d, want 200", resp.StatusCode)
	}

	// Members' own traffic authenticates: a gossip round between the
	// token'd members must not strike anyone.
	a.node.SyncNow()
	if gs := a.node.GossipStats(); gs.PollFailures != 0 || gs.PushFailures != 0 {
		t.Fatalf("token'd gossip round failed: %+v", gs)
	}
	// And a token'd joiner can still join.
	c := joinVia(t, startProcOpts(t, procOpts{lat: 3, mode: SteerOff, token: token}), a)
	if !c.node.isMember(b.addr) || !a.node.isMember(c.addr) {
		t.Fatalf("token'd join: joiner members %v, seed members %v", c.node.Members(), a.node.Members())
	}
	// The liveness probe target stays tokenless: probes must work without
	// the control-plane secret.
	resp, err = http.Get("http://" + a.addr + healthzPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with token configured = %d, want 200 (liveness is not control plane)", resp.StatusCode)
	}
}

// TestHealthEndpointAndSweep: /v2/cluster/health reports per-member state
// driven by the background sweeper — a dead address is suspected then
// declared dead by probes alone, no traffic needed.
func TestHealthEndpointAndSweep(t *testing.T) {
	a := startProc(t, 1, SteerOff)
	a.node.SetPeers([]string{"127.0.0.1:1"})

	for i := 0; i < DefaultDeadAfter; i++ {
		a.node.ProbeNow()
	}
	resp, err := http.Get("http://" + a.addr + RouteHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Self != a.addr || hr.SuspectAfter != DefaultSuspectAfter || hr.DeadAfter != DefaultDeadAfter {
		t.Fatalf("health response = %+v, want self/threshold config echoed", hr)
	}
	if len(hr.Members) != 2 {
		t.Fatalf("health members = %+v, want self plus the dead peer", hr.Members)
	}
	var deadSeen bool
	for _, ms := range hr.Members {
		if ms.Addr == "127.0.0.1:1" && ms.State == MemberDead {
			deadSeen = true
		}
		if ms.Self && ms.State != MemberAlive {
			t.Fatalf("self state = %s, want alive", ms.State)
		}
	}
	if !deadSeen {
		t.Fatalf("health members = %+v, want the unreachable peer dead after %d probes", hr.Members, DefaultDeadAfter)
	}
	if hr.Health.Probes < uint64(DefaultDeadAfter) || hr.Health.ProbeFailures < uint64(DefaultDeadAfter) {
		t.Fatalf("health counters = %+v, want the probes counted", hr.Health)
	}
	// The ring endpoint shows the eviction too: Members shrinks to self,
	// MemberStates keeps the corpse visible.
	rresp, err := http.Get("http://" + a.addr + RouteRing)
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	var rr RingResponse
	if err := json.NewDecoder(rresp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Members) != 1 || rr.Members[0] != a.addr {
		t.Fatalf("ring members = %v, want only self after eviction", rr.Members)
	}
	if len(rr.MemberStates) != 2 {
		t.Fatalf("ring member_states = %+v, want both members listed", rr.MemberStates)
	}
}

// TestThreeMemberDriftTerminates is the loop-safety satellite: three
// members whose peer lists have all drifted (each knows a different
// subset) still terminate every request in at most one extra hop — the
// steered marker pins it — under concurrent fire, with the race detector
// watching.
func TestThreeMemberDriftTerminates(t *testing.T) {
	a := startProc(t, 1, SteerProxy)
	b := startProc(t, 2, SteerProxy)
	c := startProc(t, 3, SteerProxy)
	// Fully drifted views: a ring of one-way beliefs.
	a.node.SetPeers([]string{b.addr})
	b.node.SetPeers([]string{c.addr})
	c.node.SetPeers([]string{a.addr})

	procs := []*proc{a, b, c}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < 20; i++ {
				p := procs[(w+i)%3]
				g := gpu.All()[i%len(gpu.All())]
				resp, err := client.Post("http://"+p.addr+"/v2/predict/kernel", "application/json",
					strings.NewReader(kernelBody("alpha", g)))
				if err != nil {
					t.Errorf("drifted request via %s: %v", p.addr, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("drifted request via %s = %d, want 200", p.addr, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestKillMemberFailover is the kill-a-member acceptance scenario as a
// raced Go test: a three-member proxy cluster serves steered traffic, one
// member dies mid-traffic, and (1) no request 502s — its shards are
// served by replicas immediately, (2) the failure detector evicts it
// within a sweep or two, (3) restarting it at the same address readmits
// it and the ring heals. scripts/e2e_cluster.sh runs the same scenario
// against real processes with a real SIGKILL.
func TestKillMemberFailover(t *testing.T) {
	mk := func(lat float64, addr string) *proc {
		return startProcOpts(t, procOpts{lat: lat, mode: SteerProxy, addr: addr, sweep: 25 * time.Millisecond})
	}
	a, b, c := mk(1, ""), mk(2, ""), mk(3, "")
	wire := func() {
		a.node.SetPeers([]string{b.addr, c.addr})
		b.node.SetPeers([]string{a.addr, c.addr})
		c.node.SetPeers([]string{a.addr, b.addr})
	}
	wire()
	a.node.Start()
	t.Cleanup(a.node.Stop)

	engine, gB := keyOwnedBy(t, a.node, b.addr)
	if lat, code := postKernelEngine(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", engine, gB); code != 200 || lat != 2 {
		t.Fatalf("pre-kill steered = (%v, %d), want 2 from B", lat, code)
	}

	b.kill()

	// Mid-outage traffic: every request for B's shards must still answer
	// 200 — first via proxy fall-through, then (post-eviction) via the
	// promoted replica.
	deadline := time.Now().Add(10 * time.Second)
	evicted := false
	for !evicted {
		if time.Now().After(deadline) {
			t.Fatal("B never declared dead by the sweeper")
		}
		_, code := postKernelEngine(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", engine, gB)
		if code != http.StatusOK {
			t.Fatalf("mid-outage request = %d, want 200 via the replica, never a 502", code)
		}
		evicted = a.node.memberDead(b.addr)
		time.Sleep(10 * time.Millisecond)
	}
	if hs := a.node.HealthStats(); hs.Evictions != 1 {
		t.Fatalf("health stats = %+v, want 1 eviction", hs)
	}
	// Post-eviction the key routes to the replica directly: no more
	// per-request failed attempts.
	if owner, _ := a.node.Owner(engine, gB.Name); owner == b.addr {
		t.Fatal("dead member still owns its shard")
	}

	// Restart at the same address (a fresh process: new node, new
	// instance). The sweeper's next successful probe readmits it.
	b2 := mk(2, b.addr)
	b2.node.SetPeers([]string{a.addr, c.addr})
	deadline = time.Now().Add(10 * time.Second)
	for a.node.memberDead(b.addr) {
		if time.Now().After(deadline) {
			t.Fatal("restarted member never readmitted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if hs := a.node.HealthStats(); hs.Readmissions != 1 {
		t.Fatalf("health stats = %+v, want 1 readmission", hs)
	}
	// The ring heals: B owns its old shard again and steered traffic
	// reaches the restarted process.
	if owner, _ := a.node.Owner(engine, gB.Name); owner != b.addr {
		t.Fatalf("post-readmission owner = %s, want %s", owner, b.addr)
	}
	if lat, code := postKernelEngine(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", engine, gB); code != 200 || lat != 2 {
		t.Fatalf("post-restart steered = (%v, %d), want 2 from the restarted B", lat, code)
	}
}
