package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/serve"
)

// ringKeys is how many engine names ringKey tries; ringKeyName names them.
const ringKeys = 64

func ringKeyName(i int) string { return fmt.Sprintf("key-%d", i) }

// ringKey searches the (engine name × registered GPU) key space, from n's
// view of the ring, for a key whose primary and replica satisfy want.
// Steering hashes whatever engine string a request carries, so the engine
// axis is free: where one pass over the GPU registry can miss for an
// unlucky draw of httptest ports, 64 × 12 keys cannot. Every proc serves
// the names tried (see startProcOpts), answering like its stub engine.
func ringKey(t *testing.T, n *Node, want func(primary, replica string) bool) (engine string, g gpu.Spec) {
	t.Helper()
	for i := 0; i < ringKeys; i++ {
		engine = ringKeyName(i)
		for _, g := range gpu.All() {
			if want(n.Owners(engine, g.Name)) {
				return engine, g
			}
		}
	}
	t.Fatalf("no (engine, GPU) key among %d satisfies the ring condition — ring degenerate", ringKeys*len(gpu.All()))
	return "", gpu.Spec{}
}

// gpuOwnedBy finds a registered GPU whose (alpha, GPU) key the given
// member owns, from n's view of the ring. The engine stays "alpha" so the
// fixtures' one registered engine answers; that is safe only with two
// members, where a pass over the GPUs misses about once in 20000 port
// draws. With three it misses a few times in 100: use keyOwnedBy.
func gpuOwnedBy(t *testing.T, n *Node, owner string) gpu.Spec {
	t.Helper()
	for _, g := range gpu.All() {
		if got, _ := n.Owner("alpha", g.Name); got == owner {
			return g
		}
	}
	t.Fatalf("no registered GPU hashes to member %s — ring degenerate", owner)
	return gpu.Spec{}
}

// keyOwnedBy finds an (engine, GPU) key the given member owns as primary,
// from n's view of the ring.
func keyOwnedBy(t *testing.T, n *Node, owner string) (engine string, g gpu.Spec) {
	t.Helper()
	return ringKey(t, n, func(primary, _ string) bool { return primary == owner })
}

// kernelBody builds a /v2/predict/kernel request for the (engine, g) key.
func kernelBody(engine string, g gpu.Spec) string {
	return fmt.Sprintf(`{"op":"bmm","b":2,"m":64,"k":64,"n":64,"gpu":%q,"engine":%q}`, g.Name, engine)
}

// postKernel POSTs a kernel prediction for (alpha, g) and decodes the
// latency.
func postKernel(t *testing.T, client *http.Client, target string, g gpu.Spec) (float64, int) {
	t.Helper()
	return postKernelEngine(t, client, target, "alpha", g)
}

// postKernelEngine is postKernel for any engine name.
func postKernelEngine(t *testing.T, client *http.Client, target, engine string, g gpu.Spec) (float64, int) {
	t.Helper()
	resp, err := client.Post(target, "application/json", strings.NewReader(kernelBody(engine, g)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		LatencyMs float64 `json:"latency_ms"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.LatencyMs, resp.StatusCode
}

// TestProxySteering: the non-owner forwards the request and relays the
// owner's answer.
func TestProxySteering(t *testing.T) {
	a, b := twoProcs(t, SteerProxy)
	gB := gpuOwnedBy(t, a.node, b.addr)

	lat, code := postKernel(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", gB)
	if code != http.StatusOK || lat != 2 {
		t.Fatalf("proxied = (%v, %d), want latency 2 from B", lat, code)
	}
	if a.eng.calls.Load() != 0 {
		t.Fatal("non-owner must not evaluate a proxied request")
	}
	st := a.node.SteerStats()
	if st.Steered != 1 || st.Proxied != 1 {
		t.Fatalf("A steering stats = %+v, want 1 steered/proxied", st)
	}
	// The owner saw a steered request it owns: not a mis-route.
	if bst := b.node.SteerStats(); bst.Misrouted != 0 {
		t.Fatalf("B steering stats = %+v, want 0 misrouted", bst)
	}
}

// TestLocallyOwnedNotSteered: requests for keys this process owns are
// served in place.
func TestLocallyOwnedNotSteered(t *testing.T) {
	a, _ := twoProcs(t, SteerProxy)
	gA := gpuOwnedBy(t, a.node, a.addr)
	lat, code := postKernel(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", gA)
	if code != http.StatusOK || lat != 1 {
		t.Fatalf("local key = (%v, %d), want latency 1 served by A", lat, code)
	}
	if st := a.node.SteerStats(); st.Steered != 0 {
		t.Fatalf("A steering stats = %+v, want nothing steered", st)
	}
}

// TestMisroutedServedLocally: a request that already carries the steered
// marker is served where it lands — counted as a ring disagreement, never
// bounced again.
func TestMisroutedServedLocally(t *testing.T) {
	a, b := twoProcs(t, SteerProxy)
	gB := gpuOwnedBy(t, a.node, b.addr)

	req, err := http.NewRequest(http.MethodPost, "http://"+a.addr+"/v2/predict/kernel",
		strings.NewReader(kernelBody("alpha", gB)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(steerHeader, b.addr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		LatencyMs float64 `json:"latency_ms"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || out.LatencyMs != 1 {
		t.Fatalf("misrouted = (%v, %d, %v), want latency 1 served locally by A", out.LatencyMs, resp.StatusCode, err)
	}
	st := a.node.SteerStats()
	if st.Misrouted != 1 || st.Steered != 0 {
		t.Fatalf("A steering stats = %+v, want 1 misrouted, 0 steered", st)
	}
}

// TestSteerOff: off mode serves everything locally, peers or not.
func TestSteerOff(t *testing.T) {
	a, b := twoProcs(t, SteerOff)
	gB := gpuOwnedBy(t, a.node, b.addr)
	lat, code := postKernel(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", gB)
	if code != http.StatusOK || lat != 1 {
		t.Fatalf("steer=off = (%v, %d), want latency 1 served locally", lat, code)
	}
}

// TestSteeringPassesBadBodiesThrough: requests steering cannot parse go
// to the local serving layer for its ordinary client errors.
func TestSteeringPassesBadBodiesThrough(t *testing.T) {
	a, _ := twoProcs(t, SteerProxy)
	resp, err := http.Post("http://"+a.addr+"/v2/predict/kernel", "application/json",
		strings.NewReader(`{"op":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400 from the serving layer", resp.StatusCode)
	}
	resp, err = http.Post("http://"+a.addr+"/v2/predict/kernel", "application/json",
		strings.NewReader(`{"op":"bmm","b":2,"m":64,"k":64,"n":64,"gpu":"NoSuchGPU"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown GPU = %d, want 400 from the serving layer", resp.StatusCode)
	}
}

// TestProxyOwnerUnreachableFailsOverToSelf: with one unreachable peer,
// every peer-owned key's replica is this node — so a proxy attempt that
// cannot reach the primary falls through to serving locally, counted,
// instead of handing the client a 502.
func TestProxyOwnerUnreachableFailsOverToSelf(t *testing.T) {
	a := startProc(t, 1, SteerProxy)
	// A peer that is not listening: port 1 on localhost.
	dead := "127.0.0.1:1"
	a.node.SetPeers([]string{dead})
	gDead := gpuOwnedBy(t, a.node, dead)
	lat, code := postKernel(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", gDead)
	if code != http.StatusOK || lat != 1 {
		t.Fatalf("unreachable owner = (%v, %d), want latency 1 served by the local replica", lat, code)
	}
	st := a.node.SteerStats()
	if st.FailedOver != 1 || st.ProxyFailures != 1 {
		t.Fatalf("A steering stats = %+v, want 1 failed_over and 1 proxy failure", st)
	}
	if st.RelayErrors != 0 {
		t.Fatalf("A steering stats = %+v, want 0 relay errors", st)
	}
}

// keyOwnedByNeither finds an (engine, GPU) key whose primary and replica
// are both on other members, from n's view of the ring. Its callers only
// steer the request — no member has to serve it — so the engine name is
// free and the search cannot come up empty.
func keyOwnedByNeither(t *testing.T, n *Node, self string) (engine string, g gpu.Spec) {
	t.Helper()
	return ringKey(t, n, func(primary, replica string) bool {
		return primary != self && replica != self && replica != ""
	})
}

// TestProxyBothOwnersDead: when the primary AND the replica are
// unreachable, the client finally sees the 502 — one retry, not an
// unbounded walk of the ring.
func TestProxyBothOwnersDead(t *testing.T) {
	a := startProc(t, 1, SteerProxy)
	a.node.SetPeers([]string{"127.0.0.1:1", "127.0.0.1:2"})
	engine, g := keyOwnedByNeither(t, a.node, a.addr)
	_, code := postKernelEngine(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", engine, g)
	if code != http.StatusBadGateway {
		t.Fatalf("both owners unreachable = %d, want 502", code)
	}
	st := a.node.SteerStats()
	if st.FailedOver != 1 {
		t.Fatalf("A steering stats = %+v, want 1 failed_over (exactly one retry)", st)
	}
	if st.ProxyFailures+st.ProxyTimeouts != 2 {
		t.Fatalf("A steering stats = %+v, want 2 failed attempts", st)
	}
}

// statsRequests reads the member's own request counter from /v2/stats.
func statsRequests(t *testing.T, addr string) uint64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsV2
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Requests
}

// TestProxyTimedOutHopIsServedTwice pins what failover does when the owner
// is slow, not dead: the steering member gives up on the hop at its
// per-attempt deadline and the replica answers, so the client gets exactly
// one 200 — but the owner had already admitted the request and finishes
// and counts it too. Failover is at-least-once, and the members' request
// counters may sum to more than the clients saw succeed; this is the whole
// of the client/server disagreement the deleted cluster load driver
// reported under CPU contention (see docs/OPERATIONS.md, Failure handling).
func TestProxyTimedOutHopIsServedTwice(t *testing.T) {
	mk := func() *proc {
		return startProcOpts(t, procOpts{lat: 1, mode: SteerProxy, reqTimeout: 250 * time.Millisecond})
	}
	steerer, owner, replica := mk(), mk(), mk()
	steerer.node.SetPeers([]string{owner.addr, replica.addr})
	owner.node.SetPeers([]string{steerer.addr, replica.addr})
	replica.node.SetPeers([]string{steerer.addr, owner.addr})
	engine, g := ringKey(t, steerer.node, func(primary, rep string) bool {
		return primary == owner.addr && rep == replica.addr
	})

	// The owner's engine holds its one request until the client has its
	// answer, so the hop times out however slow the machine is.
	entered, release := make(chan struct{}), make(chan struct{})
	owner.eng.lat.Store(2.0)
	owner.eng.hold.Store(func() {
		close(entered)
		<-release
	})
	replica.eng.lat.Store(3.0)

	lat, code := postKernelEngine(t, http.DefaultClient, "http://"+steerer.addr+"/v2/predict/kernel", engine, g)
	if code != http.StatusOK || lat != 3 {
		t.Fatalf("client saw (%v, %d), want one 200 with the replica's latency 3", lat, code)
	}
	select {
	case <-entered: // the owner admitted the request before the hop timed out
	case <-time.After(10 * time.Second):
		t.Fatal("the hop timed out before the owner admitted the request")
	}
	close(release)

	st := steerer.node.SteerStats()
	if st.Steered != 1 || st.FailedOver != 1 || st.ProxyTimeouts != 1 || st.ProxyFailures != 0 || st.Proxied != 1 {
		t.Fatalf("steering stats = %+v, want 1 steered, 1 proxy timeout, 1 failed_over, 1 relayed answer", st)
	}
	// The owner finishes the abandoned request on its own time; wait for
	// its counter, then check nobody else served anything.
	deadline := time.Now().Add(10 * time.Second)
	for statsRequests(t, owner.addr) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("owner never counted the request whose hop timed out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := statsRequests(t, replica.addr); got != 1 {
		t.Fatalf("replica requests = %d, want 1", got)
	}
	if got := statsRequests(t, steerer.addr); got != 0 {
		t.Fatalf("steering member requests = %d, want 0 (it only relayed)", got)
	}
}

// TestProxyToReplicaWhenPrimaryDead: once the failure detector declares
// a member dead, its keys go straight to the replica — the next distinct
// member on the ring — with no attempt at the corpse: no failover and no
// proxy failure is counted.
func TestProxyToReplicaWhenPrimaryDead(t *testing.T) {
	a := startProc(t, 1, SteerProxy)
	replica := startProc(t, 2, SteerProxy)
	dead := "127.0.0.1:1"
	a.node.SetPeers([]string{replica.addr, dead})
	engine, g := ringKey(t, a.node, func(primary, rep string) bool {
		return primary == dead && rep == replica.addr
	})
	for i := 0; i < DefaultDeadAfter; i++ {
		a.node.markContact(dead, false)
	}

	lat, code := postKernelEngine(t, http.DefaultClient, "http://"+a.addr+"/v2/predict/kernel", engine, g)
	if code != http.StatusOK || lat != 2 {
		t.Fatalf("dead primary = (%v, %d), want latency 2 from the replica", lat, code)
	}
	st := a.node.SteerStats()
	if st.Steered != 1 || st.Proxied != 1 || st.FailedOver != 0 || st.ProxyFailures+st.ProxyTimeouts != 0 {
		t.Fatalf("A steering stats = %+v, want 1 steered and proxied, no failover and no failed attempt", st)
	}
}

// TestRingEndpoint: /v2/cluster/ring exposes the membership and a full
// (engine, GPU) -> owner assignment both members agree on.
func TestRingEndpoint(t *testing.T) {
	a, b := twoProcs(t, SteerProxy)

	fetch := func(addr string) RingResponse {
		t.Helper()
		resp, err := http.Get("http://" + addr + RouteRing)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET ring = %d, want 200", resp.StatusCode)
		}
		var rr RingResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}

	ra, rb := fetch(a.addr), fetch(b.addr)
	if ra.Self != a.addr || ra.Mode != SteerProxy {
		t.Fatalf("ring self/mode = %s/%s, want %s/%s", ra.Self, ra.Mode, a.addr, SteerProxy)
	}
	if len(ra.Members) != 2 {
		t.Fatalf("members = %v, want both processes", ra.Members)
	}
	want := (1 + ringKeys) * len(gpu.All()) // alpha and the ringKey names
	if len(ra.Assignments) != want {
		t.Fatalf("assignments = %d, want %d (engines x GPUs)", len(ra.Assignments), want)
	}
	owners := map[string]string{}
	for _, as := range ra.Assignments {
		if as.Owner != a.addr && as.Owner != b.addr {
			t.Fatalf("assignment %+v names a non-member owner", as)
		}
		if as.Local != (as.Owner == a.addr) {
			t.Fatalf("assignment %+v: local flag disagrees with owner", as)
		}
		owners[as.Engine+"|"+as.GPU] = as.Owner
	}
	for _, as := range rb.Assignments {
		if owners[as.Engine+"|"+as.GPU] != as.Owner {
			t.Fatalf("A and B disagree on owner of %s|%s", as.Engine, as.GPU)
		}
	}
}

// TestControlHandlerServesOnlyClusterRoutes pins the -cluster-listen
// surface: control routes answer, the prediction API does not exist there.
func TestControlHandlerServesOnlyClusterRoutes(t *testing.T) {
	a, _ := twoProcs(t, SteerOff)
	h := a.node.ControlHandler()
	for path, want := range map[string]int{
		RouteRing:          http.StatusOK,
		RouteGenerations:   http.StatusOK,
		"/v2/predict/何か":   http.StatusNotFound,
		"/v1/predict/kern": http.StatusNotFound,
	} {
		req, _ := http.NewRequest(http.MethodGet, "http://x"+path, nil)
		rec := newRecorder()
		h.ServeHTTP(rec, req)
		if rec.code != want {
			t.Errorf("control %s = %d, want %d", path, rec.code, want)
		}
	}
}

// newRecorder is a minimal ResponseWriter capturing the status code.
type recorder struct {
	code   int
	header http.Header
	body   []byte
}

func newRecorder() *recorder { return &recorder{code: http.StatusOK, header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(c int)   { r.code = c }
func (r *recorder) Write(b []byte) (int, error) {
	r.body = append(r.body, b...)
	return len(b), nil
}

// TestClusterEndToEnd is the acceptance scenario: two peered serve
// processes with background gossip running — a retrain on A invalidates
// B's stale cached prediction within a gossip interval, and a request for
// a B-owned shard sent to A is steered to B.
func TestClusterEndToEnd(t *testing.T) {
	a, b := twoProcs(t, SteerProxy)
	a.node.Start()
	b.node.Start()
	t.Cleanup(a.node.Stop)
	t.Cleanup(b.node.Stop)

	// Steering: the request lands on A, is steered to B, and B answers.
	gB := gpuOwnedBy(t, a.node, b.addr)
	lat, code := postKernel(t, &http.Client{}, "http://"+a.addr+"/v2/predict/kernel", gB)
	if code != http.StatusOK || lat != 2 {
		t.Fatalf("steered request = (%v, %d), want B's latency 2", lat, code)
	}
	if st := a.node.SteerStats(); st.Proxied == 0 {
		t.Fatalf("A steering stats = %+v, want a proxied request", st)
	}

	// Gossip: B caches, the model drifts, A retrains — the background loop
	// must invalidate B without any explicit sync call.
	k := kernels.NewBMM(4, 128, 128, 128)
	if lat, err := predictKernel(b.svc, k, gB); err != nil || lat != 2 {
		t.Fatalf("B cold = (%v, %v)", lat, err)
	}
	b.eng.lat.Store(42.0)
	a.eng.gen.Store(1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if lat, _ := predictKernel(b.svc, k, gB); lat == 42 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("B still serving the stale forecast after %v of background gossip", 10*time.Second)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
