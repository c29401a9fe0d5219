package cluster

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// proc is one in-test "serve process": a full serving stack (engine
// registry, Service, cluster Node, HTTP server on a real listener) — what
// `neusight serve -peers ...` assembles in production.
type proc struct {
	addr string
	svc  *serve.Service
	node *Node
	eng  *stubEngine
	srv  *http.Server
}

// procOpts tunes startProcOpts beyond the defaults startProc picks.
type procOpts struct {
	lat   float64
	mode  string
	addr  string        // "" = any free port
	token string        // control-plane bearer token
	sweep time.Duration // health-sweep cadence (0 = package default)
	// reqTimeout is the per-attempt deadline of outbound cluster requests,
	// proxy hops included (0 = package default).
	reqTimeout time.Duration
}

// startProc boots a process whose stub engine "alpha" answers lat, serving
// the cluster-wrapped API on a real TCP listener. Peers are wired
// afterwards via SetPeers (addresses exist only once listeners are up).
// Beside "alpha" the process serves every engine name ringKey tries, each
// tracking no generation and answering through the stub, so a key found
// on the ring once the listeners are up is already served.
func startProc(t *testing.T, lat float64, mode string) *proc {
	return startProcOpts(t, procOpts{lat: lat, mode: mode})
}

// startProcOpts is startProc with knobs: a fixed listen address (how the
// kill-a-member test restarts a process at the same identity), a
// control-plane token, and a health-sweep cadence.
func startProcOpts(t *testing.T, o procOpts) *proc {
	t.Helper()
	addr := o.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	reg, eng := stubRegistry(o.lat)
	for i := 0; i < ringKeys; i++ {
		reg.MustRegister(predict.NewFuncEngine(ringKeyName(i), predict.SourceAnalytical,
			func(k kernels.Kernel, g gpu.Spec) (float64, error) {
				res, err := eng.PredictKernel(context.Background(), predict.Request{Kernel: k, GPU: g})
				return res.Latency, err
			}))
	}
	svc := serve.NewMulti(reg, "alpha", serve.Config{CacheSize: 256})
	node, err := NewNode(Config{
		Self:           ln.Addr().String(),
		Steer:          o.mode,
		PollInterval:   50 * time.Millisecond,
		HealthInterval: o.sweep,
		Registry:       reg,
		DefaultEngine:  "alpha",
		Invalidate:     svc.InvalidateEngine,
		Token:          o.token,
		TraceDump:      svc.TraceJSONL,
		WarmOwned: func(data []byte, owns func(engine, gpuName string) bool) (int, error) {
			return svc.WarmFromTraceData(context.Background(), data, owns)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.reqTimeout > 0 {
		node.reqTimeout = o.reqTimeout
	}
	srv := &http.Server{Handler: node.Handler(serve.NewHandler(svc))}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &proc{addr: ln.Addr().String(), svc: svc, node: node, eng: eng, srv: srv}
}

// kill closes the process's listener and connections — the in-test
// equivalent of SIGKILL: the address stops answering instantly, with no
// drain and no goodbye to peers.
func (p *proc) kill() { p.srv.Close() }

// twoProcs boots two peered processes (A answers 1, B answers 2).
func twoProcs(t *testing.T, mode string) (a, b *proc) {
	t.Helper()
	a = startProc(t, 1, mode)
	b = startProc(t, 2, mode)
	a.node.SetPeers([]string{b.addr})
	b.node.SetPeers([]string{a.addr})
	return a, b
}

// view builds a single-origin GenMessage view.
func view(origin string, instance uint64, gens map[string]uint64) map[string]OriginView {
	return map[string]OriginView{origin: {Instance: instance, Generations: gens}}
}

// TestAbsorbSemantics pins when an absorbed view invalidates: once per
// piece of news (an origin's generation for an engine rising above what
// we had seen from that origin's current instance), never on repeats,
// echoes of our own slice, or non-member origins.
func TestAbsorbSemantics(t *testing.T) {
	reg, _ := stubRegistry(1)
	invalidated := []string{}
	n, err := NewNode(Config{
		Self: "h1:1", Peers: []string{"h2:1"}, Registry: reg, DefaultEngine: "alpha",
		Invalidate: func(name string) int { invalidated = append(invalidated, name); return 3 },
	})
	if err != nil {
		t.Fatal(err)
	}

	// A peer appearing with generation 0 (fresh, untrained state): no news.
	if got := n.Absorb(GenMessage{Node: "p", Views: view("h2:1", 11, map[string]uint64{"alpha": 0})}); got != 0 {
		t.Fatalf("absorb gen 0 invalidated %d engines, want 0", got)
	}
	// The peer's generation rises: invalidate once...
	if got := n.Absorb(GenMessage{Node: "p", Views: view("h2:1", 11, map[string]uint64{"alpha": 2})}); got != 1 {
		t.Fatalf("absorb gen 2 invalidated %d engines, want 1", got)
	}
	// ...and never again for the same generation.
	if got := n.Absorb(GenMessage{Node: "p", Views: view("h2:1", 11, map[string]uint64{"alpha": 2})}); got != 0 {
		t.Fatalf("re-absorb gen 2 invalidated %d engines, want 0", got)
	}
	// Echoes of our own slice (a peer gossiping our state back, even a
	// garbled one) are never news: the local registry is authoritative.
	if got := n.Absorb(GenMessage{Node: "p", Views: view("h1:1", 99, map[string]uint64{"alpha": 99})}); got != 0 {
		t.Fatalf("absorb echo of own slice invalidated %d engines, want 0", got)
	}
	// Engines this process does not serve are tracked but the callback
	// decides what dropping means (here: nothing cached, still counted).
	if got := n.Absorb(GenMessage{Node: "p", Views: view("h2:1", 11, map[string]uint64{"ghost": 9})}); got != 1 {
		t.Fatalf("absorb unknown engine invalidated %d, want 1 (callback decides)", got)
	}
	if len(invalidated) != 2 || invalidated[0] != "alpha" || invalidated[1] != "ghost" {
		t.Fatalf("invalidate calls = %v, want [alpha ghost]", invalidated)
	}
	st := n.GossipStats()
	if st.Absorbed != 5 || st.Invalidations != 2 || st.DroppedEntries != 6 {
		t.Fatalf("gossip stats = %+v, want absorbed 5, invalidations 2, dropped 6", st)
	}
}

// TestAbsorbPerOriginCounters is the regression test for the masked
// retrain: generations are per-process counters, so a member whose
// counter sits below another's must still propagate its retrains. With a
// single max-merged view, B@5 absorbed into a cluster view already at 7
// (from A) would make B's later bump to 6 invisible forever.
func TestAbsorbPerOriginCounters(t *testing.T) {
	reg, _ := stubRegistry(1)
	var drops atomic.Int64
	n, err := NewNode(Config{
		Self: "h1:1", Peers: []string{"hA:1", "hB:1"}, Registry: reg, DefaultEngine: "alpha",
		Invalidate: func(string) int { drops.Add(1); return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// First contact: A trained to gen 7, B to gen 5 — both are news.
	n.Absorb(GenMessage{Node: "a", Views: view("hA:1", 1, map[string]uint64{"alpha": 7})})
	n.Absorb(GenMessage{Node: "b", Views: view("hB:1", 2, map[string]uint64{"alpha": 5})})
	if got := drops.Load(); got != 2 {
		t.Fatalf("first-contact invalidations = %d, want 2", got)
	}
	// B retrains: 5 -> 6. Its counter is still below A's 7, but it is
	// news about origin B and must invalidate.
	if got := n.Absorb(GenMessage{Node: "b", Views: view("hB:1", 2, map[string]uint64{"alpha": 6})}); got != 1 {
		t.Fatalf("B's retrain below A's counter invalidated %d, want 1 (the masked-retrain bug)", got)
	}
}

// TestAbsorbInstanceRestart is the regression test for the restart-masked
// retrain: a restarted member counts generations from zero again, so its
// new instance must void the high-water marks its dead incarnation left
// behind — otherwise a restart-plus-retrain landing at or below the old
// counter would never invalidate peers again.
func TestAbsorbInstanceRestart(t *testing.T) {
	reg, _ := stubRegistry(1)
	var drops atomic.Int64
	n, err := NewNode(Config{
		Self: "h1:1", Peers: []string{"hB:1"}, Registry: reg, DefaultEngine: "alpha",
		Invalidate: func(string) int { drops.Add(1); return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	// B's first incarnation trains to gen 7.
	n.Absorb(GenMessage{Node: "b", Views: view("hB:1", 1, map[string]uint64{"alpha": 7})})
	// B restarts and retrains to gen 7 again — same counter, new weights,
	// new instance. Must invalidate.
	if got := n.Absorb(GenMessage{Node: "b", Views: view("hB:1", 2, map[string]uint64{"alpha": 7})}); got != 1 {
		t.Fatalf("restarted member at the same counter invalidated %d, want 1", got)
	}
	// And the new incarnation's own counter behaves normally afterwards.
	if got := n.Absorb(GenMessage{Node: "b", Views: view("hB:1", 2, map[string]uint64{"alpha": 7})}); got != 0 {
		t.Fatalf("re-absorb after restart invalidated %d, want 0", got)
	}
	if got := n.Absorb(GenMessage{Node: "b", Views: view("hB:1", 2, map[string]uint64{"alpha": 8})}); got != 1 {
		t.Fatalf("retrain after restart invalidated %d, want 1", got)
	}
}

// TestAbsorbIgnoresForeignOrigins: origins outside the configured
// membership are dropped outright — a forged or misdirected payload must
// not grow this node's memory, spam invalidations, or be re-gossiped.
func TestAbsorbIgnoresForeignOrigins(t *testing.T) {
	reg, _ := stubRegistry(1)
	var drops atomic.Int64
	n, err := NewNode(Config{
		Self: "h1:1", Peers: []string{"h2:1"}, Registry: reg, DefaultEngine: "alpha",
		Invalidate: func(string) int { drops.Add(1); return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Absorb(GenMessage{Node: "x", Views: view("evil:666", 1, map[string]uint64{"alpha": 1 << 60})}); got != 0 {
		t.Fatalf("foreign origin invalidated %d engines, want 0", got)
	}
	if drops.Load() != 0 {
		t.Fatal("foreign origin must not reach the invalidate callback")
	}
	if _, ok := n.Snapshot().Views["evil:666"]; ok {
		t.Fatal("foreign origin must not be tracked or re-gossiped")
	}
	if st := n.GossipStats(); st.ForeignOrigins != 1 {
		t.Fatalf("gossip stats = %+v, want 1 foreign origin counted", st)
	}
}

// TestSnapshotIsTransitive: a view absorbed from one peer appears in the
// snapshot served to others, so gossip spreads without a full mesh of
// pushes.
func TestSnapshotIsTransitive(t *testing.T) {
	n := newTestNode(t, "h1:1", []string{"h2:1"})
	n.Absorb(GenMessage{Node: "h2:1", Views: view("h2:1", 5, map[string]uint64{"alpha": 7, "other": 3})})
	snap := n.Snapshot()
	if snap.Node != "h1:1" {
		t.Errorf("snapshot node = %q, want h1:1", snap.Node)
	}
	v := snap.Views["h2:1"]
	if v.Generations["alpha"] != 7 || v.Generations["other"] != 3 || v.Instance != 5 {
		t.Fatalf("snapshot = %+v, want absorbed origin slice (incl. instance) folded in", snap.Views)
	}
	if _, ok := snap.Views["h1:1"]; !ok {
		t.Fatal("snapshot must carry the node's own slice")
	}
}

// TestGossipInvalidationRoundTrip is the heart of the cluster layer: a
// retrain on process A invalidates the stale cached prediction on process
// B — in the push direction (A's SyncNow) and the poll direction (B's
// SyncNow) both.
func TestGossipInvalidationRoundTrip(t *testing.T) {
	a, b := twoProcs(t, SteerOff)
	g := gpu.MustLookup("H100")
	k := kernels.NewBMM(2, 64, 64, 64)

	// B serves and caches its answer.
	if lat, err := predictKernel(b.svc, k, g); err != nil || lat != 2 {
		t.Fatalf("B cold = (%v, %v), want 2", lat, err)
	}
	// The shared model changes behind B's back (B's replica will answer 99
	// once re-evaluated) — but B's cache still holds the stale 2, and B's
	// local generation never moved, so the cache key still reaches it.
	b.eng.lat.Store(99.0)
	if lat, _ := predictKernel(b.svc, k, g); lat != 2 {
		t.Fatalf("B pre-gossip = %v, want the stale cached 2 (the bug this layer fixes)", lat)
	}

	// A retrains: its generation bumps, and one gossip round pushes the
	// news to B, which drops its alpha partition.
	a.eng.gen.Store(1)
	a.node.SyncNow()
	if lat, err := predictKernel(b.svc, k, g); err != nil || lat != 99 {
		t.Fatalf("B after push = (%v, %v), want fresh 99", lat, err)
	}
	if st := b.node.GossipStats(); st.Invalidations != 1 || st.DroppedEntries == 0 {
		t.Fatalf("B gossip stats = %+v, want 1 invalidation dropping entries", st)
	}

	// Poll direction: A retrains again; B's own sync polls A and absorbs.
	b.eng.lat.Store(100.0)
	if lat, _ := predictKernel(b.svc, k, g); lat != 99 {
		t.Fatal("B should have recached 99 before the second retrain")
	}
	a.eng.gen.Store(2)
	b.node.SyncNow()
	if lat, err := predictKernel(b.svc, k, g); err != nil || lat != 100 {
		t.Fatalf("B after poll = (%v, %v), want fresh 100", lat, err)
	}
	if st := a.node.GossipStats(); st.Pushes == 0 {
		t.Errorf("A gossip stats = %+v, want at least one push", st)
	}
}

// TestGossipHTTPEndpoint exercises the wire protocol directly: GET
// returns the view, POST absorbs one, bad payloads are rejected.
func TestGossipHTTPEndpoint(t *testing.T) {
	a, b := twoProcs(t, SteerOff)

	resp, err := http.Get("http://" + a.addr + RouteGenerations)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET generations = %d, want 200", resp.StatusCode)
	}

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post("http://"+a.addr+RouteGenerations, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	// The posted origin must be a cluster member to count: use B's address.
	if code := post(`{"node":"` + b.addr + `","views":{"` + b.addr + `":{"instance":9,"generations":{"alpha":4}}}}`); code != http.StatusOK {
		t.Fatalf("POST generations = %d, want 200", code)
	}
	if a.node.GossipStats().Invalidations != 1 {
		t.Fatal("posted generation should have invalidated")
	}
	if code := post(`{"node":`); code != http.StatusBadRequest {
		t.Fatalf("POST bad JSON = %d, want 400", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, "http://"+a.addr+RouteGenerations, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE generations = %d, want 405", dresp.StatusCode)
	}
}
