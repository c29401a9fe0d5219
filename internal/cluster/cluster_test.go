package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// stubEngine is a Generational engine whose answer and generation are
// mutable from tests: bumping gen simulates a retrain, changing lat
// simulates the retrained model answering differently, and a hold hook
// keeps a request in the backend until the test lets it go.
type stubEngine struct {
	name  string
	lat   atomic.Value // float64
	hold  atomic.Value // func(), run before each answer when set
	gen   atomic.Uint64
	calls atomic.Int64
}

func newStubEngine(name string, lat float64) *stubEngine {
	e := &stubEngine{name: name}
	e.lat.Store(lat)
	return e
}

func (e *stubEngine) Name() string { return e.name }

func (e *stubEngine) Generation() uint64 { return e.gen.Load() }

func (e *stubEngine) PredictKernel(ctx context.Context, req predict.Request) (predict.Result, error) {
	e.calls.Add(1)
	if hold, ok := e.hold.Load().(func()); ok {
		hold()
	}
	return predict.Result{Latency: e.lat.Load().(float64), Engine: e.name, Source: predict.SourceAnalytical}, nil
}

func (e *stubEngine) PredictKernels(ctx context.Context, reqs []predict.Request) []predict.Outcome {
	outs := make([]predict.Outcome, len(reqs))
	for i, req := range reqs {
		outs[i].Result, outs[i].Err = e.PredictKernel(ctx, req)
	}
	return outs
}

// predictKernel asks svc's default engine for one kernel's latency.
func predictKernel(svc *serve.Service, k kernels.Kernel, g gpu.Spec) (float64, error) {
	res, err := svc.PredictKernelEngine(context.Background(), "", k, g)
	return res.Latency, err
}

// stubRegistry builds a registry holding one stub engine named "alpha".
func stubRegistry(lat float64) (*predict.Registry, *stubEngine) {
	reg := predict.NewRegistry()
	eng := newStubEngine("alpha", lat)
	reg.MustRegister(eng)
	return reg, eng
}

func newTestNode(t *testing.T, self string, peers []string) *Node {
	t.Helper()
	reg, _ := stubRegistry(1)
	n, err := NewNode(Config{Self: self, Peers: peers, Registry: reg, DefaultEngine: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNodeValidation(t *testing.T) {
	reg, _ := stubRegistry(1)
	if _, err := NewNode(Config{Registry: reg}); err == nil {
		t.Error("empty Self must fail")
	}
	if _, err := NewNode(Config{Self: "a:1"}); err == nil {
		t.Error("nil Registry must fail")
	}
	for _, mode := range []string{"bogus", "redirect"} {
		if _, err := NewNode(Config{Self: "a:1", Registry: reg, Steer: mode}); err == nil {
			t.Errorf("steering mode %q must fail", mode)
		}
	}
	n, err := NewNode(Config{Self: "a:1", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n.Mode() != SteerProxy {
		t.Errorf("default mode = %q, want %q", n.Mode(), SteerProxy)
	}
}

// TestMembershipAgreement checks the property steering correctness rests
// on: every member, given the same membership set, assigns every key to
// the same owner — and exactly one member calls the key local.
func TestMembershipAgreement(t *testing.T) {
	addrs := []string{"h1:8080", "h2:8080", "h3:8080"}
	nodes := make([]*Node, len(addrs))
	for i, self := range addrs {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		nodes[i] = newTestNode(t, self, peers)
	}
	owned := map[string]int{}
	for i := 0; i < 100; i++ {
		gpuName := fmt.Sprintf("gpu-%d", i)
		owner0, _ := nodes[0].Owner("alpha", gpuName)
		locals := 0
		for _, n := range nodes {
			owner, local := n.Owner("alpha", gpuName)
			if owner != owner0 {
				t.Fatalf("key %s: node %s says owner %s, node %s says %s",
					gpuName, n.Self(), owner, nodes[0].Self(), owner0)
			}
			if local {
				locals++
				if owner != n.Self() {
					t.Fatalf("key %s: node %s reports local but owner is %s", gpuName, n.Self(), owner)
				}
			}
		}
		if locals != 1 {
			t.Fatalf("key %s: %d members claim it local, want exactly 1", gpuName, locals)
		}
		owned[owner0]++
	}
	// The ring must actually spread keys: with 100 keys over 3 members and
	// 64 replicas each, every member owns some.
	for _, a := range addrs {
		if owned[a] == 0 {
			t.Errorf("member %s owns 0 of 100 keys — ring is not spreading", a)
		}
	}
}

// TestSetPeersRebalance checks the consistent-hashing property across a
// peer join and leave: a joining member only takes keys (nothing moves
// between survivors), and its leaving restores the original assignment.
func TestSetPeersRebalance(t *testing.T) {
	n := newTestNode(t, "h1:8080", []string{"h2:8080"})
	keys := make([]string, 200)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("gpu-%d", i)
		before[i], _ = n.Owner("alpha", keys[i])
	}

	n.SetPeers([]string{"h2:8080", "h3:8080"})
	moved := 0
	for i, key := range keys {
		after, _ := n.Owner("alpha", key)
		if after == before[i] {
			continue
		}
		if after != "h3:8080" {
			t.Fatalf("key %s moved %s -> %s: keys may only move to the joining member",
				key, before[i], after)
		}
		moved++
	}
	if moved == 0 {
		t.Error("joining member took 0 of 200 keys — ring is not rebalancing")
	}
	if moved > len(keys)*2/3 {
		t.Errorf("joining member took %d of %d keys — far more than its fair share", moved, len(keys))
	}

	n.SetPeers([]string{"h2:8080"})
	for i, key := range keys {
		if after, _ := n.Owner("alpha", key); after != before[i] {
			t.Fatalf("key %s: owner after leave = %s, want original %s", key, after, before[i])
		}
	}
}

// TestSetPeersIgnoresSelfAndBlanks pins peer-list normalization.
func TestSetPeersIgnoresSelfAndBlanks(t *testing.T) {
	n := newTestNode(t, "h1:8080", []string{" h2:8080 ", "", "h1:8080", "h2:8080"})
	peers := n.Peers()
	if len(peers) != 1 || peers[0] != "h2:8080" {
		t.Fatalf("peers = %v, want [h2:8080]", peers)
	}
	members := n.Members()
	if len(members) != 2 {
		t.Fatalf("members = %v, want 2 entries", members)
	}
}

// TestOwnerUsesShardAffinity: engines declaring a shard affinity hash by
// it, so two engines sharing backend state land on the same member.
func TestOwnerUsesShardAffinity(t *testing.T) {
	reg := predict.NewRegistry()
	a := predict.NewFuncEngine("aff-a", predict.SourceAnalytical,
		func(k kernels.Kernel, g gpu.Spec) (float64, error) { return 1, nil })
	reg.MustRegister(a)
	reg.MustRegister(newStubEngine("plain", 1))
	n, err := NewNode(Config{Self: "h1:1", Peers: []string{"h2:1", "h3:1"}, Registry: reg, DefaultEngine: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	// A func engine has no ShardHint: affinity falls back to the name, so
	// Owner("aff-a") must equal hashing the literal affinity string.
	for _, g := range []string{"H100", "V100", "A100"} {
		got, _ := n.Owner("aff-a", g)
		want, _ := n.Owner("aff-a", g) // deterministic
		if got != want {
			t.Fatalf("Owner not deterministic for %s", g)
		}
	}
	// Unknown engines fall back to the name as affinity instead of failing:
	// the serving layer owns the 400.
	if owner, _ := n.Owner("ghost", "H100"); owner == "" {
		t.Error("unknown engine must still resolve an owner")
	}
	// Empty engine resolves the default.
	gotDef, _ := n.Owner("", "H100")
	wantDef, _ := n.Owner("plain", "H100")
	if gotDef != wantDef {
		t.Errorf("Owner(\"\") = %s, want default engine's owner %s", gotDef, wantDef)
	}
}

// TestConcurrentOwnerSetPeers hammers ownership lookups, membership
// changes, and gossip absorption concurrently; the race detector is the
// assertion.
func TestConcurrentOwnerSetPeers(t *testing.T) {
	reg, _ := stubRegistry(1)
	var dropped atomic.Int64
	n, err := NewNode(Config{
		Self: "h1:1", Peers: []string{"h2:1"}, Registry: reg, DefaultEngine: "alpha",
		Invalidate: func(string) int { dropped.Add(1); return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch w % 4 {
				case 0:
					n.Owner("alpha", fmt.Sprintf("gpu-%d", i))
				case 1:
					if i%2 == 0 {
						n.SetPeers([]string{"h2:1", "h3:1"})
					} else {
						n.SetPeers([]string{"h2:1"})
					}
				case 2:
					n.Absorb(GenMessage{Node: "h2:1", Views: map[string]OriginView{
						"h2:1": {Instance: 7, Generations: map[string]uint64{"alpha": uint64(i)}},
					}})
				case 3:
					n.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if dropped.Load() == 0 {
		t.Error("absorbing rising generations should have invalidated at least once")
	}
}
