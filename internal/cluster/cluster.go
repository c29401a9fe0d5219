// Package cluster makes N `neusight serve` processes behave as one
// coherent, self-healing service. Each process runs a Node — a thin peer
// layer over the serving stack — that adds the mechanisms a multi-process
// deployment needs beyond what a single process provides:
//
//   - Generation gossip (gossip.go): a process that retrains an engine (or
//     grows its tile database) bumps that engine's state generation, which
//     invalidates its *own* caches automatically — but a peer process
//     serving the same model from its own cache has no idea. Nodes publish
//     engine-generation changes to their peers over a small HTTP push/poll
//     protocol (POST/GET /v2/cluster/generations); a node learning of a
//     generation newer than the one its local engine reports drops that
//     engine's cached forecasts, so no replica keeps serving a stale
//     prediction after a retrain anywhere in the cluster.
//
//   - Dynamic membership and failure detection (membership.go, health.go):
//     membership is state, not configuration. A process joins by seeding
//     Config.Peers with any one member and running one gossip round
//     (SyncNow) before it listens: the seed admits it, hands back the
//     membership, and announces it to everyone. Every member runs a
//     failure detector fed by gossip contacts and a background health
//     sweep, declaring unresponsive members suspect then dead.
//     Dead members are evicted from the ring automatically — and
//     readmitted by their first successful contact, so a restart heals
//     without operator action. GET /v2/cluster/health exposes the state.
//
//   - Replicated key steering (steer.go): a consistent-hash ring
//     (internal/ring) over the members assigns every (engine, GPU) key a
//     primary owner plus a distinct replica. A prediction request landing
//     on the wrong process is proxied to the owner, and when the primary
//     is unreachable the proxy falls through to the replica (one retry,
//     counted) instead of failing the request; once the primary is marked
//     dead, requests go straight to the replica. GET /v2/cluster/ring
//     exposes the assignment; all steering/failover counters are exported
//     to Prometheus.
//
//   - Start-up warmup (membership.go): after that first round a starting
//     member pulls the recorded workload traces of the alive members
//     (GET /v2/cluster/trace) and primes its caches with the keys it now
//     owns, so its first steered request is a cache hit.
//
// All /v2/cluster/* control routes can require a shared bearer token
// (Config.Token); requests without it are rejected with 401 and counted.
//
// The Node deliberately does not import the serving layer: cache
// invalidation, trace export, and warmup are callbacks (Config.Invalidate,
// Config.TraceDump, Config.WarmOwned), and steering wraps any
// http.Handler. cmd/neusight wires the pieces together.
package cluster

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neusight/internal/predict"
	"neusight/internal/ring"
)

// Steering modes for Config.Steer.
const (
	// SteerProxy forwards requests owned by a peer to the owner and relays
	// the response. The default.
	SteerProxy = "proxy"
	// SteerOff serves every request locally. Gossip still runs.
	SteerOff = "off"
)

// DefaultPollInterval is the gossip cadence: how often a node checks its
// local registry for generation changes (pushing on change) and polls its
// peers for theirs. Invalidation latency is bounded by one interval even
// when a push is lost.
const DefaultPollInterval = 2 * time.Second

// Config assembles a Node.
type Config struct {
	// Self is the address peers reach this process at ("host:port"). It is
	// the node's identity on the membership ring and the address gossip
	// messages advertise.
	Self string
	// Peers seeds the membership: every other member's address, or any
	// one live member of a running cluster. The set then evolves at
	// runtime: members arrive through gossiped membership views, and dead
	// members are evicted from the ring by the failure detector.
	Peers []string
	// Steer selects the steering mode (SteerProxy, SteerOff). Empty means
	// SteerProxy.
	Steer string
	// PollInterval is the gossip cadence; zero means DefaultPollInterval.
	// Each round's actual delay is jittered ±20% so simultaneously started
	// members do not synchronize into thundering herds.
	PollInterval time.Duration
	// HealthInterval is the health sweeper's cadence (same jitter); zero
	// means DefaultHealthInterval.
	HealthInterval time.Duration
	// Token, when non-empty, is the shared bearer token every
	// /v2/cluster/* request must carry (Authorization: Bearer <token>).
	// Outbound control-plane requests attach it automatically.
	Token string
	// Registry is the local engine registry: the source of local engine
	// generations and shard affinities.
	Registry *predict.Registry
	// DefaultEngine resolves requests that name no engine, mirroring the
	// serving layer's default.
	DefaultEngine string
	// Invalidate drops the named engine's locally cached forecasts,
	// returning how many entries were dropped (serve.Service.
	// InvalidateEngine). Nil disables invalidation (gossip still tracked).
	Invalidate func(engine string) int
	// TraceDump returns this member's recorded workload trace as JSONL —
	// what GET /v2/cluster/trace serves to starting members. Nil (or a nil
	// return) serves an empty trace.
	TraceDump func() []byte
	// WarmOwned primes the local caches from a peer's JSONL trace data,
	// keeping only entries whose (engine, GPU) key owns reports true, and
	// returns how many forecasts were warmed
	// (serve.Service.WarmFromTraceData). Nil disables start-up warmup.
	WarmOwned func(data []byte, owns func(engine, gpu string) bool) (int, error)
}

// Node is one cluster member: the membership ring, the failure detector,
// the gossip state, and the steering counters. Safe for concurrent use.
type Node struct {
	self           string
	steerMode      string
	interval       time.Duration
	healthInterval time.Duration
	// reqTimeout bounds every outbound request (gossip push/poll, probe,
	// proxy attempt, trace fetch); suspectAfter and deadAfter are the
	// failure detector's strike thresholds. They and client are the package
	// defaults, which in-package tests lower before SetPeers and Start.
	reqTimeout   time.Duration
	suspectAfter int
	deadAfter    int
	token        string
	client       *http.Client
	reg          *predict.Registry
	def          string
	invalidate   func(string) int
	traceDump    func() []byte
	warmOwned    func([]byte, func(string, string) bool) (int, error)

	// mu guards the membership — the per-member failure-detector records —
	// and the ring built over its non-dead members: ring owner i is
	// ringMembers[i], placed at label "member-<addr>".
	mu          sync.RWMutex
	members     map[string]*memberState
	ring        *ring.Ring
	ringMembers []string

	// instance identifies this process incarnation (random, nonzero) so
	// peers can tell a counter bump from a restart (see OriginView).
	instance uint64

	// gmu guards known: the highest generation seen per (origin member,
	// engine) — this node's own registry under its own address, peers'
	// slices merged in by absorbed gossip. published/publishedMembers are
	// the last snapshot pushed, so pushes happen only on change.
	gmu              sync.Mutex
	known            map[string]*originState
	published        map[string]OriginView
	publishedMembers map[string]MemberInfo

	// gossip counters
	pushes         atomic.Uint64
	pushFailures   atomic.Uint64
	polls          atomic.Uint64
	pollFailures   atomic.Uint64
	absorbed       atomic.Uint64
	invalidations  atomic.Uint64
	droppedEntries atomic.Uint64
	foreignOrigins atomic.Uint64

	// health / membership counters
	probes        atomic.Uint64
	probeFailures atomic.Uint64
	evictions     atomic.Uint64
	readmissions  atomic.Uint64
	authRejected  atomic.Uint64

	// planner fan-out counters: batches and cells evaluated here on
	// behalf of a peer's plan job (POST /v2/cluster/plan/eval).
	planEvalsServed atomic.Uint64
	planEvalCells   atomic.Uint64

	// steering counters
	steered       atomic.Uint64
	proxied       atomic.Uint64
	misrouted     atomic.Uint64
	proxyFailures atomic.Uint64
	proxyTimeouts atomic.Uint64
	failedOver    atomic.Uint64
	relayErrors   atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewNode validates cfg and builds the member ring. The node is inert
// until Start (gossip + health sweeping) and Handler (steering) attach it
// to traffic.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self address is required")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cluster: Registry is required")
	}
	mode := cfg.Steer
	if mode == "" {
		mode = SteerProxy
	}
	if mode != SteerProxy && mode != SteerOff {
		return nil, fmt.Errorf("cluster: unknown steering mode %q (want %s or %s)", cfg.Steer, SteerProxy, SteerOff)
	}
	interval := cfg.PollInterval
	if interval <= 0 {
		interval = DefaultPollInterval
	}
	healthInterval := cfg.HealthInterval
	if healthInterval <= 0 {
		healthInterval = DefaultHealthInterval
	}
	n := &Node{
		self:             cfg.Self,
		steerMode:        mode,
		interval:         interval,
		healthInterval:   healthInterval,
		reqTimeout:       DefaultRequestTimeout,
		suspectAfter:     DefaultSuspectAfter,
		deadAfter:        DefaultDeadAfter,
		token:            cfg.Token,
		client:           &http.Client{Timeout: DefaultRequestTimeout + 3*time.Second}, // a backstop: each call has its own deadline
		reg:              cfg.Registry,
		def:              cfg.DefaultEngine,
		invalidate:       cfg.Invalidate,
		traceDump:        cfg.TraceDump,
		warmOwned:        cfg.WarmOwned,
		instance:         newInstanceID(),
		members:          map[string]*memberState{},
		known:            map[string]*originState{},
		published:        map[string]OriginView{},
		publishedMembers: map[string]MemberInfo{},
		stop:             make(chan struct{}),
	}
	n.SetPeers(cfg.Peers)
	n.gmu.Lock()
	n.refreshLocalLocked()
	n.gmu.Unlock()
	return n, nil
}

// Self returns the node's advertised address.
func (n *Node) Self() string { return n.self }

// Mode returns the steering mode.
func (n *Node) Mode() string { return n.steerMode }

// SetPeers reconciles the membership to exactly the given peer set:
// unknown addresses are admitted as alive, absent ones are forgotten, and
// members staying keep their failure-detector state. Keys hash onto the
// ring by consistent hashing, so a joining or leaving peer moves only the
// keys it gains or loses — everyone else's assignment is untouched (see
// TestSetPeersRebalance).
func (n *Node) SetPeers(peers []string) {
	want := map[string]bool{}
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p != "" && p != n.self {
			want[p] = true
		}
	}
	n.mu.Lock()
	for addr := range n.members {
		if !want[addr] {
			delete(n.members, addr)
		}
	}
	for addr := range want {
		if n.members[addr] == nil {
			n.members[addr] = &memberState{state: MemberAlive}
		}
	}
	n.rebuildRingLocked()
	n.mu.Unlock()
}

// peerCount returns how many peers the membership holds, whatever their
// state, without copying the list.
func (n *Node) peerCount() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.members)
}

// Peers returns the current peer addresses (every known member but self,
// whatever its state), sorted.
func (n *Node) Peers() []string {
	n.mu.RLock()
	peers := make([]string, 0, len(n.members))
	for addr := range n.members {
		peers = append(peers, addr)
	}
	n.mu.RUnlock()
	sort.Strings(peers)
	return peers
}

// isMember reports whether addr is in the current membership (self or a
// known peer, whatever its state).
func (n *Node) isMember(addr string) bool {
	if addr == n.self {
		return true
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.members[addr] != nil
}

// newInstanceID draws the nonzero random identity of this process
// incarnation. Collisions across restarts would re-mask a retrain, so it
// uses the CSPRNG with a time-based fallback.
func newInstanceID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// Members returns every member address (self included), sorted.
func (n *Node) Members() []string {
	members := append(n.Peers(), n.self)
	sort.Strings(members)
	return members
}

// affinityOf resolves the shard-affinity key an engine hashes by: its
// declared affinity when registered, falling back to the name (the
// serving layer will reject unknown engines anyway). Empty names resolve
// the default engine.
func (n *Node) affinityOf(engine string) string {
	if engine == "" {
		engine = n.def
	}
	if eng, err := n.reg.Get(engine); err == nil {
		return predict.ShardAffinity(eng)
	}
	return engine
}

// Owners resolves the (engine, GPU) key to its primary owner and the
// distinct replica that serves when the primary is unreachable: the
// key hashes onto the membership ring (dead members evicted), the primary
// is the first point at or after it, and the replica is the next point
// belonging to a different member. A single-member ring has no replica
// (empty string).
func (n *Node) Owners(engine, gpuName string) (primary, replica string) {
	affinity := n.affinityOf(engine)
	n.mu.RLock()
	r, members := n.ring, n.ringMembers
	n.mu.RUnlock()
	p, rep := r.Owners(affinity + "|" + gpuName)
	if rep < 0 {
		return members[p], ""
	}
	return members[p], members[rep]
}

// Owner resolves which member owns the (engine, GPU) key as primary.
// local reports whether this node is that owner. With no peers every key
// is local.
func (n *Node) Owner(engine, gpuName string) (addr string, local bool) {
	addr, _ = n.Owners(engine, gpuName)
	return addr, addr == n.self
}

// route resolves where a request for the (engine, GPU) key should be
// served right now: the primary unless it is marked dead, in which case
// the replica takes over and there is no further fallback. fallback is
// the replica to retry when a proxy attempt to owner fails mid-flight
// (the primary died but the detector has not caught up yet).
func (n *Node) route(engine, gpuName string) (owner, fallback string, local bool) {
	primary, replica := n.Owners(engine, gpuName)
	owner, fallback = primary, replica
	if replica != "" && n.memberDead(primary) {
		owner, fallback = replica, ""
	}
	return owner, fallback, owner == n.self
}

// Start launches the background loops: gossip every PollInterval and a
// health sweep every HealthInterval, each delay jittered ±20% so a fleet
// started simultaneously does not synchronize its rounds into periodic
// thundering herds. Stop ends both.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.loop(n.interval, n.SyncNow)
	go n.loop(n.healthInterval, n.ProbeNow)
}

// loop runs f every interval (jittered) until Stop.
func (n *Node) loop(interval time.Duration, f func()) {
	defer n.wg.Done()
	for {
		t := time.NewTimer(jitter(interval))
		select {
		case <-n.stop:
			t.Stop()
			return
		case <-t.C:
			f()
		}
	}
}

// jitter spreads d uniformly over [0.8d, 1.2d].
func jitter(d time.Duration) time.Duration {
	span := int64(2 * d / 5)
	if span <= 0 {
		return d
	}
	return d - d/5 + time.Duration(rand.Int63n(span+1))
}

// Stop ends the loops started by Start and waits for them to exit.
// Safe to call once; a node that was never started must not call Stop.
func (n *Node) Stop() {
	close(n.stop)
	n.wg.Wait()
}
