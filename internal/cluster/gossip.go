package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"

	"neusight/internal/predict"
)

// OriginView is one member's slice of the generation view: the instance
// ID of the process that produced it plus its engine generations.
// Generations are per-process counters — a restarted process counts from
// zero again — so the instance ID is what lets peers tell "same process,
// higher counter" (invalidate on increase) apart from "new process
// entirely" (all previous knowledge about this origin is void).
type OriginView struct {
	// Instance identifies the origin's process incarnation (random,
	// nonzero, drawn at startup). 0 means unknown (foreign payloads).
	Instance uint64 `json:"instance,omitempty"`
	// Generations maps engine name -> that process's state generation.
	Generations map[string]uint64 `json:"generations"`
}

// GenMessage is the gossip payload exchanged on /v2/cluster/generations:
// the sender's knowledge of every member's engine-state generations,
// keyed by the member (origin) that owns them, plus its membership view.
// Generations are per-process counters — two members trained
// independently sit at arbitrary, incomparable values — so views must be
// exchanged per origin: a single cluster-wide max would permanently mask
// retrains on any member whose counter sits below another's. Views merge
// before they are served, so gossip is transitive — C polling B learns
// about A's retrain even if A's push to C was lost. The membership view
// rides the same channel and merges the same way, which is how a member
// that one seed has heard of reaches every member within a round or two.
type GenMessage struct {
	// Node is the advertised address of the sender.
	Node string `json:"node"`
	// Views maps member address -> that member's slice of the view, as
	// far as the sender knows (its own included).
	Views map[string]OriginView `json:"views"`
	// Members is the sender's membership view (its own address included).
	// Absent (nil) on payloads from pre-membership senders or foreign
	// clients — such payloads cannot grow the membership, and their
	// unknown origins are still rejected.
	Members map[string]MemberInfo `json:"members,omitempty"`
}

// originState is the mutable per-origin record behind Node.known.
type originState struct {
	instance uint64
	gens     map[string]uint64
}

// refreshLocalLocked folds the local registry's current engine
// generations into this node's own slice of the view. Callers hold gmu.
func (n *Node) refreshLocalLocked() {
	st := n.known[n.self]
	if st == nil {
		st = &originState{instance: n.instance, gens: map[string]uint64{}}
		n.known[n.self] = st
	}
	for _, eng := range n.reg.Engines() {
		if g := predict.Generation(eng); g > st.gens[eng.Name()] {
			st.gens[eng.Name()] = g
		}
	}
}

// viewOf deep-copies one origin state into its wire form.
func viewOf(st *originState) OriginView {
	gens := make(map[string]uint64, len(st.gens))
	for name, gen := range st.gens {
		gens[name] = gen
	}
	return OriginView{Instance: st.instance, Generations: gens}
}

// equalViews reports whether two per-origin view maps are identical.
func equalViews(a, b map[string]OriginView) bool {
	if len(a) != len(b) {
		return false
	}
	for origin, va := range a {
		vb, ok := b[origin]
		if !ok || va.Instance != vb.Instance || len(va.Generations) != len(vb.Generations) {
			return false
		}
		for name, gen := range va.Generations {
			if vb.Generations[name] != gen {
				return false
			}
		}
	}
	return true
}

// equalMembers reports whether two membership views are identical.
func equalMembers(a, b map[string]MemberInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for addr, ia := range a {
		if ib, ok := b[addr]; !ok || ia != ib {
			return false
		}
	}
	return true
}

// Snapshot returns this node's per-origin generation view — its own
// registry's generations under its own address, plus everything absorbed
// from peers — and its membership view. It is what GET
// /v2/cluster/generations serves and what pushes carry.
func (n *Node) Snapshot() GenMessage {
	members := n.membersView()
	n.gmu.Lock()
	defer n.gmu.Unlock()
	n.refreshLocalLocked()
	views := make(map[string]OriginView, len(n.known))
	for origin, st := range n.known {
		views[origin] = viewOf(st)
	}
	return GenMessage{Node: n.self, Views: views, Members: members}
}

// Absorb merges a peer's view into this node's. The membership view
// merges first — members the sender knows and this node does not are
// admitted (never resurrected from dead; see absorbMembers) — so a
// just-admitted member's own generation slice passes the origin check
// below. Then, for every origin whose reported generation for an engine
// is newer than anything seen from that origin's current instance, the
// engine's locally cached forecasts are dropped via the Invalidate
// callback: that origin retrained (or first appeared with trained state),
// so local caches may predate it. Generations are origin-local counters,
// so no comparison against the local engine's own generation is
// meaningful — the drop is unconditional on news.
//
// Two guards bound what a payload can do:
//   - echoes of this node's own slice are skipped (the local registry is
//     authoritative), and origins that are not cluster members — after
//     the membership merge — are ignored outright: a non-member origin is
//     noise or forgery, and tracking it would let arbitrary clients grow
//     this node's memory and spam invalidations;
//   - an origin reporting a new instance ID voids everything previously
//     known about it first: a restarted process counts generations from
//     zero again, and without the reset its retrains would hide behind
//     the dead process's high-water marks forever. A stale instance
//     relayed during the convergence window can flip the reset once more
//     — the cost is a spurious cache drop, which is the safe direction.
//
// Returns how many invalidations ran.
func (n *Node) Absorb(msg GenMessage) int {
	n.absorbed.Add(1)
	if len(msg.Members) > 0 {
		n.absorbMembers(msg.Members)
	}
	invalidated := 0
	for origin, v := range msg.Views {
		if origin == n.self {
			continue
		}
		if !n.isMember(origin) {
			n.foreignOrigins.Add(1)
			continue
		}
		for name, gen := range v.Generations {
			n.gmu.Lock()
			st := n.known[origin]
			if st == nil {
				st = &originState{gens: map[string]uint64{}}
				n.known[origin] = st
			}
			if v.Instance != 0 && st.instance != 0 && v.Instance != st.instance {
				st.gens = map[string]uint64{} // new incarnation: prior marks are void
			}
			if v.Instance != 0 {
				st.instance = v.Instance
			}
			prev := st.gens[name]
			if gen > prev {
				st.gens[name] = gen
			}
			n.gmu.Unlock()
			if gen <= prev {
				continue
			}
			if n.invalidate != nil {
				dropped := n.invalidate(name)
				n.invalidations.Add(1)
				n.droppedEntries.Add(uint64(dropped))
				invalidated++
			}
		}
	}
	return invalidated
}

// SyncNow runs one synchronous gossip round: push the snapshot to every
// live peer if it changed since the last push (generation OR membership
// change), then poll every live peer and absorb their views. Each
// outbound attempt carries its own reqTimeout deadline, and each
// outcome feeds the failure detector. The background loop calls it every
// PollInterval; tests and shutdown paths call it directly for
// determinism.
func (n *Node) SyncNow() {
	ctx := context.Background()
	snap := n.Snapshot()
	if n.snapshotChanged(snap) {
		n.Push(ctx, snap)
		n.markPublished(snap)
	}
	n.PollPeers(ctx)
}

// snapshotChanged reports whether snap differs from the last pushed one.
func (n *Node) snapshotChanged(snap GenMessage) bool {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	return !equalViews(snap.Views, n.published) || !equalMembers(snap.Members, n.publishedMembers)
}

// markPublished records snap as the last pushed snapshot. Snapshot
// returns fresh copies, so the maps can be retained as-is.
func (n *Node) markPublished(snap GenMessage) {
	n.gmu.Lock()
	n.published = snap.Views
	n.publishedMembers = snap.Members
	n.gmu.Unlock()
}

// gossipPeers returns the peers gossip contacts this round: every member
// not currently dead. Dead members are the health sweeper's job — its
// probe is the readmission path — so gossip rounds do not burn a timeout
// per dead member forever.
func (n *Node) gossipPeers() []string {
	n.mu.RLock()
	peers := make([]string, 0, len(n.members))
	for addr, st := range n.members {
		if st.state != MemberDead {
			peers = append(peers, addr)
		}
	}
	n.mu.RUnlock()
	sort.Strings(peers)
	return peers
}

// Push POSTs msg to every live peer's /v2/cluster/generations, all peers
// concurrently: one blackholed peer must burn only its own goroutine's
// per-attempt deadline, not serialize in front of the healthy peers.
// Unreachable peers are counted (and struck in the failure detector), not
// retried — the poll side of the protocol (theirs and ours) delivers the
// update within one interval once they return.
func (n *Node) Push(ctx context.Context, msg GenMessage) {
	body, err := json.Marshal(msg)
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for _, peer := range n.gossipPeers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			ok := n.call(ctx, n.reqTimeout, http.MethodPost, peer, RouteGenerations, body, nil, maxControlBody) == nil
			if ok {
				n.pushes.Add(1)
			} else {
				n.pushFailures.Add(1)
			}
			n.markContact(peer, ok)
		}(peer)
	}
	wg.Wait()
}

// PollPeers GETs every live peer's /v2/cluster/generations concurrently
// and absorbs the views (Absorb is thread-safe). This is the lossy-push
// fallback: a node that missed a push (it was restarting, the network
// hiccuped) converges on the next poll.
func (n *Node) PollPeers(ctx context.Context) {
	var wg sync.WaitGroup
	for _, peer := range n.gossipPeers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			var msg GenMessage
			err := n.call(ctx, n.reqTimeout, http.MethodGet, peer, RouteGenerations, nil, &msg, maxControlBody)
			n.markContact(peer, err == nil)
			if err != nil {
				n.pollFailures.Add(1)
				return
			}
			n.polls.Add(1)
			n.Absorb(msg)
		}(peer)
	}
	wg.Wait()
}

// GossipStats is a snapshot of the gossip counters, exposed on
// /v2/cluster/generations (GET) alongside the view for debuggability.
type GossipStats struct {
	Pushes         uint64 `json:"pushes"`
	PushFailures   uint64 `json:"push_failures"`
	Polls          uint64 `json:"polls"`
	PollFailures   uint64 `json:"poll_failures"`
	Absorbed       uint64 `json:"absorbed"`
	Invalidations  uint64 `json:"invalidations"`
	DroppedEntries uint64 `json:"dropped_entries"`
	ForeignOrigins uint64 `json:"foreign_origins"`
}

// GossipStats returns the current gossip counters.
func (n *Node) GossipStats() GossipStats {
	return GossipStats{
		Pushes:         n.pushes.Load(),
		PushFailures:   n.pushFailures.Load(),
		Polls:          n.polls.Load(),
		PollFailures:   n.pollFailures.Load(),
		Absorbed:       n.absorbed.Load(),
		Invalidations:  n.invalidations.Load(),
		DroppedEntries: n.droppedEntries.Load(),
		ForeignOrigins: n.foreignOrigins.Load(),
	}
}
