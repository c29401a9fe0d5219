package cluster

import (
	"context"
	"net/http"
	"sort"
	"time"

	"neusight/internal/ring"
)

// Member lifecycle states. A member starts alive, accumulates one strike
// per failed contact (gossip push/poll, health probe), turns suspect at
// SuspectAfter strikes and dead at DeadAfter. A dead member is evicted
// from the membership ring — its shards fail over to their replicas — but
// stays in the member list and keeps being probed, so the first successful
// contact readmits it (state back to alive, ring rebuilt). Any successful
// contact resets the strike count.
const (
	MemberAlive   = "alive"
	MemberSuspect = "suspect"
	MemberDead    = "dead"
)

// Failure-detection defaults: strikes before a member is suspected and
// before it is declared dead. Contacts come from the gossip loop (one poll
// per interval, plus pushes when the view changes) and the health sweeper
// (one probe per HealthInterval), so with the default intervals a crashed
// member is suspect within ~2s and dead — evicted from the ring — within
// ~4s of its last successful contact.
const (
	DefaultSuspectAfter = 2
	DefaultDeadAfter    = 4
)

// memberState is the failure detector's per-peer record. Guarded by
// Node.mu alongside the ring built over it.
type memberState struct {
	instance uint64 // last instance ID seen from this member (0 unknown)
	state    string
	strikes  int
	lastSeen time.Time // last successful contact; zero before the first
}

// MemberStatus is the wire form of one member's health, exposed on
// /v2/cluster/health and /v2/cluster/ring.
type MemberStatus struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Strikes  int    `json:"strikes,omitempty"`
	Instance uint64 `json:"instance,omitempty"`
	// LastSeenAgoMs is how long ago the last successful contact was; -1
	// before any contact. Self reports 0.
	LastSeenAgoMs float64 `json:"last_seen_ago_ms"`
	Self          bool    `json:"self,omitempty"`
}

// MemberStates returns every member's health, self included, sorted by
// address.
func (n *Node) MemberStates() []MemberStatus {
	n.mu.RLock()
	out := make([]MemberStatus, 0, len(n.members)+1)
	out = append(out, MemberStatus{Addr: n.self, State: MemberAlive, Instance: n.instance, Self: true})
	for addr, st := range n.members {
		ms := MemberStatus{Addr: addr, State: st.state, Strikes: st.strikes, Instance: st.instance, LastSeenAgoMs: -1}
		if !st.lastSeen.IsZero() {
			ms.LastSeenAgoMs = float64(time.Since(st.lastSeen)) / float64(time.Millisecond)
		}
		out = append(out, ms)
	}
	n.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// memberDead reports whether addr is currently declared dead. Self is
// never dead.
func (n *Node) memberDead(addr string) bool {
	if addr == n.self {
		return false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	st := n.members[addr]
	return st != nil && st.state == MemberDead
}

// addMember admits addr into the membership as alive (a no-op if already
// present), rebuilding the ring. It is how gossiped membership views grow
// the cluster at runtime.
func (n *Node) addMember(addr string, instance uint64) {
	if addr == "" || addr == n.self {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.members[addr]
	if st != nil {
		if instance != 0 {
			st.instance = instance
		}
		return
	}
	n.members[addr] = &memberState{state: MemberAlive, instance: instance}
	n.rebuildRingLocked()
}

// markContact feeds one contact outcome with addr into the failure
// detector: success resets strikes and readmits a suspect or dead member;
// failure adds a strike and walks the member toward suspect then dead.
// Ring rebuilds happen only on dead transitions (either direction) —
// suspect members keep their shards.
func (n *Node) markContact(addr string, ok bool) {
	if addr == n.self {
		return
	}
	n.mu.Lock()
	st := n.members[addr]
	if st == nil {
		n.mu.Unlock()
		return
	}
	rebuild := false
	if ok {
		st.strikes = 0
		st.lastSeen = time.Now()
		if st.state != MemberAlive {
			if st.state == MemberDead {
				rebuild = true
				n.readmissions.Add(1)
			}
			st.state = MemberAlive
		}
	} else {
		st.strikes++
		switch {
		case st.strikes >= n.deadAfter && st.state != MemberDead:
			st.state = MemberDead
			rebuild = true
			n.evictions.Add(1)
		case st.strikes >= n.suspectAfter && st.state == MemberAlive:
			st.state = MemberSuspect
		}
	}
	if rebuild {
		n.rebuildRingLocked()
	}
	n.mu.Unlock()
}

// rebuildRingLocked rebuilds the membership ring over self plus every
// non-dead member. Callers hold n.mu.
func (n *Node) rebuildRingLocked() {
	members := []string{n.self}
	for addr, st := range n.members {
		if st.state != MemberDead {
			members = append(members, addr)
		}
	}
	sort.Strings(members)
	labels := make([]string, len(members))
	for i, m := range members {
		labels[i] = "member-" + m
	}
	n.ring, n.ringMembers = ring.New(labels), members
}

// MemberInfo is one member's slice of the gossiped membership view: its
// address maps to the process instance last seen at it. Absorbing a view
// admits members this node has not heard of — a member starting with any
// one seed in -peers reaches everyone within a gossip round or two.
type MemberInfo struct {
	Instance uint64 `json:"instance,omitempty"`
}

// membersView snapshots the membership (self included) in wire form.
func (n *Node) membersView() map[string]MemberInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	view := make(map[string]MemberInfo, len(n.members)+1)
	view[n.self] = MemberInfo{Instance: n.instance}
	for addr, st := range n.members {
		view[addr] = MemberInfo{Instance: st.instance}
	}
	return view
}

// absorbMembers merges a gossiped membership view: unknown members are
// admitted as alive, and a changed instance ID (the member restarted) is
// recorded. It deliberately does not resurrect dead members — readmission
// requires a successful direct contact (markContact), not a rumor.
func (n *Node) absorbMembers(members map[string]MemberInfo) {
	for addr, info := range members {
		n.addMember(addr, info.Instance)
	}
}

// WarmFromOwners pulls the recorded workload traces of every alive member
// and warms the local caches with the keys this node now owns (as primary
// or replica), so a starting member's first steered request is a cache
// hit instead of a cold model evaluation. Members without a trace add
// nothing; members not alive (a seed the start-up SyncNow could not reach
// is suspect) or whose fetch fails are counted as skipped.
func (n *Node) WarmFromOwners(ctx context.Context) (warmed, peersSkipped int, err error) {
	if n.warmOwned == nil {
		return 0, 0, nil
	}
	owns := func(engine, gpuName string) bool {
		primary, replica := n.Owners(engine, gpuName)
		return primary == n.self || replica == n.self
	}
	for _, ms := range n.MemberStates() {
		if ms.Self {
			continue
		}
		if ms.State != MemberAlive {
			peersSkipped++
			continue
		}
		data, ferr := n.fetchTrace(ctx, ms.Addr)
		if ferr != nil {
			peersSkipped++
			continue
		}
		if len(data) == 0 {
			continue
		}
		w, werr := n.warmOwned(data, owns)
		warmed += w
		if werr != nil && err == nil {
			err = werr
		}
	}
	return warmed, peersSkipped, err
}

// fetchTrace GETs one member's recorded workload trace (JSONL).
func (n *Node) fetchTrace(ctx context.Context, peer string) ([]byte, error) {
	var data []byte
	err := n.call(ctx, n.reqTimeout, http.MethodGet, peer, RouteTrace, nil, &data, maxTraceBody)
	return data, err
}
