package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neusight/internal/plan"
	"neusight/internal/predict"
)

// Faults a peer can answer an outbound cluster call with.
const (
	peerRefuses   = "refuses"   // nothing listens at the address
	peerHangs     = "times out" // accepts and never answers
	peer500       = "answers 500"
	peerOversized = "answers 200 past the limit"
)

// faultPeer starts a peer that answers every request with fault. An
// oversized reply is 200 with a JSON document that never closes, size
// bytes long, so a decoder reading it under a smaller limit fails.
func faultPeer(t *testing.T, fault string, size int) string {
	t.Helper()
	if fault == peerRefuses {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		return addr
	}
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch fault {
		case peerHangs:
			select {
			case <-r.Context().Done():
			case <-release:
			}
		case peer500:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case peerOversized:
			chunk := []byte(strings.Repeat("a", 32<<10))
			w.Write([]byte(`{"pad":"`))
			for n := 0; n < size; n += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })
	return strings.TrimPrefix(srv.URL, "http://")
}

// peerCounters reads the counters an outbound call may move.
func peerCounters(n *Node) map[string]uint64 {
	all := map[string]uint64{
		"pushes": n.pushes.Load(), "push_failures": n.pushFailures.Load(),
		"polls": n.polls.Load(), "poll_failures": n.pollFailures.Load(),
		"probes": n.probes.Load(), "probe_failures": n.probeFailures.Load(),
		"proxy_failures": n.proxyFailures.Load(), "proxy_timeouts": n.proxyTimeouts.Load(),
	}
	for name, v := range all {
		if v == 0 {
			delete(all, name)
		}
	}
	return all
}

// peerOutcome is what one call against one faulty peer must leave behind.
type peerOutcome struct {
	err      string // "" no error; "*" any error; else a substring of it
	strikes  int    // failure-detector strikes on the peer
	seen     bool   // a successful contact was recorded
	counters map[string]uint64
}

// TestPeerCallOutcomes runs every outbound cluster call against a peer
// that refuses, times out, answers 500, or answers 200 with a body past
// the call's read limit, and pins what each caller reports: the returned
// error, the strike or contact it feeds the failure detector, and the
// counter it moves. Plan eval's non-200 is the one failure that proves the
// member alive.
func TestPeerCallOutcomes(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ops := []struct {
		name  string
		limit int // the call's read limit; oversized bodies exceed it
		run   func(t *testing.T, n *Node, peer, fault string) error
		want  map[string]peerOutcome
	}{
		{
			name: "push", limit: maxControlBody,
			run: func(t *testing.T, n *Node, peer, fault string) error {
				n.Push(context.Background(), n.Snapshot())
				return nil
			},
			want: map[string]peerOutcome{
				peerRefuses:   {strikes: 1, counters: map[string]uint64{"push_failures": 1}},
				peerHangs:     {strikes: 1, counters: map[string]uint64{"push_failures": 1}},
				peer500:       {strikes: 1, counters: map[string]uint64{"push_failures": 1}},
				peerOversized: {seen: true, counters: map[string]uint64{"pushes": 1}},
			},
		},
		{
			name: "poll", limit: maxControlBody,
			run: func(t *testing.T, n *Node, peer, fault string) error {
				n.PollPeers(context.Background())
				return nil
			},
			want: map[string]peerOutcome{
				peerRefuses:   {strikes: 1, counters: map[string]uint64{"poll_failures": 1}},
				peerHangs:     {strikes: 1, counters: map[string]uint64{"poll_failures": 1}},
				peer500:       {strikes: 1, counters: map[string]uint64{"poll_failures": 1}},
				peerOversized: {strikes: 1, counters: map[string]uint64{"poll_failures": 1}},
			},
		},
		{
			name: "probe", limit: maxControlBody,
			run: func(t *testing.T, n *Node, peer, fault string) error {
				n.ProbeNow()
				return nil
			},
			want: map[string]peerOutcome{
				peerRefuses:   {strikes: 1, counters: map[string]uint64{"probes": 1, "probe_failures": 1}},
				peerHangs:     {strikes: 1, counters: map[string]uint64{"probes": 1, "probe_failures": 1}},
				peer500:       {strikes: 1, counters: map[string]uint64{"probes": 1, "probe_failures": 1}},
				peerOversized: {seen: true, counters: map[string]uint64{"probes": 1}},
			},
		},
		{
			name: "trace fetch", limit: maxTraceBody,
			run: func(t *testing.T, n *Node, peer, fault string) error {
				data, err := n.fetchTrace(context.Background(), peer)
				if err == nil && len(data) != maxTraceBody {
					t.Errorf("trace fetch read %d bytes, want the %d-byte limit", len(data), maxTraceBody)
				}
				return err
			},
			want: map[string]peerOutcome{
				peerRefuses:   {err: "*"},
				peerHangs:     {err: "*"},
				peer500:       {err: "500"},
				peerOversized: {}, // truncated at the limit, not an error
			},
		},
		{
			name: "plan eval", limit: 64 << 20,
			run: func(t *testing.T, n *Node, peer, fault string) error {
				// Plan eval's own deadline is planEvalTimeout; the caller's
				// context cuts the hung case short.
				ctx, cancel := context.WithCancel(context.Background())
				if fault == peerHangs {
					ctx, cancel = context.WithTimeout(ctx, timeout)
				}
				defer cancel()
				if fault == peerOversized && raceEnabled {
					t.Skip("decoding 64 MiB under the race detector takes seconds and gigabytes")
				}
				spec := plan.Spec{Model: "BERT-Large", GPUs: []string{"V100"}}
				_, err := n.PlanDispatcher().EvalRemote(ctx, peer, predict.EngineRoofline, spec, []plan.Config{{GPU: "V100"}})
				return err
			},
			want: map[string]peerOutcome{
				peerRefuses:   {err: "*", strikes: 1, counters: map[string]uint64{"proxy_failures": 1}},
				peerHangs:     {err: "*", strikes: 1, counters: map[string]uint64{"proxy_timeouts": 1}},
				peer500:       {err: "500", seen: true}, // it answered: alive
				peerOversized: {err: "unexpected EOF", strikes: 1},
			},
		},
	}
	for _, op := range ops {
		for _, fault := range []string{peerRefuses, peerHangs, peer500, peerOversized} {
			op, fault, want := op, fault, op.want[fault]
			t.Run(op.name+" "+fault, func(t *testing.T) {
				t.Parallel()
				peer := faultPeer(t, fault, op.limit+4096)
				reg := predict.NewRegistry()
				reg.MustRegister(predict.NewRooflineEngine())
				reqTimeout := 30 * time.Second // room to read a body at the limit, under -race too
				if fault == peerHangs {
					reqTimeout = timeout
				}
				n, err := NewNode(Config{
					Self: "127.0.0.1:1", Peers: []string{peer}, Registry: reg,
					DefaultEngine: predict.EngineRoofline,
				})
				if err != nil {
					t.Fatal(err)
				}
				n.reqTimeout = reqTimeout
				n.client = &http.Client{} // deadlines come from each call alone
				err = op.run(t, n, peer, fault)
				switch {
				case want.err == "" && err != nil:
					t.Errorf("error = %v, want none", err)
				case want.err != "" && err == nil:
					t.Errorf("error = nil, want one")
				case want.err != "" && want.err != "*" && !strings.Contains(err.Error(), want.err):
					t.Errorf("error = %v, want it to name %q", err, want.err)
				}
				n.mu.RLock()
				st := *n.members[peer]
				n.mu.RUnlock()
				if st.strikes != want.strikes || !st.lastSeen.IsZero() != want.seen {
					t.Errorf("failure detector: strikes %d, contact recorded %t; want %d, %t",
						st.strikes, !st.lastSeen.IsZero(), want.strikes, want.seen)
				}
				got := peerCounters(n)
				if len(got) != len(want.counters) {
					t.Fatalf("counters = %v, want %v", got, want.counters)
				}
				for name, v := range want.counters {
					if got[name] != v {
						t.Fatalf("counters = %v, want %v", got, want.counters)
					}
				}
			})
		}
	}
}
