package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"

	"neusight/internal/gpu"
)

// steerHeader marks a proxied request so the receiving node serves it
// locally instead of steering again — membership disagreement between two
// nodes must degrade to one extra hop, never a loop. Its value is the
// address of the node that forwarded the request.
const steerHeader = "X-Neusight-Steered"

// maxSteerBody caps how much of a request body the steering layer buffers
// to read the routing fields — the same 1 MiB the serving layer enforces,
// so steering never accepts more than serving would.
const maxSteerBody = 1 << 20

// steerHint is the slice of a prediction request body steering needs:
// every predict body carries the target GPU and an optional engine at the
// top level.
type steerHint struct {
	Engine string `json:"engine"`
	GPU    string `json:"gpu"`
}

// isPredictPath reports whether path is a prediction endpoint — the only
// traffic steering applies to. Stats, metrics, and control routes are
// always served locally.
func isPredictPath(path string) bool {
	return strings.HasPrefix(path, "/v2/predict/")
}

// steer routes one prediction request: requests whose (engine, GPU) key
// this node serves — and requests that were already steered here — go to
// next; the rest are proxied to the key's current owner. "Current owner"
// means the primary unless the failure detector has declared it dead, in
// which case the replica has taken over (route); a live-looking primary
// that turns out unreachable mid-request falls through to the replica.
// The request body is buffered (bounded) to read the routing fields and
// restored for whoever serves it; malformed bodies are served locally so
// the serving layer produces its ordinary 400.
func (n *Node) steer(w http.ResponseWriter, r *http.Request, next http.Handler) {
	if n.steerMode == SteerOff || n.peerCount() == 0 {
		next.ServeHTTP(w, r)
		return
	}

	buf, err := io.ReadAll(io.LimitReader(r.Body, maxSteerBody+1))
	rest := r.Body // unread remainder of an over-limit body
	r.Body = readCloser{io.MultiReader(bytes.NewReader(buf), rest), rest}
	if err != nil || len(buf) > maxSteerBody {
		// Unreadable or oversized: the serving layer's body cap produces
		// the right client-facing error.
		next.ServeHTTP(w, r)
		return
	}

	var hint steerHint
	if json.Unmarshal(buf, &hint) != nil {
		next.ServeHTTP(w, r) // bad JSON: serve locally for the ordinary 400
		return
	}
	g, gerr := gpu.Lookup(hint.GPU)
	if gerr != nil {
		next.ServeHTTP(w, r) // unknown GPU: serve locally for the ordinary 400
		return
	}

	owner, fallback, local := n.route(hint.Engine, g.Name)
	switch {
	case local:
		next.ServeHTTP(w, r)
	case r.Header.Get(steerHeader) != "":
		// A steered request we do not own: two nodes disagree about the
		// ring (peer lists drifted, a member is joining). Serve it locally
		// — correctness does not depend on ownership, only cache locality
		// does — and count the disagreement.
		n.misrouted.Add(1)
		next.ServeHTTP(w, r)
	default:
		n.steered.Add(1)
		n.proxyTo(w, r, owner, fallback, buf, next)
	}
}

// readCloser pairs a replacement body reader with the original closer.
type readCloser struct {
	io.Reader
	io.Closer
}

// proxyTo forwards the buffered request to the owner and relays the
// response. An unreachable owner is not the client's problem when a
// replica exists: the request falls through to fallback — exactly one
// retry, counted in FailedOver — and only when both fail (or no replica
// exists) does the client see a 502. A fallback of self is served by the
// local handler directly, no loopback HTTP round trip. Each failed
// attempt also strikes the target in the failure detector, so a few
// steered requests hitting a crashed primary accelerate its eviction.
func (n *Node) proxyTo(w http.ResponseWriter, r *http.Request, owner, fallback string, body []byte, next http.Handler) {
	err := n.relayTo(w, r, owner, body)
	if err == nil {
		return
	}
	n.countProxyError(err)
	n.markContact(owner, false)
	if fallback == "" {
		writeJSONError(w, http.StatusBadGateway, "cluster: shard owner "+owner+" unreachable: "+err.Error())
		return
	}
	n.failedOver.Add(1)
	if fallback == n.self {
		// This node is the replica: the body was restored onto r.Body
		// before routing, so the local handler can consume it.
		next.ServeHTTP(w, r)
		return
	}
	if err := n.relayTo(w, r, fallback, body); err != nil {
		n.countProxyError(err)
		n.markContact(fallback, false)
		writeJSONError(w, http.StatusBadGateway,
			"cluster: shard owner "+owner+" and replica "+fallback+" unreachable: "+err.Error())
	}
}

// relayTo attempts one proxy hop: forward the buffered request to target
// with a per-attempt deadline and relay the response — status, every
// header, body — verbatim. A transport failure before anything was
// written to w returns the error so the caller can retry elsewhere; once
// the response starts, a broken relay can only be counted (RelayErrors),
// not retried.
func (n *Node) relayTo(w http.ResponseWriter, r *http.Request, target string, body []byte) error {
	ctx, cancel := context.WithTimeout(r.Context(), n.reqTimeout)
	defer cancel()
	u := url.URL{Scheme: "http", Host: target, Path: r.URL.Path, RawQuery: r.URL.RawQuery}
	req, err := http.NewRequestWithContext(ctx, r.Method, u.String(), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(steerHeader, n.self)
	resp, err := n.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n.proxied.Add(1)
	n.markContact(target, true)
	for name, vals := range resp.Header {
		for _, v := range vals {
			w.Header().Add(name, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		n.relayErrors.Add(1)
	}
	return nil
}

// countProxyError classifies one failed proxy attempt: the owner timing
// out (deadline exceeded) and the owner being unreachable (connection
// refused, reset, DNS) are different operational signals — a timeout
// points at overload, unreachable at death — so they count separately.
func (n *Node) countProxyError(err error) {
	var ne net.Error
	if (errors.As(err, &ne) && ne.Timeout()) || errors.Is(err, context.DeadlineExceeded) {
		n.proxyTimeouts.Add(1)
		return
	}
	n.proxyFailures.Add(1)
}

// SteerStats is a snapshot of the steering counters, exposed on
// /v2/cluster/ring.
type SteerStats struct {
	Steered   uint64 `json:"steered"`
	Proxied   uint64 `json:"proxied"`
	Misrouted uint64 `json:"misrouted"`
	// ProxyFailures counts proxy attempts that failed without a timeout
	// (owner unreachable); ProxyTimeouts counts attempts that hit the
	// per-attempt deadline. FailedOver counts requests that fell through
	// to the replica after a failed primary attempt; RelayErrors counts
	// responses truncated mid-relay (headers already sent).
	ProxyFailures uint64 `json:"proxy_failures"`
	ProxyTimeouts uint64 `json:"proxy_timeouts"`
	FailedOver    uint64 `json:"failed_over"`
	RelayErrors   uint64 `json:"relay_errors"`
}

// SteerStats returns the current steering counters.
func (n *Node) SteerStats() SteerStats {
	return SteerStats{
		Steered:       n.steered.Load(),
		Proxied:       n.proxied.Load(),
		Misrouted:     n.misrouted.Load(),
		ProxyFailures: n.proxyFailures.Load(),
		ProxyTimeouts: n.proxyTimeouts.Load(),
		FailedOver:    n.failedOver.Load(),
		RelayErrors:   n.relayErrors.Load(),
	}
}
