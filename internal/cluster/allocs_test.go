//go:build !race

package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// handlerTransport delivers each request to the in-process handler of its
// host, so two members talk without a socket.
type handlerTransport map[string]http.Handler

func (ht handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	ht[req.URL.Host].ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestHopAllocBudget is the proxied hop's allocation budget, the cluster
// half of serve's TestAllocBudgets (same rule: count is the measure when
// the budget was written, and the budget is count plus 1%): a 128-kernel
// batch sent to the member that does not own its (engine, GPU) key and
// proxied to the one that does, where it is a cache hit.
func TestHopAllocBudget(t *testing.T) {
	const count = 940
	members := []string{"a.test:1", "b.test:1"}
	handlers := handlerTransport{}
	nodes := map[string]*Node{}
	for i, self := range members {
		reg := predict.NewRegistry()
		reg.MustRegister(predict.NewRooflineEngine())
		svc := serve.NewMulti(reg, predict.EngineRoofline, serve.Config{})
		n, err := NewNode(Config{
			Self: self, Peers: []string{members[1-i]}, Registry: reg,
			DefaultEngine: predict.EngineRoofline, Invalidate: svc.InvalidateEngine,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.client = &http.Client{Transport: handlers}
		handlers[self] = n.Handler(serve.NewHandler(svc))
		nodes[self] = n
	}
	var g gpu.Spec
	for _, g = range gpu.All() {
		if owner, _ := nodes[members[0]].Owner(predict.EngineRoofline, g.Name); owner == members[1] {
			break
		}
	}
	req := serve.BatchRequestV2{BatchRequest: serve.BatchRequest{GPU: g.Name}}
	ops := []string{"bmm", "linear", "softmax", "layernorm"}
	for i := 0; i < 128; i++ {
		req.Kernels = append(req.Kernels, serve.KernelRequest{Op: ops[i%4], B: 1 + i%3, M: 64 + 8*i, K: 256, N: 128})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	steerer := handlers[members[0]]
	got := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		steerer.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/predict/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("proxied batch answered %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
	if st := nodes[members[0]].SteerStats(); st.Proxied == 0 || st.ProxyFailures != 0 {
		t.Fatalf("steering stats = %+v, want every batch proxied without a failure", st)
	}
	if budget := count * 1.01; got > budget {
		t.Errorf("proxied batch of 128: %v allocs per request, budget %v (%v + 1%%)", got, budget, count)
	}
}
