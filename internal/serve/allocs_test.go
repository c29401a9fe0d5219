//go:build !race

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"neusight/internal/predict"
)

// Allocation budgets: the one exact cost gate. Each case records the
// per-request heap allocation count measured when its budget was written;
// the budget is that count plus 1%, so one extra allocation per kernel
// fails every case. A change that lowers a count lowers the recorded count
// in the same change. The race detector changes the counts, hence the
// build tag; the plain test run keeps the gate. The proxied hop's budget
// lives with the cluster tests.

// allocBatchBody is a /v2/predict/batch body of 128 distinct kernels on
// one GPU, four operator kinds in turn.
func allocBatchBody(t *testing.T) []byte {
	t.Helper()
	req := BatchRequestV2{BatchRequest: BatchRequest{GPU: "V100"}}
	ops := []string{"bmm", "linear", "softmax", "layernorm"}
	for i := 0; i < 128; i++ {
		req.Kernels = append(req.Kernels, KernelRequest{Op: ops[i%4], B: 1 + i%3, M: 64 + 8*i, K: 256, N: 128})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestAllocBudgets(t *testing.T) {
	learned := func(cacheSize int) http.Handler {
		reg := predict.NewRegistry()
		reg.MustRegister(predict.NewCoreEngine(learnedPredictor()))
		return NewHandler(NewMulti(reg, predict.EngineNeuSight, Config{CacheSize: cacheSize}))
	}
	batch := allocBatchBody(t)
	graph := []byte(`{"workload":"BERT-Large","gpu":"V100","batch":2}`)
	for _, tc := range []struct {
		name  string
		h     http.Handler
		route string
		body  []byte
		count float64
	}{
		{"cached batch of 128", learned(0), "/v2/predict/batch", batch, 863},
		{"cold batch of 128, cache off", learned(-1), "/v2/predict/batch", batch, 1683},
		{"cached graph", learned(0), "/v2/predict/graph", graph, 35},
	} {
		// AllocsPerRun makes one warm-up request before it counts.
		got := testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.route, bytes.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s answered %d: %s", tc.route, rec.Code, rec.Body.Bytes())
			}
		})
		if budget := tc.count * 1.01; got > budget {
			t.Errorf("%s: %v allocs per request, budget %v (%v + 1%%)", tc.name, got, budget, tc.count)
		}
	}
}
