package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/observe"
	"neusight/internal/predict"
)

// rooflineService serves the roofline engine alone: every well-formed
// kernel has an answer, so a fuzzed body exercises the decoders.
func rooflineService() *Service {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	return NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 256})
}

// postEach sends body to every route of h: none may panic, answer with a
// 5xx, or reply with anything but one JSON document.
func postEach(t *testing.T, h http.Handler, body []byte, routes ...string) {
	for _, route := range routes {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d: %s", route, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s answered %d with a body that is not JSON: %q", route, rec.Code, rec.Body.Bytes())
		}
	}
}

// FuzzPredictRoutes sends every body to the three /v2 predict routes of a
// roofline service. The seed corpus is testdata/fuzz/FuzzPredictRoutes, so
// plain `go test` replays it; dig with
// `go test -run '^$' -fuzz FuzzPredictRoutes -parallel 2 ./internal/serve`.
func FuzzPredictRoutes(f *testing.F) {
	h := NewHandler(rooflineService())
	f.Fuzz(func(t *testing.T, body []byte) {
		postEach(t, h, body, "/v2/predict/kernel", "/v2/predict/batch", "/v2/predict/graph")
	})
}

// FuzzObserveRoute sends every body to /v2/observe of a roofline service
// with a drift monitor attached the way cmd/neusight attaches one: the
// monitor's reference prediction rides the service. The seed corpus is
// testdata/fuzz/FuzzObserveRoute.
func FuzzObserveRoute(f *testing.F) {
	svc := rooflineService()
	mon := observe.NewMonitor(observe.Config{}, func(ctx context.Context, engine string, k kernels.Kernel, g gpu.Spec) (float64, error) {
		res, err := svc.PredictKernelEngine(ctx, engine, k, g)
		return res.Latency, err
	})
	svc.SetObserver(mon)
	f.Cleanup(func() { mon.Close() })
	h := NewHandler(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		postEach(t, h, body, "/v2/observe")
	})
}

// FuzzPlanRoute sends every body to /v2/plan of a roofline service with a
// planner attached, as cmd/neusight attaches one. Every accepted job is
// cancelled before the next input, so no input's background run
// overlaps the next. The seed corpus is testdata/fuzz/FuzzPlanRoute.
func FuzzPlanRoute(f *testing.F) {
	svc := planService(f)
	m := svc.Planner()
	f.Cleanup(m.Close)
	h := NewHandler(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		postEach(t, h, body, "/v2/plan")
		m.Close()
	})
}
