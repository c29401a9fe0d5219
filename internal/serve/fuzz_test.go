package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"neusight/internal/predict"
)

// FuzzPredictRoutes sends every body to the three /v2 predict routes of a
// roofline service: no body may panic a handler, draw a 5xx, or get a reply
// that is not one JSON document. The seed corpus is
// testdata/fuzz/FuzzPredictRoutes, so plain `go test` replays it; dig with
// `go test -run '^$' -fuzz FuzzPredictRoutes -parallel 2 ./internal/serve`.
func FuzzPredictRoutes(f *testing.F) {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	h := NewHandler(NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 256}))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range []string{"/v2/predict/kernel", "/v2/predict/batch", "/v2/predict/graph"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s answered %d: %s", route, rec.Code, rec.Body.Bytes())
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s answered %d with a body that is not JSON: %q", route, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
