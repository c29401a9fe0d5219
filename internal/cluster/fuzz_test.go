package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzControlRoutes POSTs every body to the control route that decodes a
// peer's JSON: /v2/cluster/generations (a GenMessage). Each input gets a
// fresh Node with no token and no background loops, so no input leaks
// membership into the next and nothing dials out. The join_* seeds date
// from a deleted join route; they stay as GenMessage inputs of the wrong
// shape. No body may panic, answer with a 5xx, or
// reply with anything but one JSON document. The seed corpus is
// testdata/fuzz/FuzzControlRoutes, so plain `go test` replays it; dig with
// `go test -run '^$' -fuzz FuzzControlRoutes -parallel 2 ./internal/cluster`.
func FuzzControlRoutes(f *testing.F) {
	reg, _ := stubRegistry(1)
	f.Fuzz(func(t *testing.T, body []byte) {
		n, err := NewNode(Config{
			Self: "a:1", Peers: []string{"b:1"}, Registry: reg, DefaultEngine: "alpha",
			Invalidate: func(string) int { return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		n.ControlHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RouteGenerations, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d: %s", RouteGenerations, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s answered %d with a body that is not JSON: %q", RouteGenerations, rec.Code, rec.Body.Bytes())
		}
	})
}
