package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neusight/internal/plan"
	"neusight/internal/predict"
)

// planService builds a service with the roofline engine and an in-memory
// planner attached — the wiring cmd/neusight does.
func planService(t testing.TB) *Service {
	t.Helper()
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	svc := NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 64})
	m, err := plan.NewManager("", func(name string) (predict.Engine, error) {
		if name == "" {
			name = predict.EngineRoofline
		}
		return reg.Get(name)
	}, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetPlanner(m)
	return svc
}

func planSpecJSON() []byte {
	return []byte(`{"model":"BERT-Large","gpus":["T4"],"strategies":["dp"],"fleet_sizes":[1,2]}`)
}

func TestPlanRoutesWithoutPlanner(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	svc := NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 64})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	for _, path := range []string{"/v2/plan", "/v2/plan/abc"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s without a planner = %d, want 503", path, resp.StatusCode)
		}
	}
}

func TestPlanSubmitPollCancelResume(t *testing.T) {
	svc := planService(t)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Bad spec: 400 with the validation error.
	resp, err := http.Post(srv.URL+"/v2/plan", "application/json", strings.NewReader(`{"model":"nope","gpus":["T4"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", resp.StatusCode)
	}

	// Submit: 202 with the job's birth status.
	resp, err = http.Post(srv.URL+"/v2/plan", "application/json", bytes.NewReader(planSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	var st plan.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" || st.Total != 2 {
		t.Fatalf("submit = %d %+v, want 202 with a 2-cell job", resp.StatusCode, st)
	}

	// Poll until done.
	deadline := time.Now().Add(30 * time.Second)
	for st.State == plan.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(srv.URL + "/v2/plan/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if st.State != plan.StateDone || st.Evaluated != 2 || len(st.Ranking) != 2 {
		t.Fatalf("final %+v, want done with both cells ranked", st)
	}

	// The list shows the job without rankings.
	resp, err = http.Get(srv.URL + "/v2/plan")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []plan.Status `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID || list.Jobs[0].Ranking != nil {
		t.Fatalf("list = %+v, want the one job, no ranking", list.Jobs)
	}

	// Cancel of a done job is a no-op 200; resume of a done job conflicts.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v2/plan/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel done job = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v2/plan/"+st.ID, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume done job = %d, want 409", resp.StatusCode)
	}

	// Unknown ids are 404, nested paths too.
	for _, path := range []string{"/v2/plan/nope", "/v2/plan/a/b"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// The stats and metrics surfaces expose the planner section.
	resp, err = http.Get(srv.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var v2 StatsV2
	if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v2.Plan == nil || v2.Plan.Completed != 1 || v2.Plan.ConfigsEvaluated != 2 {
		t.Fatalf("/v2/stats plan section %+v, want 1 completed job, 2 cells", v2.Plan)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(body.String(), "neusight_plan_jobs_completed_total 1") {
		t.Fatalf("/metrics missing planner families:\n%s", body.String())
	}
}
