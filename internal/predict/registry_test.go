package predict

import (
	"sync"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

func testEngine(name string) Engine {
	return NewFuncEngine(name, SourceAnalytical,
		func(k kernels.Kernel, g gpu.Spec) (float64, error) { return 1, nil })
}

func TestRegistryConcurrentChurn(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(testEngine("stable"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Register(testEngine("churn"))
				reg.Get("stable")
				reg.List()
				reg.Engines()
			}
		}()
	}
	wg.Wait()
	if _, err := reg.Get("stable"); err != nil {
		t.Errorf("stable engine lost during churn: %v", err)
	}
	if got := reg.Engines(); len(got) != 2 || got[0].Name() != "churn" || got[1].Name() != "stable" {
		t.Errorf("Engines() = %v, want churn and stable in name order", got)
	}
}

// affinityEngine declares a shard-affinity key distinct from its name.
type affinityEngine struct {
	Engine
	key string
}

func (e affinityEngine) ShardAffinity() string { return e.key }

func TestShardAffinity(t *testing.T) {
	plain := testEngine("plain")
	if got := ShardAffinity(plain); got != "plain" {
		t.Errorf("ShardAffinity(plain) = %q, want the engine name", got)
	}
	hinted := affinityEngine{Engine: testEngine("hinted"), key: "shared-core"}
	if got := ShardAffinity(hinted); got != "shared-core" {
		t.Errorf("ShardAffinity(hinted) = %q, want the declared key", got)
	}
	empty := affinityEngine{Engine: testEngine("empty"), key: ""}
	if got := ShardAffinity(empty); got != "empty" {
		t.Errorf("ShardAffinity with empty hint = %q, want the engine name fallback", got)
	}
}
