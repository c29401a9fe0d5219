package plan

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenID names testdata/00000000feedface.jsonl, a checkpoint the commit
// before the shared log (internal/jsonl) wrote from the fixture below.
const goldenID = "00000000feedface"

func goldenSpec(t *testing.T) Spec {
	t.Helper()
	s := Spec{Model: "BERT-Large", TrafficRPS: 100, GPUs: []string{"T4", "H100"},
		Strategies: []string{StrategyDP}, FleetSizes: []int{1, 2}, Seed: 7}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

func goldenResults() []Result {
	return []Result{
		{Config: Config{Index: 0, GPU: "T4", Strategy: StrategyDP, Fleet: 1}, Server: "4xT4",
			IterationMs: 41.5, ComputeMs: 40.25, NetworkMs: 1.25, ThroughputRPS: 192.77108433734938,
			CostPerHour: 2.104, ThroughputPerCost: 91.62123780292271, MeetsTraffic: true, FitsMemory: true},
		{Config: Config{Index: 2, GPU: "H100", Strategy: StrategyDP, Fleet: 1}, Server: "4xH100",
			IterationMs: 3.0625, ComputeMs: 3, NetworkMs: 0.0625, ThroughputRPS: 2612.2448979591836,
			CostPerHour: 39.2, ThroughputPerCost: 66.63889025406081, MeetsTraffic: true, FitsMemory: true, Fallbacks: 2},
		{Config: Config{Index: 1, GPU: "T4", Strategy: StrategyDP, Fleet: 2}, Server: "4xT4",
			FitsMemory: false, Error: "plan: BERT-Large does not fit T4 memory"},
	}
}

// writeGoldenCheckpoint runs the job life that produced the golden file:
// created, two cells recorded, sealed cancelled; reopened by a resume,
// the third cell recorded, sealed done.
func writeGoldenCheckpoint(t *testing.T, dir string) {
	t.Helper()
	rs := goldenResults()
	cp, err := createCheckpoint(dir, goldenID, goldenSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs[:2] {
		if err := cp.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Seal(StateCancelled, ""); err != nil {
		t.Fatal(err)
	}
	if cp, err = openCheckpoint(dir, goldenID); err != nil {
		t.Fatal(err)
	}
	if err := cp.Record(rs[2]); err != nil {
		t.Fatal(err)
	}
	if err := cp.Seal(StateDone, ""); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointGolden: a sealed-then-resumed checkpoint written before
// the shared log replays to the same snapshot, and the same job life
// still writes the same bytes.
func TestCheckpointGolden(t *testing.T) {
	rs := goldenResults()
	want := Snapshot{ID: goldenID, Spec: goldenSpec(t), Results: []Result{rs[0], rs[2], rs[1]}, State: StateDone}
	snaps := loadSnapshots("testdata")
	if len(snaps) != 1 || !reflect.DeepEqual(snaps[0], want) {
		t.Errorf("golden checkpoint replays as\n%+v\nwant\n%+v", snaps, want)
	}

	dir := t.TempDir()
	writeGoldenCheckpoint(t, dir)
	written, err := os.ReadFile(filepath.Join(dir, goldenID+checkpointExt))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", goldenID+checkpointExt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Errorf("checkpoint written now differs from the golden bytes\n got: %q\nwant: %q", written, golden)
	}
}
