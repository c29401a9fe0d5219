package observe

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"neusight/internal/kernels"
)

// goldenRecords are the observations behind testdata/store.golden.jsonl,
// which the commit before the shared log (internal/jsonl) wrote.
func goldenRecords() []Record {
	return []Record{
		NewRecord("neusight", kernels.NewBMM(1, 64, 64, 64), "H100", 1.5),
		NewRecord("neusight", kernels.NewLinear(32, 128, 128).WithDType(kernels.FP16), "V100", 0.25),
		NewRecord("roofline", kernels.NewSoftmax(1024, 128), "H100", 3),
		NewRecord("neusight", kernels.NewBMM(4, 256, 64, 256), "A100-40GB", 0.0625),
		NewRecord("neusight", kernels.NewLayerNorm(512, 768), "H100", 12.75),
		NewRecord("neusight", kernels.NewBMM(2, 96, 64, 96), "T4", 1e-3),
		NewRecord("roofline", kernels.NewLinear(8, 16, 16), "V100", 2),
	}
}

// writeGoldenStore runs the two process lifetimes that produced the
// golden store: six appends into a cap of four (two evicted in memory,
// the file keeps six lines), then a reopen that prunes the file to the
// newest four by rewriting it and appends a seventh — rewritten lines
// followed by an appended one.
func writeGoldenStore(t *testing.T, path string) {
	t.Helper()
	recs := goldenRecords()
	st, err := OpenStore(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:6] {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenStore(path, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(recs[6]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreGolden: a store written before the shared log reopens to the
// same records, and the same appends still write the same bytes.
func TestStoreGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "store.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := st.Records(), goldenRecords()[2:]; !reflect.DeepEqual(got, want) {
		t.Errorf("golden store reads as\n%+v\nwant\n%+v", got, want)
	}
	if stats := st.Stats(); stats.Skipped != 0 || stats.Compactions != 0 {
		t.Errorf("golden store opened with %+v, want nothing skipped or rewritten", stats)
	}

	fresh := filepath.Join(t.TempDir(), "obs.jsonl")
	writeGoldenStore(t, fresh)
	written, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Errorf("store written now differs from the golden bytes\n got: %q\nwant: %q", written, golden)
	}
}
