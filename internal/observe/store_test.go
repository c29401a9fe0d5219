package observe

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neusight/internal/kernels"
)

func testRecord(i int) Record {
	return NewRecord("neusight", kernels.NewBMM(1, 64+i, 64, 64), "H100", float64(i+1))
}

func fileLineCount(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

func TestStoreAppendCloseReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	st, err := OpenStore(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs := st2.Records()
	if len(recs) != 5 {
		t.Fatalf("reopened with %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.ObservedMs != float64(i+1) {
			t.Fatalf("record %d observed %v, want %v (order lost)", i, r.ObservedMs, i+1)
		}
		if _, err := r.Kernel(); err != nil {
			t.Fatalf("record %d does not round-trip: %v", i, err)
		}
	}
}

// An accepted observation must survive a kill: every Append flushes
// through to the file, so reopening the path without ever closing the
// first handle — the closest a test gets to SIGKILL — sees every record.
func TestStoreReopenAfterKill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	st, err := OpenStore(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the process "died" here.
	st2, err := OpenStore(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Records()); got != 7 {
		t.Fatalf("%d records survived the kill, want 7", got)
	}
}

// TestStoreSkipsCorruptLines proves the store is wired to the shared log
// (internal/jsonl, whose own suite crosses every fault with every
// operation) and adds the store's own rule for what a valid record is:
// damage between two valid records is skipped and counted, and the
// damaged file is rewritten at open so a later kill cannot resurrect it.
func TestStoreSkipsCorruptLines(t *testing.T) {
	const (
		first  = `{"engine":"neusight","gpu":"H100","op":"bmm","b":1,"m":64,"k":64,"n":64,"observed_ms":1}` + "\n"
		second = `{"engine":"neusight","gpu":"H100","op":"bmm","b":1,"m":65,"k":64,"n":64,"observed_ms":2}` + "\n"
	)
	cases := []struct {
		name, damage string
		skipped      int
	}{
		{"garbage", "not json at all\n", 1},
		{"truncated mid-line", `{"engine":"neusight","gpu":"H100","op":"bmm","obs` + "\n", 1},
		{"overlong line", strings.Repeat("x", 100<<10) + "\n", 1},
		{"no engine", `{"engine":"","gpu":"H100","op":"bmm","observed_ms":1}` + "\n", 1},
		{"no gpu, no op", `{"engine":"e","op":"bmm","observed_ms":1}` + "\n" + `{"engine":"e","gpu":"H100","observed_ms":1}` + "\n", 2},
		{"non-positive latency", `{"engine":"e","gpu":"H100","op":"bmm","observed_ms":0}` + "\n", 1},
		{"blank lines are framing, not damage", "\n\n", 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "obs.jsonl")
			if err := os.WriteFile(path, []byte(first+c.damage+second), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(path, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			stats := st.Stats()
			if stats.Records != 2 || stats.Skipped != c.skipped {
				t.Fatalf("loaded %d records, skipped %d; want 2 and %d", stats.Records, stats.Skipped, c.skipped)
			}
			want := first + second
			if c.skipped == 0 {
				want = first + c.damage + second // nothing to heal, nothing rewritten
			}
			if data, _ := os.ReadFile(path); string(data) != want {
				t.Fatalf("file after open = %q, want %q", data, want)
			}
		})
	}
}

func TestStoreCapEvictsOldest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	st, err := OpenStore(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 10; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	recs := st.Records()
	if len(recs) != 4 {
		t.Fatalf("store holds %d records, want cap 4", len(recs))
	}
	for i, r := range recs {
		if want := float64(7 + i); r.ObservedMs != want {
			t.Fatalf("record %d observed %v, want %v (not the newest four)", i, r.ObservedMs, want)
		}
	}
	if st.Stats().Evicted != 6 {
		t.Fatalf("evicted %d, want 6", st.Stats().Evicted)
	}
}

func TestStoreCompactionBoundsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	st, err := OpenStore(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatal("40 appends past a cap of 4 never compacted")
	}
	if got := fileLineCount(t, path); got >= 2*4+1 {
		t.Fatalf("file holds %d lines, want < %d (compaction bounds disk)", got, 2*4+1)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recs := st2.Records()
	if len(recs) != 4 || recs[3].ObservedMs != 40 {
		t.Fatalf("reopen after compaction: %d records, newest %v; want 4 records ending at 40",
			len(recs), recs[len(recs)-1].ObservedMs)
	}
}

// A crash between writing the temporary compaction file and the rename
// leaves path+".compact.tmp" behind; the main file is authoritative and
// the leftover must be discarded, not replayed.
func TestStoreDiscardsCrashedCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "obs.jsonl")
	st, err := OpenStore(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := path + ".compact.tmp"
	if err := os.WriteFile(tmp, []byte("torn half-written compac"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := len(st2.Records()); got != 3 {
		t.Fatalf("%d records after crashed compaction, want 3 from the main file", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover %s not discarded (stat err %v)", tmp, err)
	}
}

func TestStoreOverfullFilePrunedAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	var b strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, `{"engine":"neusight","gpu":"H100","op":"bmm","b":1,"m":64,"k":64,"n":64,"observed_ms":%d}`+"\n", i+1)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := st.Records()
	if len(recs) != 4 || recs[0].ObservedMs != 9 {
		t.Fatalf("pruned to %d records starting at %v, want newest 4 starting at 9",
			len(recs), recs[0].ObservedMs)
	}
	if got := fileLineCount(t, path); got != 4 {
		t.Fatalf("file holds %d lines after prune, want 4", got)
	}
}

func TestRecordKernelRoundTrip(t *testing.T) {
	k := kernels.NewBMM(2, 128, 64, 32).WithDType(kernels.FP16)
	r := NewRecord("neusight", k, "V100", 1.5)
	got, err := r.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	if got.Label() != k.Label() {
		t.Fatalf("round-trip %s != %s", got.Label(), k.Label())
	}
	if _, err := (Record{Op: "no-such-op"}).Kernel(); err == nil {
		t.Fatal("unknown op must not resolve")
	}
	if _, err := (Record{Op: "bmm", DType: "fp8"}).Kernel(); err == nil {
		t.Fatal("unknown dtype must not resolve")
	}
}
