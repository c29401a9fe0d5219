package plan

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointOnSharedLog proves plan checkpoints are wired to the
// shared log (internal/jsonl, whose own suite crosses every fault with
// every operation): damage in the middle of a checkpoint costs the skips
// the log counts and never the header, the cells or the terminal state
// around it, and a restarted manager restores the job from what survived.
func TestCheckpointOnSharedLog(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", goldenID+checkpointExt))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(golden), "\n") // header, cell 0, cell 2, cancelled, cell 1, done, ""
	cases := []struct {
		name, damage string
		skipped      int
	}{
		{"overlong line", strings.Repeat("x", 100<<10) + "\n", 1},
		{"binary garbage", "\x00\xff\xfe not json\n", 1},
		{"torn cell", lines[1][:40] + "\n", 1},
		{"line that is no header, cell or state", `{"plan":"` + goldenID + `"}` + "\n" + `{}` + "\n", 2},
		{"blank lines", "\n\r\n", 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, goldenID+checkpointExt)
			damaged := lines[0] + lines[1] + c.damage + strings.Join(lines[2:], "")
			if err := os.WriteFile(path, []byte(damaged), 0o644); err != nil {
				t.Fatal(err)
			}
			snap, err := readSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Results) != 3 || snap.State != StateDone || snap.Spec.Model != "BERT-Large" || snap.Skipped != c.skipped {
				t.Errorf("snapshot = %d cells, state %q, model %q, %d skipped; want 3 cells, done, BERT-Large, %d skipped",
					len(snap.Results), snap.State, snap.Spec.Model, snap.Skipped, c.skipped)
			}

			m, err := NewManager(dir, rooflineResolver(0), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			st, err := m.Get(goldenID, false)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone || st.Evaluated != 3 {
				t.Errorf("restored %+v, want done with 3 cells", st)
			}
		})
	}
}
