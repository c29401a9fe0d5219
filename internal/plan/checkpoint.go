package plan

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"neusight/internal/jsonl"
)

// A plan job's checkpoint is an append-only JSONL file, one per job
// (<dir>/<id>.jsonl), on the shared crash-safe log (internal/jsonl):
// every line is flushed through before the write reports success,
// damaged lines are skipped at read time rather than voiding the file,
// and the first write error poisons the checkpoint permanently. Unlike
// the observe store the log needs no cap or compaction — a job's matrix
// is bounded by MaxMatrix, and each cell writes exactly one line.
//
// Line framing: the first line is a header carrying the job id and its
// normalized spec; each evaluated cell appends one result line; a
// terminal line seals the file with the job's final state. A file with
// no terminal line is a job that was running when the process died —
// exactly the jobs Resume picks up.
type checkpointLine struct {
	// Header line.
	Plan string `json:"plan,omitempty"`
	Spec *Spec  `json:"spec,omitempty"`
	// Result line.
	Result *Result `json:"result,omitempty"`
	// Terminal line.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// checkpointExt names job checkpoint files under the manager's directory.
const checkpointExt = ".jsonl"

// Checkpoint is one job's open on-disk log.
type Checkpoint struct {
	mu  sync.Mutex
	log *jsonl.Log
}

// createCheckpoint starts the checkpoint for a new job id, writing the
// header line through to disk before returning — a submitted job is a
// resumable job from its first instant.
func createCheckpoint(dir, id string, spec Spec) (*Checkpoint, error) {
	c, err := openCheckpoint(dir, id)
	if err != nil {
		return nil, err
	}
	if err := c.write(checkpointLine{Plan: id, Spec: &spec}); err != nil {
		c.log.Close()
		os.Remove(filepath.Join(dir, id+checkpointExt))
		return nil, err
	}
	return c, nil
}

// write appends one line and flushes it through to the file.
func (c *Checkpoint) write(line checkpointLine) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.log.Append(line); err != nil {
		return err
	}
	return c.log.Flush()
}

// Record persists one evaluated cell.
func (c *Checkpoint) Record(r Result) error {
	return c.write(checkpointLine{Result: &r})
}

// Seal writes the terminal state line and closes the file. A sealed
// "done" checkpoint is a completed job; a sealed "cancelled" one is
// resumable by re-submission of the unevaluated cells.
func (c *Checkpoint) Seal(state, errMsg string) error {
	werr := c.write(checkpointLine{State: state, Error: errMsg})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.log.Close(); werr == nil {
		werr = err
	}
	return werr
}

// openCheckpoint opens a job's checkpoint for append. On resume of a
// sealed one, new result lines and a fresh terminal line follow the old
// ones and replay takes the last terminal state, so resume needs no
// rewrite.
func openCheckpoint(dir, id string) (*Checkpoint, error) {
	log, err := jsonl.Open(filepath.Join(dir, id+checkpointExt))
	if err != nil {
		return nil, fmt.Errorf("plan: open checkpoint: %w", err)
	}
	return &Checkpoint{log: log}, nil
}

// Snapshot is the replayable content of one checkpoint file.
type Snapshot struct {
	ID      string
	Spec    Spec
	Results []Result // deduped by cell index, last write wins
	State   string   // terminal state, or "" when the job died mid-run
	Error   string
	Skipped int // damaged lines dropped
}

// readSnapshot replays one checkpoint file with the shared log's damage
// tolerance: corrupt, truncated, or overlong lines are skipped and
// counted; result lines arriving before the header or after a terminal
// line still count (a crash can interleave nothing — but a partially
// written header must not void the results that follow it on resume of a
// rewritten file).
func readSnapshot(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("plan: read checkpoint: %w", err)
	}
	defer f.Close()

	snap := Snapshot{ID: strings.TrimSuffix(filepath.Base(path), checkpointExt)}
	byIndex := map[int]Result{}
	snap.Skipped = jsonl.Scan(f, func(rec checkpointLine) bool {
		switch {
		case rec.Spec != nil:
			snap.Spec = *rec.Spec
		case rec.Result != nil:
			byIndex[rec.Result.Index] = *rec.Result
		case rec.State != "":
			snap.State, snap.Error = rec.State, rec.Error
		default:
			return false
		}
		return true
	})
	idxs := make([]int, 0, len(byIndex))
	for i := range byIndex {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		snap.Results = append(snap.Results, byIndex[i])
	}
	return snap, nil
}

// loadSnapshots replays every checkpoint under dir, oldest path first.
// Unreadable files are skipped — a restart must come up even over a
// damaged checkpoint directory.
func loadSnapshots(dir string) []Snapshot {
	paths, _ := filepath.Glob(filepath.Join(dir, "*"+checkpointExt))
	sort.Strings(paths)
	var snaps []Snapshot
	for _, p := range paths {
		snap, err := readSnapshot(p)
		if err != nil || snap.ID == "" {
			continue
		}
		snaps = append(snaps, snap)
	}
	return snaps
}
