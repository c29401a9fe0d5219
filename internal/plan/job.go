package plan

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neusight/internal/predict"
)

// Sentinel errors HTTP layers classify on: an unknown job id is a 404, a
// resume of a completed job a 409.
var (
	ErrNoJob   = errors.New("plan: no such job")
	ErrJobDone = errors.New("plan: job already done")
)

// Job states. A job is born running (submission starts evaluation), ends
// done when every cell is evaluated, cancelled when cut short (by DELETE,
// by process death, or by a failed engine resolve mid-run), and failed
// when it cannot start at all. Cancelled jobs with pending cells are
// resumable; done jobs are immutable.
const (
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
	StateFailed    = "failed"
)

// DefaultBatchSize is how many cells one dispatch batch carries; small
// enough that a killed member strands little work, large enough to
// amortize the fan-out round trip.
const DefaultBatchSize = 8

// DefaultWorkers is how many dispatch batches are in flight per job.
const DefaultWorkers = 8

// RankingPreview caps the ranking embedded in a running job's status; the
// full ranking ships once the job is done.
const RankingPreview = 10

// Dispatcher is the cluster's hook into the planner. The plan package
// must not import the cluster (the cluster imports plan for remote
// evaluation), so fan-out arrives as an interface: Assign names the
// member that owns a cell's (engine, GPU) shard ("" means evaluate
// locally), EvalRemote runs a batch on that member. A dispatcher error
// re-dispatches the batch to the local member — the survivor that
// noticed.
type Dispatcher interface {
	Assign(engine string, cfg Config) string
	EvalRemote(ctx context.Context, addr, engine string, spec Spec, cfgs []Config) ([]Result, error)
}

// Job is one plan run: the expanded matrix, the results recorded so far,
// and the lifecycle state. All fields behind mu.
type Job struct {
	mu      sync.Mutex
	id      string
	spec    Spec
	configs []Config // seed-shuffled evaluation order
	results map[int]Result
	state   string
	errMsg  string
	started time.Time
	elapsed time.Duration // accumulated across runs (resume adds)
	cancel  context.CancelFunc
	cp      *Checkpoint

	remoteCells  int
	redispatched int
}

// Status is a job's externally visible state — what GET /v2/plan/{id}
// returns.
type Status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Spec      Spec   `json:"spec"`
	Total     int    `json:"total"`
	Evaluated int    `json:"evaluated"`
	// RemoteCells counts cells evaluated by other cluster members.
	RemoteCells int `json:"remote_cells,omitempty"`
	// RedispatchedBatches counts batches whose owner failed mid-job and
	// were re-evaluated by this member.
	RedispatchedBatches int     `json:"redispatched_batches,omitempty"`
	ElapsedSec          float64 `json:"elapsed_sec"`
	ConfigsPerSec       float64 `json:"configs_per_sec,omitempty"`
	Error               string  `json:"error,omitempty"`
	// Ranking is the best-first evaluated cells: a RankingPreview-sized
	// preview while running, the full matrix once done.
	Ranking []Result `json:"ranking,omitempty"`
}

// Stats is the planner's aggregate state — the plan section of /v2/stats
// and the source of the neusight_plan_* metric families.
type Stats struct {
	Jobs                int    `json:"jobs"`
	Active              int    `json:"active"`
	Submitted           uint64 `json:"submitted"`
	Completed           uint64 `json:"completed"`
	Cancelled           uint64 `json:"cancelled"`
	Failed              uint64 `json:"failed"`
	ConfigsEvaluated    uint64 `json:"configs_evaluated"`
	RemoteBatches       uint64 `json:"remote_batches"`
	RemoteFailures      uint64 `json:"remote_failures"`
	RedispatchedBatches uint64 `json:"redispatched_batches"`
}

// Options tunes a Manager; zero values select the defaults.
type Options struct {
	BatchSize int
	Workers   int
}

// Manager owns a process's plan jobs: submission, polling, cancellation,
// resume, checkpoint restore, and the dispatch loop that fans batches
// across the cluster. Safe for concurrent use.
type Manager struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	dir      string // checkpoint directory; "" disables persistence
	resolve  func(name string) (predict.Engine, error)
	dispatch Dispatcher
	batch    int
	workers  int

	submitted      atomic.Uint64
	completed      atomic.Uint64
	cancelledCount atomic.Uint64
	failedCount    atomic.Uint64
	evaluated      atomic.Uint64
	remoteBatches  atomic.Uint64
	remoteFailures atomic.Uint64
	redispatched   atomic.Uint64
}

// NewManager builds a planner. resolve maps a spec's engine name ("" for
// the default) to the engine that prices its cells. dir, when non-empty,
// is created if needed and scanned for checkpoints from a previous
// process: completed jobs restore as done, everything else — including
// jobs that were running when the process died — restores as cancelled
// with its evaluated cells intact, ready for Resume.
func NewManager(dir string, resolve func(name string) (predict.Engine, error), opts Options) (*Manager, error) {
	if resolve == nil {
		return nil, fmt.Errorf("plan: manager needs an engine resolver")
	}
	m := &Manager{
		jobs:    map[string]*Job{},
		dir:     dir,
		resolve: resolve,
		batch:   opts.BatchSize,
		workers: opts.Workers,
	}
	if m.batch <= 0 {
		m.batch = DefaultBatchSize
	}
	if m.workers <= 0 {
		m.workers = DefaultWorkers
	}
	if dir == "" {
		return m, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plan: checkpoint dir: %w", err)
	}
	for _, snap := range loadSnapshots(dir) {
		spec := snap.Spec
		if spec.Normalize() != nil {
			continue // header lost or stale; results alone are not resumable
		}
		j := &Job{
			id:      snap.ID,
			spec:    spec,
			configs: Expand(spec),
			results: map[int]Result{},
			errMsg:  snap.Error,
		}
		for _, r := range snap.Results {
			j.results[r.Index] = r
		}
		switch snap.State {
		case StateDone:
			j.state = StateDone
		case StateFailed:
			j.state = StateFailed
		default:
			// Cancelled, or no terminal line at all — the crash case.
			j.state = StateCancelled
			if snap.State == "" && j.errMsg == "" {
				j.errMsg = "interrupted by process exit; resumable"
			}
		}
		m.jobs[snap.ID] = j
	}
	return m, nil
}

// SetDispatcher wires the cluster's fan-out hook; nil keeps every cell
// local. Called once at process wiring, before traffic.
func (m *Manager) SetDispatcher(d Dispatcher) {
	m.mu.Lock()
	m.dispatch = d
	m.mu.Unlock()
}

func (m *Manager) dispatcher() Dispatcher {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dispatch
}

// newJobID returns a fresh random job id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("plan-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Submit normalizes spec, expands its matrix, and starts evaluating
// immediately. The returned status is the job's birth state.
func (m *Manager) Submit(spec Spec) (Status, error) {
	if err := spec.Normalize(); err != nil {
		return Status{}, err
	}
	j := &Job{
		id:      newJobID(),
		spec:    spec,
		configs: Expand(spec),
		results: map[int]Result{},
		state:   StateRunning,
		started: time.Now(),
	}
	if m.dir != "" {
		cp, err := createCheckpoint(m.dir, j.id, spec)
		if err != nil {
			return Status{}, err
		}
		j.cp = cp
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	m.mu.Lock()
	m.jobs[j.id] = j
	m.mu.Unlock()
	m.submitted.Add(1)
	// Take the birth status before the run starts, as Resume does: a
	// small job can finish before a status taken after `go` is read.
	st := j.status(false)
	go m.run(ctx, j)
	return st, nil
}

// Resume restarts a cancelled job's unevaluated cells. Done and running
// jobs are not resumable.
func (m *Manager) Resume(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNoJob, id)
	}
	j.mu.Lock()
	if j.state == StateRunning {
		st := j.statusLocked(false)
		j.mu.Unlock()
		return st, nil
	}
	if j.state == StateDone {
		st := j.statusLocked(false)
		j.mu.Unlock()
		return st, fmt.Errorf("%w: %q", ErrJobDone, id)
	}
	if m.dir != "" {
		cp, err := openCheckpoint(m.dir, j.id)
		if err != nil {
			j.mu.Unlock()
			return Status{}, err
		}
		j.cp = cp
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.state = StateRunning
	j.errMsg = ""
	j.started = time.Now()
	st := j.statusLocked(false)
	j.mu.Unlock()
	go m.run(ctx, j)
	return st, nil
}

// Get returns a job's status; full includes the complete ranking even
// while the job is running.
func (m *Manager) Get(id string, full bool) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNoJob, id)
	}
	return j.status(full), nil
}

// Cancel cuts a running job short. The in-flight batches drain and the
// job seals as cancelled with its evaluated cells checkpointed — poll
// until State == cancelled to observe the seal. Cancelling a terminal
// job is a no-op returning its status.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNoJob, id)
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return j.status(false), nil
}

// List returns every job's summary status, newest submission first by id
// order stability (sorted by id; ids are random, the order is stable, not
// chronological).
func (m *Manager) List() []Status {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.status(false)
		st.Ranking = nil
		out = append(out, st)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Stats returns the planner's aggregate counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	jobs, active := len(m.jobs), 0
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			active++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	return Stats{
		Jobs:                jobs,
		Active:              active,
		Submitted:           m.submitted.Load(),
		Completed:           m.completed.Load(),
		Cancelled:           m.cancelledCount.Load(),
		Failed:              m.failedCount.Load(),
		ConfigsEvaluated:    m.evaluated.Load(),
		RemoteBatches:       m.remoteBatches.Load(),
		RemoteFailures:      m.remoteFailures.Load(),
		RedispatchedBatches: m.redispatched.Load(),
	}
}

// Close cancels every running job; it does not wait for the seals —
// callers that need them poll job status. Used by process shutdown.
func (m *Manager) Close() {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
}

// run is one job's dispatch loop: group the pending cells by the
// dispatcher's owner assignment, chunk each owner's cells into batches,
// fan the batches across a bounded worker pool, and record each result
// exactly once. A remote batch whose owner fails is re-dispatched to this
// member — the survivor — so a SIGKILLed owner loses no cells.
func (m *Manager) run(ctx context.Context, j *Job) {
	eng, err := m.resolve(j.spec.Engine)
	if err != nil {
		m.seal(j, StateFailed, err.Error())
		return
	}
	engineName := eng.Name()

	j.mu.Lock()
	pending := make([]Config, 0, len(j.configs))
	for _, cfg := range j.configs {
		if _, done := j.results[cfg.Index]; !done {
			pending = append(pending, cfg)
		}
	}
	j.mu.Unlock()

	// Group by owner preserving the shuffled evaluation order within each
	// owner, then chunk. A nil dispatcher sends everything local.
	d := m.dispatcher()
	owners := []string{}
	byOwner := map[string][]Config{}
	for _, cfg := range pending {
		addr := ""
		if d != nil {
			addr = d.Assign(engineName, cfg)
		}
		if _, ok := byOwner[addr]; !ok {
			owners = append(owners, addr)
		}
		byOwner[addr] = append(byOwner[addr], cfg)
	}
	type dispatchBatch struct {
		addr string
		cfgs []Config
	}
	var batches []dispatchBatch
	for _, addr := range owners {
		cells := byOwner[addr]
		for len(cells) > 0 {
			n := m.batch
			if n > len(cells) {
				n = len(cells)
			}
			batches = append(batches, dispatchBatch{addr: addr, cfgs: cells[:n]})
			cells = cells[n:]
		}
	}

	work := make(chan dispatchBatch)
	var wg sync.WaitGroup
	for w := 0; w < m.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				results, remote := m.evalBatch(ctx, d, eng, j, b.addr, b.cfgs)
				m.record(j, remote, results)
			}
		}()
	}
	for _, b := range batches {
		if ctx.Err() != nil {
			break
		}
		work <- b
	}
	close(work)
	wg.Wait()

	j.mu.Lock()
	remaining := len(j.configs) - len(j.results)
	j.mu.Unlock()
	switch {
	case remaining == 0:
		m.seal(j, StateDone, "")
	case ctx.Err() != nil:
		m.seal(j, StateCancelled, "")
	default:
		// Cells were neither evaluated nor cancelled — engine-level refusal
		// on every path. Cancelled keeps the job resumable.
		m.seal(j, StateCancelled, "evaluation stalled; resume to retry")
	}
}

// evalBatch runs one batch on its assigned owner, re-dispatching to the
// local engine when the remote member fails. remote reports where the
// results actually came from — a re-dispatched batch is local work.
func (m *Manager) evalBatch(ctx context.Context, d Dispatcher, eng predict.Engine, j *Job, addr string, cfgs []Config) (results []Result, remote bool) {
	if addr != "" && d != nil {
		m.remoteBatches.Add(1)
		results, err := d.EvalRemote(ctx, addr, eng.Name(), j.spec, cfgs)
		if err == nil {
			return results, true
		}
		m.remoteFailures.Add(1)
		if ctx.Err() != nil {
			return nil, false
		}
		m.redispatched.Add(1)
		j.mu.Lock()
		j.redispatched++
		j.mu.Unlock()
	}
	results, _ = EvaluateBatch(ctx, eng, j.spec, cfgs)
	return results, false
}

// record persists a batch's results, deduplicating by cell index so a
// cell reaching the job twice (a slow remote answer racing its
// re-dispatch) counts exactly once.
func (m *Manager) record(j *Job, remote bool, results []Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, r := range results {
		if _, dup := j.results[r.Index]; dup {
			continue
		}
		j.results[r.Index] = r
		if remote {
			j.remoteCells++
		}
		m.evaluated.Add(1)
		if j.cp != nil {
			j.cp.Record(r)
		}
	}
}

// seal moves a job to a terminal state, closes its checkpoint, and bumps
// the manager's counters.
func (m *Manager) seal(j *Job, state, errMsg string) {
	j.mu.Lock()
	j.state = state
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.elapsed += time.Since(j.started)
	j.cancel = nil
	cp := j.cp
	j.cp = nil
	j.mu.Unlock()
	if cp != nil {
		cp.Seal(state, errMsg)
	}
	switch state {
	case StateDone:
		m.completed.Add(1)
	case StateCancelled:
		m.cancelledCount.Add(1)
	case StateFailed:
		m.failedCount.Add(1)
	}
}

// status snapshots the job. full embeds the complete ranking; otherwise
// running jobs embed a RankingPreview-sized preview and terminal jobs the
// full ranking.
func (j *Job) status(full bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(full)
}

func (j *Job) statusLocked(full bool) Status {
	st := Status{
		ID:        j.id,
		State:     j.state,
		Spec:      j.spec,
		Total:     len(j.configs),
		Evaluated: len(j.results),
		// Counters below are per-job views of the dispatch loop.
		RemoteCells:         j.remoteCells,
		RedispatchedBatches: j.redispatched,
		Error:               j.errMsg,
	}
	elapsed := j.elapsed
	if j.state == StateRunning {
		elapsed += time.Since(j.started)
	}
	st.ElapsedSec = elapsed.Seconds()
	if st.ElapsedSec > 0 {
		st.ConfigsPerSec = float64(st.Evaluated) / st.ElapsedSec
	}
	results := make([]Result, 0, len(j.results))
	for _, r := range j.results {
		results = append(results, r)
	}
	st.Ranking = Rank(results)
	if !full && j.state == StateRunning && len(st.Ranking) > RankingPreview {
		st.Ranking = st.Ranking[:RankingPreview]
	}
	return st
}
