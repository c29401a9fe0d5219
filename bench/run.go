package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The measurement protocol, the same for every workload: train once, set
// the workload up setupRuns times over, keep the last instance, then
// measure slice after slice — each the same work: a whole number of passes
// over the pool, or the same stretch of the paced schedule — with a burst of
// the reference operation (cal.go) before the first and after every one, and
// report each metric as the median of its slices' values, each brought to
// the reference speed by the bursts on either side of it.
//
// All of that because of where this runs. The reference box is a 2-vCPU VM
// on a shared host, and the same fixed CPU work takes 0.4 ms one moment,
// 0.9 ms most of the time and 2 ms for a quarter of a minute now and then:
// raw rates and times of identical runs spread 5–30% between their
// quartiles. The slowdown is the host's, so it hits the reference operation
// — frozen code in this directory, shaped like a request: JSON in, a small
// network, a map, JSON out, over the same connections into the same process
// — as it hits the program, and dividing one by the other takes most of it
// out (README.md, Protocol). Many short slices rather than a few long ones so
// that the bursts stand close to what they correct, and a median over them
// so that a spell the bursts missed is outvoted.
const (
	sliceSeconds = 0.4 // one chunk of work and the burst that follows it
	calShare     = 0.2 // of the measured seconds, spent on the reference operation
	setupRuns    = 3
)

// options are what the command line fixes for a run.
type options struct {
	seed    int64
	seconds float64 // measured time per workload, split evenly into slices
	trace   bool
	// modelDir, when set, names an already trained model to use instead of
	// training one. Tests set it; the command never does, so the setup_s it
	// reports always includes training.
	modelDir string
	setups   int
}

// env is what a run shares across its workloads.
type env struct {
	options
	nproc int
	// childProcs is the GOMAXPROCS the last server child reported; 0 when
	// every workload of the run was in-process.
	childProcs int
	root       string // the checkout root, where BENCHMARK.json lives
	out        string // bench/out
	tmp        string // scratch under out, removed when the run ends
}

// stat is one reported metric: the median of its per-slice values, their
// quartiles and range, and how many raw samples stand behind them.
type stat struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Slices  int     `json:"slices"`
	Samples int     `json:"samples"`
}

func statOf(unit string, vals []float64, samples int) stat {
	s := stat{Value: median(vals), Unit: unit, Slices: len(vals), Samples: samples}
	if len(vals) > 0 {
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
		s.Q1, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.75)
	}
	return s
}

// result is what one workload reported.
type result struct {
	Workload  string          `json:"workload"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
	// Raw holds, for an untraced run, the host's speed over the slices by
	// the reference operation's wall clock (host_speed) and the time metrics
	// as the clocks read them, before they were brought to the reference
	// speed.
	Raw map[string]stat `json:"raw,omitempty"`
}

// maxFailShare is the share of attempted operations that may fail before
// the run itself fails; the baseline is 0.
const maxFailShare = 0.001

// parityError marks a failure of the correctness check, as opposed to a
// refused or broken request.
type parityError struct{ err error }

func (e parityError) Error() string { return e.err.Error() }
func (e parityError) Unwrap() error { return e.err }

// setUp performs a workload's set-up and returns the instance with the
// set-up times it saw. Training and saving the model, and the harness's own
// preparation (the pool and its offline answers), happen once; what the
// program under test does to come up — start the child, load the model,
// answer one verified pass over the pool, which warms it — is done e.setups
// times over. Each sample is the once-only time plus one of those, so the
// reported median is benchmark start to first measured operation. The
// once-only part is not repeated because it alone is a quarter of a run's
// whole time budget.
func (e *env) setUp(w workload) (*instance, []float64, error) {
	start := time.Now()
	dir := e.modelDir
	if dir == "" {
		dir = filepath.Join(e.tmp, "model-"+w.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		if err := trainAndSave(dir); err != nil {
			return nil, nil, err
		}
	}
	boot, err := w.prepare(e, dir)
	if err != nil {
		return nil, nil, err
	}
	once := time.Since(start)
	var secs []float64
	for s := 0; ; s++ {
		start := time.Now()
		in, err := boot()
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, (once + time.Since(start)).Seconds())
		if s == e.setups-1 {
			return in, secs, nil
		}
		if err := in.close(); err != nil {
			return nil, nil, err
		}
	}
}

// slicing is how a run's measured seconds are cut up: n slices of equal
// work, each driven in chunks with a burst of the reference operation after
// every chunk.
type slicing struct {
	n      int
	chunks []uint64      // closed loop: the operations of a slice, chunk by chunk; together whole passes over the pool
	each   time.Duration // open loop: the stretch of schedule per slice, one chunk
	burst  burst         // the zero burst: none, every speed reads 1
}

// minSlices is the fewest slices a run is cut into, however long a pass
// over the pool takes.
const minSlices = 3

// slicing cuts seconds into about want slices of equal work, with calShare
// of the time left for the bursts of the reference operation around them. A
// closed loop is sized by one untimed pass over the pool: a slice is the
// whole number of passes that comes nearest to its share of the time, so
// every slice carries exactly the same operations and slices compare like
// with like. A slice that is longer than its share, because one pass is, is
// driven in chunks of about that share, the same cuts in every slice.
func (in *instance) slicing(seconds float64, want int, calShare float64) (slicing, error) {
	sl := slicing{n: want}
	each := seconds * (1 - calShare) / float64(want)
	bursts := want + 1
	if in.arrival != nil {
		sl.each = time.Duration(each * float64(time.Second))
	} else {
		pass := passLoop(in.workers, in.poolLen, &in.next, in.op, false).Elapsed.Seconds()
		k := max(1, math.Round(each/pass))
		sl.n = min(want, max(minSlices, int(seconds*(1-calShare)/(k*pass))))
		ops, chunks := uint64(k)*in.poolLen, uint64(max(1, math.Round(k*pass/each)))
		for c := uint64(0); c < chunks; c++ {
			sl.chunks = append(sl.chunks, ops*(c+1)/chunks-ops*c/chunks)
		}
		bursts = sl.n*len(sl.chunks) + 1
	}
	if calShare == 0 {
		return sl, nil
	}
	var err error
	sl.burst, err = in.sizeBurst(seconds * calShare / float64(bursts))
	return sl, err
}

// cut is one measured slice: what the client saw, raw, and the same brought
// to the reference speed chunk by chunk — a chunk that ran while the host
// was at speed v did in t seconds what the reference box does in t×v.
type cut struct {
	phase
	cpu        float64   // CPU seconds of the program under test
	refElapsed float64   // seconds, at the reference speed
	refCPU     float64   // CPU seconds, at the reference speed
	refLat     []float64 // ms per successful operation, at the reference speed, unsorted
}

// measure drives the instance slice by slice, chunk by chunk, with a burst
// of the reference operation before the first chunk and after every one; a
// chunk's speed is the mean of the bursts on either side of it. It records
// the program's CPU clock and allocation count at both ends of every chunk,
// so that the bursts stay out of them, and the full counters at both ends
// of the whole. before, when set, runs ahead of the given slice.
func (in *instance) measure(sl slicing, withMem bool, before func(slice int) error) (delta, error) {
	var d delta
	var err error
	clientCPU := readProc(false).CPUSec
	if d.before, err = in.snapshot(withMem); err != nil {
		return d, err
	}
	ahead, err := in.speed(sl.burst)
	if err != nil {
		return d, err
	}
	chunks := sl.chunks
	if in.arrival != nil {
		chunks = []uint64{0}
	}
	for s := 0; s < sl.n; s++ {
		if before != nil {
			if err := before(s); err != nil {
				return d, err
			}
		}
		var c cut
		for _, ops := range chunks {
			p0, err := in.proc(withMem)
			if err != nil {
				return d, err
			}
			var ph phase
			if in.arrival != nil {
				ph = pacedLoop(in.workers, sl.each, in.arrival, &in.next, in.op)
			} else {
				ph = passLoop(in.workers, ops, &in.next, in.op, false)
			}
			p1, err := in.proc(withMem)
			if err != nil {
				return d, err
			}
			behind, err := in.speed(sl.burst)
			if err != nil {
				return d, err
			}
			v := ahead.mean(behind)
			ahead = behind
			c.merge(&ph)
			c.Elapsed += ph.Elapsed
			c.Late = append(c.Late, ph.Late...)
			c.cpu += p1.CPUSec - p0.CPUSec
			c.refElapsed += ph.Elapsed.Seconds() * v.wall
			c.refCPU += (p1.CPUSec - p0.CPUSec) * v.cpu
			for _, l := range ph.Lat {
				c.refLat = append(c.refLat, float64(l)/float64(time.Millisecond)*v.wall)
			}
			d.mallocs += p1.Mallocs - p0.Mallocs
		}
		d.slices = append(d.slices, c)
		d.client.merge(&c.phase)
		d.client.Elapsed += c.Elapsed
		d.client.Late = append(d.client.Late, c.Late...)
	}
	d.after, err = in.snapshot(withMem)
	d.clientCPU = readProc(false).CPUSec - clientCPU
	return d, err
}

// runWorkload sets w up, measures it untraced, checks it, and reports the
// end-to-end metrics, every time in them at the reference speed. The
// offered rate of an open loop is the schedule's, not the host's, and is
// reported as it was. Set-up times are brought to the CPU speed of the run
// as a whole, the median over its slices: set-up is a busy process whatever
// the workload, nothing finer was measured during it, and it is the slow
// quarters of an hour, not the short spells, that move a median of set-up
// times. The raw values stand beside them in result.json.
func (e *env) runWorkload(w workload) (*result, error) {
	in, setupSecs, err := e.setUp(w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()

	sl, err := in.slicing(e.seconds, max(minSlices, int(math.Round(e.seconds/sliceSeconds))), calShare)
	if err != nil {
		return nil, err
	}
	d, err := in.measure(sl, true, nil)
	if err != nil {
		return nil, err
	}
	var ops, p90, cpu, rawOps, rawP90, rawCPU, speed, cpuSpeed []float64
	for _, c := range d.slices {
		if c.Units == 0 {
			continue
		}
		units := float64(c.Units)
		rawOps = append(rawOps, units/c.Elapsed.Seconds())
		rawP90 = append(rawP90, quantile(millis(c.Lat), 0.90))
		rawCPU = append(rawCPU, 1e3*c.cpu/units)
		ops = append(ops, units/c.refElapsed)
		if in.arrival != nil {
			ops[len(ops)-1] = units / c.Elapsed.Seconds()
		}
		sort.Float64s(c.refLat)
		p90 = append(p90, quantile(c.refLat, 0.90))
		cpu = append(cpu, 1e3*c.refCPU/units)
		speed = append(speed, c.refElapsed/c.Elapsed.Seconds())
		if c.cpu > 0 { // the CPU clock ticks in ms: a slice of a few can read none
			cpuSpeed = append(cpuSpeed, c.refCPU/c.cpu)
		}
	}
	rawSetup := append([]float64(nil), setupSecs...)
	if v := median(cpuSpeed); v > 0 {
		for i := range setupSecs {
			setupSecs[i] *= v
		}
	}
	res := &result{Workload: w.name, Attempted: d.client.Attempted, Failed: d.client.Failed, Correct: true}
	n := len(d.client.Lat)
	res.Metrics = map[string]stat{
		"setup_s":       statOf("s", setupSecs, len(setupSecs)),
		"ops_per_s":     statOf("1/s", ops, n),
		"p90_ms":        statOf("ms", p90, n),
		"cpu_ms_per_op": statOf("ms", cpu, n),
		"allocs_per_op": statOf("count", []float64{d.allocsPerOp()}, n),
	}
	res.Raw = map[string]stat{
		"host_speed":    statOf("share", speed, len(speed)),
		"setup_s":       statOf("s", rawSetup, len(rawSetup)),
		"ops_per_s":     statOf("1/s", rawOps, n),
		"p90_ms":        statOf("ms", rawP90, n),
		"cpu_ms_per_op": statOf("ms", rawCPU, n),
	}
	return res, judge(in, d, res)
}

// maxClientCPUShare is the share of all CPU spent (client + program under
// test) above which a run measures its own loader. maxLateP90 is the
// generator lateness, in ms, above which a paced run no longer offers the
// schedule it claims: a quarter of the 20 ms a request has to be answered
// in. With nanosleep the generator hands requests over a median 0.10 ms and
// a p90 of 0.2 ms late on a calm box (the runtime's own sleep, which it
// replaced: 0.36 ms and 0.95 ms); when the host takes the CPU away in
// bursts the p90 reads 1–2 ms with nothing wrong in the loader, and the
// p99 2–6 ms, which is why the gate is neither tighter nor on the p99.
const (
	maxClientCPUShare = 0.5
	maxLateP90        = 5.0
)

// judge turns a workload's self-checks into failures: a parity mismatch,
// more failed operations than maxFailShare, a loader that used more CPU
// than the program or ran behind its schedule, or a violated precondition
// of the workload's own.
func judge(in *instance, d delta, res *result) error {
	var pe parityError
	if errors.As(d.client.Err, &pe) {
		res.Correct = false
		return fmt.Errorf("fail_share: an answer failed the parity check: %w", d.client.Err)
	}
	if res.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	if share := float64(res.Failed) / float64(res.Attempted); share > maxFailShare {
		return fmt.Errorf("fail_share is %.4f (%d of %d), want at most %g; first failure: %w",
			share, res.Failed, res.Attempted, maxFailShare, d.client.Err)
	}
	if s := d.clientCPUShare(); in.child != nil && s > maxClientCPUShare {
		return fmt.Errorf("client.cpu_share is %.3f, want at most %.2f: the numbers measure the loader", s, maxClientCPUShare)
	}
	if l := d.late(0.90); l > maxLateP90 {
		return fmt.Errorf("client.late_p90_ms is %.3f, want at most %g: the generator ran behind its schedule", l, maxLateP90)
	}
	if in.check != nil {
		return in.check(d)
	}
	return nil
}

// fingerprint describes where and on what a result was measured.
type fingerprint struct {
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs_client"`
	ChildGOMAXPROCS int     `json:"gomaxprocs_child"`
	GoVersion       string  `json:"go_version"`
	Kernel          string  `json:"kernel"`
	Commit          string  `json:"commit"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	When            string  `json:"when"`
}

func (e *env) fingerprint() fingerprint {
	f := fingerprint{
		NProc: e.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), ChildGOMAXPROCS: e.childProcs,
		GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown",
		Seed: e.seed, Seconds: e.seconds, When: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	// A benchmark checkout need not be a git repository; when it is, HEAD
	// names either a commit or the ref file that holds one.
	if head, err := os.ReadFile(filepath.Join(e.root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(e.root, ".git", name)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		f.Commit = ref
	}
	return f
}
