package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"neusight/internal/loadgen"
)

// verifyEvery is how often a timed request's body is decoded and compared
// with the offline answer: 1 in 64. Every request is compared before timing.
const verifyEvery = 64

// sloLimit is the latency, from the instant a request was due, within which
// a paced request must be answered correctly to count towards slo_share.
const sloLimit = 20 * time.Millisecond

// newHTTPClient caps the connections to any one host at conns, which is
// nproc: with no more goroutines issuing requests than that, the client
// never holds more requests in flight than the box has cores.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// post sends rq to base and reads the whole answer into buf; a status
// outside 2xx is an error. With verify the answer is compared with rq.want.
func post(hc *http.Client, base string, rq *request, buf *bytes.Buffer, verify bool) error {
	resp, err := hc.Post(base+rq.Path, "application/json", bytes.NewReader(rq.Body))
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s: status %d: %.200s", rq.Path, resp.StatusCode, buf.Bytes())
	}
	if verify {
		if err := checkAnswer(rq, buf.Bytes()); err != nil {
			return parityError{fmt.Errorf("%s: %w", rq.Path, err)}
		}
	}
	return nil
}

// opFunc performs operation i of a workload on behalf of one worker and
// reports how many units of work it carried (1 for a request or a graph,
// the cell count for a plan job). Worker indexes let an op keep per-worker
// scratch without locking.
type opFunc func(worker int, i uint64, verify bool) (units int, err error)

// phase is what one stretch of driving measured. Latencies are of
// successful operations only, unsorted.
type phase struct {
	Elapsed   time.Duration
	Attempted int
	Failed    int
	Units     int             // units of work of the successful operations
	Lat       []time.Duration // one per successful operation
	Late      []time.Duration // paced only: how long after its due time each request was handed to a worker
	WithinSLO int             // paced only: successful operations answered within sloLimit of their due time
	Err       error           // the first failure, for the report
}

func (p *phase) merge(o *phase) {
	p.Attempted += o.Attempted
	p.Failed += o.Failed
	p.Units += o.Units
	p.Lat = append(p.Lat, o.Lat...)
	p.WithinSLO += o.WithinSLO
	if p.Err == nil {
		p.Err = o.Err
	}
}

func (p *phase) record(lat time.Duration, units int, err error) {
	p.Attempted++
	if err != nil {
		p.Failed++
		if p.Err == nil {
			p.Err = err
		}
		return
	}
	p.Units += units
	p.Lat = append(p.Lat, lat)
	if lat <= sloLimit {
		p.WithinSLO++
	}
}

// closedLoop drives op from `workers` goroutines, each issuing its next
// operation as soon as its previous one completes, until stop reports true;
// an operation in flight at that moment completes and counts. Operation
// indexes come from next, shared so that the pool is walked in one order.
// Latency is send to last byte.
func closedLoop(workers int, next *atomic.Uint64, stop func(issued uint64) bool, op opFunc) phase {
	parts := make([]phase, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if stop(i) {
					return
				}
				t0 := time.Now()
				units, err := op(w, i, i%verifyEvery == 0)
				parts[w].record(time.Since(t0), units, err)
			}
		}(w)
	}
	wg.Wait()
	total := phase{Elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// passLoop is closedLoop over the next n operations, starting where next
// stands. With verifyAll every answer is compared, not one in verifyEvery:
// the pre-timing parity check and the warm-up in one.
func passLoop(workers int, n uint64, next *atomic.Uint64, op opFunc, verifyAll bool) phase {
	from := next.Load()
	p := closedLoop(workers, next, func(i uint64) bool { return i >= from+n },
		func(w int, i uint64, verify bool) (int, error) { return op(w, i, verify || verifyAll) })
	next.Store(from + n) // workers overshoot the counter by one each when they stop
	return p
}

// pacedLoop offers operations on a schedule, whatever the target does: an
// open loop. The arrival process fixes every due time on an absolute
// timeline before the first send; one dispatcher sleeps until each is due
// and hands it to the `workers` sending goroutines, so a request that waits
// for a free connection is still on the clock. Latency is due time to last
// byte, and Late records how far behind schedule the dispatcher itself ran.
func pacedLoop(workers int, d time.Duration, arrival loadgen.Arrival, next *atomic.Uint64, op opFunc) phase {
	var offsets []time.Duration
	for at := arrival.Next(); at < d; at += arrival.Next() {
		offsets = append(offsets, at)
	}
	type job struct {
		i   uint64
		due time.Time
	}
	// Sized to the number of sends: the dispatcher must never block on a
	// slow target, or the loop would close.
	jobs := make(chan job, len(offsets))
	parts := make([]phase, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				units, err := op(w, j.i, j.i%verifyEvery == 0)
				parts[w].record(time.Since(j.due), units, err)
			}
		}(w)
	}
	start := time.Now()
	late := make([]time.Duration, 0, len(offsets))
	for _, off := range offsets {
		due := start.Add(off)
		sleepUntil(due)
		late = append(late, time.Since(due))
		jobs <- job{i: next.Add(1) - 1, due: due}
	}
	close(jobs)
	wg.Wait()
	total := phase{Elapsed: time.Since(start), Late: late}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// sleepUntil blocks the calling thread until t with nanosleep(2). The
// runtime's own time.Sleep is no use to a load generator: an idle Go
// process waits for its timers inside epoll_wait, whose timeout is in whole
// milliseconds, so a sleeping goroutine wakes up to a millisecond late
// (measured here: median 0.36 ms, p90 0.95 ms, against 0.10 ms and 0.18 ms
// with nanosleep) — as much as the latency being measured.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) only fires the request early by less than it would have been late
	}
}

// quantile returns the q-quantile of sorted by the nearest-rank rule on raw
// samples: the smallest value with at least q of the samples at or below
// it. No interpolation and no buckets, so the answer is always a value
// that was measured.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the middle value, or the mean of the two middle values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// millis converts and sorts a phase's latencies.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
