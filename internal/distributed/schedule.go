package distributed

import "fmt"

// PipelineSchedule selects how micro-batches interleave across pipeline
// stages. The paper evaluates GPipe and notes the framework "can be easily
// extended to other schedules" (Section 5.1); 1F1B (PipeDream-flush) is
// the standard alternative.
type PipelineSchedule int

// Supported pipeline schedules.
const (
	// GPipe runs all forward micro-batches, then all backward ones; both
	// phases pay the (stages-1)-slot bubble.
	GPipe PipelineSchedule = iota
	// OneFOneB interleaves one forward with one backward micro-batch in
	// steady state (PipeDream-flush). Its iteration latency equals
	// GPipe's — both schedules idle (stages-1) slots per phase — but each
	// stage holds at most `stages` micro-batch activations instead of all
	// m, which changes what fits in memory.
	OneFOneB
)

// String names the schedule.
func (s PipelineSchedule) String() string {
	switch s {
	case GPipe:
		return "GPipe"
	case OneFOneB:
		return "1F1B"
	default:
		return fmt.Sprintf("PipelineSchedule(%d)", int(s))
	}
}

// pipelineSlots returns the compute latency of a pipeline iteration given
// the per-micro-batch per-stage forward and backward times.
func pipelineSlots(sched PipelineSchedule, m, stages int, stageFwd, stageBwd float64) (float64, error) {
	if m < 1 || stages < 1 {
		return 0, fmt.Errorf("distributed: invalid pipeline shape m=%d stages=%d", m, stages)
	}
	slots := float64(m + stages - 1)
	switch sched {
	case GPipe, OneFOneB:
		// Both schedules occupy m + stages - 1 slots per phase; 1F1B's
		// advantage is activation memory, not iteration time.
		return slots * (stageFwd + stageBwd), nil
	default:
		return 0, fmt.Errorf("distributed: unknown schedule %v", sched)
	}
}
