package telemetry

import "sync"

// TrialRecord is one trial summary in the flight recorder's ring.
type TrialRecord struct {
	// Rank and Trial locate the trial in the search's deterministic
	// order; Worker is the goroutine that ran it (-1 repair path).
	Rank   int `json:"rank"`
	Trial  int `json:"trial"`
	Worker int `json:"worker"`
	// Steps are the trial's executed steps; Found marks a trial that
	// reproduced the target failure.
	Steps int64 `json:"steps"`
	Found bool  `json:"found,omitempty"`
}

// Decision is one scheduler decision in the ring: a fold commit, the
// winner, the cutoff, or the final done mark.
type Decision struct {
	// Kind is "commit", "winner", "cutoff" or "done".
	Kind string `json:"kind"`
	// Committed is the fold's consumed-rank count at the decision;
	// Tries the folded sequential-equivalent try count.
	Committed int  `json:"committed"`
	Tries     int  `json:"tries"`
	Found     bool `json:"found,omitempty"`
}

// FlightLog is a JSON-able snapshot of the recorder: the retained
// trial and decision tails, oldest first, plus the drop counts that
// say how much history scrolled off.
type FlightLog struct {
	Trials           []TrialRecord `json:"trials"`
	Decisions        []Decision    `json:"decisions"`
	TrialsDropped    int64         `json:"trialsDropped,omitempty"`
	DecisionsDropped int64         `json:"decisionsDropped,omitempty"`
}

// FlightRecorder keeps bounded rings of recent trial summaries and
// scheduler decisions, cheap enough to run always-on so that a failed
// or cancelled run can attach its last moments as evidence. Methods
// are safe for concurrent use and no-ops on a nil receiver.
type FlightRecorder struct {
	mu        sync.Mutex
	trials    ring[TrialRecord]
	decisions ring[Decision]
}

// NewFlightRecorder returns a recorder retaining the last n trials
// and the last n decisions (n <= 0 selects 64).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 64
	}
	return &FlightRecorder{
		trials:    ring[TrialRecord]{buf: make([]TrialRecord, n)},
		decisions: ring[Decision]{buf: make([]Decision, n)},
	}
}

// RecordTrial appends a trial summary, evicting the oldest when full.
func (f *FlightRecorder) RecordTrial(r TrialRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.trials.push(r)
	f.mu.Unlock()
}

// RecordDecision appends a scheduler decision.
func (f *FlightRecorder) RecordDecision(d Decision) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.decisions.push(d)
	f.mu.Unlock()
}

// Snapshot copies the rings out, oldest first. nil receiver and an
// empty recorder both return nil, so callers can attach the result
// unconditionally.
func (f *FlightRecorder) Snapshot() *FlightLog {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.trials.n == 0 && f.decisions.n == 0 {
		return nil
	}
	return &FlightLog{
		Trials:           f.trials.slice(),
		Decisions:        f.decisions.slice(),
		TrialsDropped:    f.trials.dropped,
		DecisionsDropped: f.decisions.dropped,
	}
}

// ring is a fixed-capacity overwrite ring.
type ring[T any] struct {
	buf     []T
	head    int // next write position
	n       int // live element count
	dropped int64
}

func (r *ring[T]) push(v T) {
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.dropped++
	}
}

func (r *ring[T]) slice() []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, 0, r.n)
	start := (r.head - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
