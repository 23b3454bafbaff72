package telemetry

import "sync"

// Decision is one scheduler decision in the ring: a fold commit, the
// winner, the final mark of a search cut off by its trial budget or
// cancelled, or the final done mark.
type Decision struct {
	// Kind is "commit", "winner", "cutoff", "cancelled" or "done".
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
	Trials           []Trial    `json:"trials"`
	Decisions        []Decision `json:"decisions"`
	TrialsDropped    int64      `json:"trialsDropped,omitempty"`
	DecisionsDropped int64      `json:"decisionsDropped,omitempty"`
}

// FlightRecorder is an Observer that keeps bounded rings of recent
// trials and scheduler decisions, cheap enough to run always-on so
// that a failed or cancelled run can attach its last moments as
// evidence. Methods are safe for concurrent use and no-ops on a nil
// receiver.
type FlightRecorder struct {
	mu     sync.Mutex
	trials ring[Trial]
	folds  ring[Progress] // labeled as Decisions by Snapshot
}

// NewFlightRecorder returns a recorder retaining the last n trials
// and the last n decisions (n <= 0 selects 64).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 64
	}
	return &FlightRecorder{
		trials: ring[Trial]{buf: make([]Trial, n)},
		folds:  ring[Progress]{buf: make([]Progress, n)},
	}
}

// Observe appends a trial or a fold heartbeat to its ring, evicting
// the oldest when full. Stage events are ignored. Heartbeats are kept
// raw and labeled only by Snapshot, so the search pays for a copy,
// not a classification.
func (f *FlightRecorder) Observe(e Event) {
	if f == nil {
		return
	}
	switch e.Kind {
	case KindTrial:
		f.mu.Lock()
		f.trials.push(e.Trial)
		f.mu.Unlock()
	case KindFold:
		f.mu.Lock()
		f.folds.push(e.Progress)
		f.mu.Unlock()
	}
}

// decisionOf classifies one fold heartbeat.
func decisionOf(p Progress) Decision {
	kind := "commit"
	switch {
	case !p.Done && p.Found:
		kind = "winner"
	case p.Cancelled:
		kind = "cancelled"
	case p.Done && !p.Found && p.Committed < p.Combos:
		kind = "cutoff"
	case p.Done:
		kind = "done"
	}
	return Decision{Kind: kind, Committed: p.Committed, Tries: p.Tries, Found: p.Found}
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
	if f.trials.n == 0 && f.folds.n == 0 {
		return nil
	}
	log := &FlightLog{
		Trials:           f.trials.slice(),
		TrialsDropped:    f.trials.dropped,
		DecisionsDropped: f.folds.dropped,
	}
	for _, p := range f.folds.slice() {
		log.Decisions = append(log.Decisions, decisionOf(p))
	}
	return log
}

// ring is a fixed-capacity overwrite ring.
type ring[T any] struct {
	buf     []T
	head    int // next write position
	n       int // live element count
	dropped int64
}

// push runs once per observed trial and fold, so it wraps the head
// with a compare rather than a modulo: a division by the ring's
// length costs several times the rest of the push.
func (r *ring[T]) push(v T) {
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
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
