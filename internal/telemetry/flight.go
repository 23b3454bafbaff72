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
// tail of fold events, oldest first, as the ranks they committed and
// the decisions they record, plus the count of older fold events that
// scrolled off.
type FlightLog struct {
	Ranks     []Rank     `json:"ranks"`
	Decisions []Decision `json:"decisions"`
	Dropped   int64      `json:"dropped,omitempty"`
}

// FlightRecorder is an Observer that keeps a bounded ring of the
// search's recent fold events, one per committed rank and the final
// one, cheap enough to run always-on so that a failed or cancelled run
// can attach its last moments as evidence. Methods are safe for
// concurrent use and no-ops on a nil receiver.
type FlightRecorder struct {
	mu    sync.Mutex
	folds ring[fold]
}

// fold is one recorded fold event.
type fold struct {
	rank Rank
	p    Progress
}

// NewFlightRecorder returns a recorder retaining the last n fold
// events (n <= 0 selects 64).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 64
	}
	return &FlightRecorder{folds: ring[fold]{buf: make([]fold, n)}}
}

// Observe appends a fold event to the ring, evicting the oldest when
// full. Stage events are ignored. Heartbeats are kept raw and labeled
// only by Snapshot, so the search pays for a copy, not a
// classification.
func (f *FlightRecorder) Observe(e Event) {
	if f == nil || e.Kind != KindFold {
		return
	}
	f.mu.Lock()
	f.folds.push(fold{e.Rank, e.Progress})
	f.mu.Unlock()
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

// Snapshot copies the ring out, oldest first: every retained fold
// event as a decision, and each but the Done one as its rank. nil
// receiver and an empty recorder both return nil, so callers can
// attach the result unconditionally.
func (f *FlightRecorder) Snapshot() *FlightLog {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.folds.n == 0 {
		return nil
	}
	log := &FlightLog{Dropped: f.folds.dropped}
	for _, e := range f.folds.slice() {
		if !e.p.Done {
			log.Ranks = append(log.Ranks, e.rank)
		}
		log.Decisions = append(log.Decisions, decisionOf(e.p))
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

// push runs once per observed fold event, so it wraps the head
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
