package server

import (
	"sync"

	"heisendump"
	"heisendump/internal/telemetry"
)

// Event is one entry of a job's progress stream, surfaced over SSE.
// Seq is dense and starts at 1 per job, so a client that reconnects
// can detect ring-buffer loss (a gap below its last-seen Seq).
type Event struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"` // "stage", "heartbeat" or "done"
	// Stage is the name of the stage that began (type "stage"):
	// provoke, align, aligned-dump, diff, prioritize, candidates or
	// search.
	Stage string `json:"stage,omitempty"`
	// Heartbeat is the schedule-search snapshot (type "heartbeat").
	// The event stream guarantees one per committed worklist rank with
	// monotone counters, then one with Done set; the hub preserves that
	// order.
	Heartbeat *heisendump.SearchProgress `json:"heartbeat,omitempty"`
	// Status is the terminal job status (type "done", the stream's
	// final event).
	Status *JobStatus `json:"status,omitempty"`
}

// Event types.
const (
	EventStage     = "stage"
	EventHeartbeat = "heartbeat"
	EventDone      = "done"
)

// hub buffers one job's events in a bounded ring and broadcasts
// appends to any number of SSE subscribers. Appends never block on
// slow consumers: a consumer that falls more than cap(events) behind
// observes a Seq gap instead of backpressuring the search (heartbeats
// are delivered with search locks held, so blocking here would stall
// the reproduction itself).
type hub struct {
	mu     sync.Mutex
	cap    int
	events []Event // ring contents, oldest first
	base   uint64  // Seq of events[0]
	next   uint64  // Seq the next append gets
	closed bool
	notify chan struct{} // closed+replaced on every append
}

func newHub(capacity int) *hub {
	if capacity <= 0 {
		capacity = 1024
	}
	return &hub{cap: capacity, base: 1, next: 1, notify: make(chan struct{})}
}

// append stamps the event's Seq and wakes subscribers.
func (h *hub) append(e Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	e.Seq = h.next
	h.next++
	h.events = append(h.events, e)
	if len(h.events) > h.cap {
		drop := len(h.events) - h.cap
		h.events = h.events[drop:]
		h.base += uint64(drop)
		telemetry.ServerSSEDropped.Add(int64(drop))
	}
	ch := h.notify
	h.notify = make(chan struct{})
	h.mu.Unlock()
	close(ch)
}

// close marks the stream complete (after the final "done" event) and
// wakes subscribers one last time.
func (h *hub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	ch := h.notify
	h.mu.Unlock()
	close(ch)
}

// since returns the retained events with Seq > after, whether the
// stream has closed, and a channel that is closed on the next append
// (or close). A caller that asked for evicted history gets the oldest
// retained events — it can see the loss in the Seq numbers. Any after
// at or past the last Seq, up to the largest uint64, gets none.
func (h *hub) since(after uint64) (evs []Event, closed bool, wake <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var start uint64 // retained events with Seq <= after
	if after >= h.base {
		start = after - h.base + 1
	}
	if start < uint64(len(h.events)) {
		evs = append(evs, h.events[start:]...)
	}
	return evs, h.closed, h.notify
}

// observer adapts the hub to the Session's event stream: each stage
// begin becomes a "stage" frame and each fold heartbeat a "heartbeat"
// frame carrying its Progress (the rank summary stays in the flight
// recorder); stage-end events are not streamed. Stage events arrive on
// the run's goroutine; heartbeats arrive from search goroutines with
// internal locks held — append is a bounded O(1) critical section,
// satisfying the "must be fast" requirement.
type observer struct{ h *hub }

func (o observer) Observe(e heisendump.Event) {
	switch e.Kind {
	case heisendump.EventStageBegin:
		o.h.append(Event{Type: EventStage, Stage: e.Stage})
	case heisendump.EventFold:
		hb := e.Progress
		o.h.append(Event{Type: EventHeartbeat, Heartbeat: &hb})
	}
}
