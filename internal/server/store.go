package server

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"heisendump/internal/telemetry"
)

// store is the in-process results store: jobs by id, plus the
// (tenant, job_key) idempotency index. Completed jobs are retained
// for the configured TTL and then evicted — lazily on access, and by
// a sweep the server's janitor runs. The clock is injected so TTL
// tests don't sleep.
type store struct {
	mu   sync.Mutex
	ttl  time.Duration
	now  func() time.Time
	jobs map[string]*job
	keys map[string]string // tenant+"\x00"+job_key -> job id
	// expiry holds the finished jobs not yet evicted, earliest eviction
	// first: a sweep pops the expired ones off its front and touches no
	// other job, so admit and get cost the same with 10 resident jobs
	// as with 10,000.
	expiry   expiryQueue
	nextID   uint64
	finishes uint64 // finish order, which breaks ties in expiry
	// evicted counts TTL evictions (stats).
	evicted uint64
}

func newStore(ttl time.Duration, now func() time.Time) *store {
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	return &store{
		ttl:  ttl,
		now:  now,
		jobs: make(map[string]*job),
		keys: make(map[string]string),
	}
}

func keyIndex(tenant, key string) string { return tenant + "\x00" + key }

// admit registers a new job, or returns the existing one when the
// tenant's idempotency key is already bound (dup=true). The caller
// constructs j fully except id/submitted/done, which admit assigns.
func (s *store) admit(j *job) (existing *job, dup bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	if j.key != "" {
		if id, ok := s.keys[keyIndex(j.tenant, j.key)]; ok {
			if prev, ok := s.jobs[id]; ok {
				return prev, true
			}
		}
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	j.submitted = s.now()
	j.state = StateQueued
	j.done = make(chan struct{})
	s.jobs[j.id] = j
	if j.key != "" {
		s.keys[keyIndex(j.tenant, j.key)] = j.id
	}
	return j, false
}

// get looks a job up, applying lazy TTL eviction.
func (s *store) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	return s.jobs[id]
}

// finish stamps the terminal state and schedules eviction TTL from
// now. A job finished again keeps its place in line by its new
// expiry; one already evicted stays evicted.
func (s *store) finish(j *job, rep *JobReport, errp *ErrorPayload) {
	now := s.now()
	j.finish(now, rep, errp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[j.id] != j {
		return
	}
	j.expires = now.Add(s.ttl)
	s.finishes++
	j.finishSeq = s.finishes
	if j.expirySlot > 0 {
		heap.Fix(&s.expiry, j.expirySlot-1)
	} else {
		heap.Push(&s.expiry, j)
	}
}

// sweep evicts expired jobs (the janitor entry point).
func (s *store) sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
}

// sweepLocked evicts the jobs whose eviction time has passed, oldest
// first.
func (s *store) sweepLocked() {
	now := s.now()
	for len(s.expiry) > 0 && now.After(s.expiry[0].expires) {
		j := heap.Pop(&s.expiry).(*job)
		delete(s.jobs, j.id)
		if j.key != "" {
			delete(s.keys, keyIndex(j.tenant, j.key))
		}
		s.evicted++
		telemetry.ServerStoreEvictions.Inc()
	}
}

// expiryQueue is a min-heap of finished jobs by eviction time, ties in
// finish order. Each job records its position (job.expirySlot) so a
// job finished twice can move.
type expiryQueue []*job

func (q expiryQueue) Len() int { return len(q) }

func (q expiryQueue) Less(a, b int) bool {
	if !q[a].expires.Equal(q[b].expires) {
		return q[a].expires.Before(q[b].expires)
	}
	return q[a].finishSeq < q[b].finishSeq
}

func (q expiryQueue) Swap(a, b int) {
	q[a], q[b] = q[b], q[a]
	q[a].expirySlot, q[b].expirySlot = a+1, b+1
}

func (q *expiryQueue) Push(x any) {
	j := x.(*job)
	*q = append(*q, j)
	j.expirySlot = len(*q)
}

func (q *expiryQueue) Pop() any {
	old := *q
	j := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	j.expirySlot = 0
	return j
}

// StoreStats is the /v1/stats results-store section.
type StoreStats struct {
	Jobs     int    `json:"jobs"`
	Evicted  uint64 `json:"evicted"`
	TTLMS    int64  `json:"ttl_ms"`
	Terminal int    `json:"terminal"`
}

func (s *store) stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Every terminal job waits in the expiry queue until it is evicted.
	return StoreStats{Jobs: len(s.jobs), Evicted: s.evicted, TTLMS: s.ttl.Milliseconds(), Terminal: len(s.expiry)}
}
