package server

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded settable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestStoreIdempotencyKey(t *testing.T) {
	clk := newFakeClock()
	s := newStore(time.Minute, clk.now)

	j1, dup := s.admit(&job{tenant: "a", key: "k1"})
	if dup {
		t.Fatal("first admit reported dup")
	}
	j2, dup := s.admit(&job{tenant: "a", key: "k1"})
	if !dup || j2 != j1 {
		t.Fatalf("same (tenant,key) did not dedupe: dup=%v", dup)
	}
	// Same key under a different tenant is a different job.
	j3, dup := s.admit(&job{tenant: "b", key: "k1"})
	if dup || j3 == j1 {
		t.Fatal("idempotency keys leaked across tenants")
	}
	// No key, no dedupe.
	j4, _ := s.admit(&job{tenant: "a"})
	j5, _ := s.admit(&job{tenant: "a"})
	if j4 == j5 {
		t.Fatal("keyless jobs deduped")
	}
}

// TestStoreTTLEviction pins the results-store lifecycle: a finished
// job stays fetchable for the TTL, then evicts (lazily on access),
// freeing its idempotency key for re-admission. Running jobs never
// evict.
func TestStoreTTLEviction(t *testing.T) {
	clk := newFakeClock()
	s := newStore(time.Minute, clk.now)

	j, _ := s.admit(&job{tenant: "a", key: "k"})
	id := j.id
	s.finish(j, &JobReport{Outcome: OutcomeFound}, nil)

	clk.advance(59 * time.Second)
	if s.get(id) == nil {
		t.Fatal("evicted before TTL")
	}
	clk.advance(2 * time.Second)
	if s.get(id) != nil {
		t.Fatal("still fetchable after TTL")
	}
	if s.stats().Evicted != 1 {
		t.Fatalf("evicted counter: %+v", s.stats())
	}
	// The key is free again: re-admitting is a fresh job, not a dup.
	j2, dup := s.admit(&job{tenant: "a", key: "k"})
	if dup || j2.id == id {
		t.Fatalf("key not released on eviction: dup=%v id=%s", dup, j2.id)
	}

	// A job that never finishes is never evicted.
	j3, _ := s.admit(&job{tenant: "a", key: "live"})
	clk.advance(time.Hour)
	s.sweep()
	if s.get(j3.id) == nil {
		t.Fatal("running job evicted")
	}
}

// TestStoreSweepEvictsExpiredOldestFirst finishes jobs in an order
// unrelated to their admission, one clock second apart (two at the
// same instant), and then moves the injected clock forward in uneven
// steps: after each sweep exactly the jobs whose eviction time has
// passed are gone, which are always the earliest-finished ones, their
// idempotency keys are free again, and a job that never finished
// stays.
func TestStoreSweepEvictsExpiredOldestFirst(t *testing.T) {
	clk := newFakeClock()
	s := newStore(time.Minute, clk.now)
	var jobs []*job
	for i := 0; i < 12; i++ {
		j, _ := s.admit(&job{tenant: "a", key: fmt.Sprintf("k%d", i)})
		jobs = append(jobs, j)
	}
	running, _ := s.admit(&job{tenant: "a", key: "running"})
	// order[k] finishes at second k, except that the last two finish
	// together.
	order := []int{5, 2, 9, 0, 11, 7, 3, 10, 1, 8, 4, 6}
	for k, i := range order {
		if k > 0 && k < len(order)-1 {
			clk.advance(time.Second)
		}
		s.finish(jobs[i], &JobReport{Outcome: OutcomeFound}, nil)
	}
	if st := s.stats(); st.Jobs != 13 || st.Terminal != 12 {
		t.Fatalf("stats before any eviction: %+v", st)
	}
	// The clock reads the last finish, 10 s after the first. The first
	// job expires 50 s on, and the last two expire together.
	expiry := func(k int) time.Time { return jobs[order[k]].expires }
	gone := 0
	for _, step := range []time.Duration{0, 50 * time.Second, 500 * time.Millisecond, 2 * time.Second, 0, 3200 * time.Millisecond, 4500 * time.Millisecond} {
		clk.advance(step)
		s.sweep()
		for gone < len(order) && clk.now().After(expiry(gone)) {
			gone++
		}
		for k, i := range order {
			if evicted := s.get(jobs[i].id) == nil; evicted != (k < gone) {
				t.Fatalf("at %v: job finished %d-th evicted=%v, want %v", clk.now().Sub(expiry(0)), k, evicted, k < gone)
			}
		}
		if st := s.stats(); st.Evicted != uint64(gone) || st.Terminal != len(order)-gone {
			t.Fatalf("at %v: stats %+v after %d evictions", clk.now().Sub(expiry(0)), st, gone)
		}
	}
	if gone != len(order) {
		t.Fatalf("%d of %d jobs evicted at the end", gone, len(order))
	}
	if s.get(running.id) == nil {
		t.Fatal("running job evicted")
	}
	if j, dup := s.admit(&job{tenant: "a", key: "k0"}); dup || j == jobs[0] {
		t.Fatal("an evicted job's key was not released")
	}
}

// BenchmarkStoreAdmit times admitting one job into a store holding 10
// or 10,000 finished, unexpired jobs; the admitted job is dropped
// again, so the resident count stays fixed.
func BenchmarkStoreAdmit(b *testing.B) {
	for _, resident := range []int{10, 10_000} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			clk := newFakeClock()
			s := newStore(time.Hour, clk.now)
			for i := 0; i < resident; i++ {
				j, _ := s.admit(&job{tenant: "a"})
				s.finish(j, &JobReport{Outcome: OutcomeFound}, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, _ := s.admit(&job{tenant: "a"})
				s.mu.Lock()
				delete(s.jobs, j.id)
				s.mu.Unlock()
			}
		})
	}
}
