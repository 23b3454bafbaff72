package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"heisendump"
)

// jobByKey finds a stored job by its idempotency key; a refused
// submission answers with an error, not with the id.
func jobByKey(t *testing.T, srv *Server, tenant, key string) *job {
	t.Helper()
	srv.store.mu.Lock()
	defer srv.store.mu.Unlock()
	j := srv.store.jobs[srv.store.keys[keyIndex(tenant, key)]]
	if j == nil {
		t.Fatalf("no stored job under key %q", key)
	}
	return j
}

// checkServedViews asserts that a terminal job no longer holds its run
// and that what it serves agrees: the status GET returns now is the
// one the final frame of its SSE replay carried when the job finished.
// It returns that status and the replay.
func checkServedViews(t *testing.T, ts *httptest.Server, j *job) (*JobStatus, []sseFrame) {
	t.Helper()
	<-j.done
	if r := j.pending(); r != nil {
		t.Fatalf("%s: terminal job keeps its run %+v", j.id, r)
	}
	got := decodeStatus(t, mustGet(t, ts.URL+"/v1/jobs/"+j.id))
	frames := readSSE(t, ts.URL+"/v1/jobs/"+j.id+"/events")
	if len(frames) == 0 || frames[len(frames)-1].event != EventDone {
		t.Fatalf("%s: replay of %d frames does not end with done", j.id, len(frames))
	}
	gotJSON, _ := json.Marshal(got)
	doneJSON, _ := json.Marshal(frames[len(frames)-1].data.Status)
	if !bytes.Equal(gotJSON, doneJSON) {
		t.Fatalf("%s: status changed after finish\n  GET: %s\n done: %s", j.id, gotJSON, doneJSON)
	}
	return got, frames
}

// TestCompletedJobKeepsNoRun: a job that ran to completion drops its
// run, and its status and event history stay servable.
func TestCompletedJobKeepsNoRun(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	waited := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs?wait=1", fig1Request(t, "done")))
	j := srv.store.get(waited.ID)
	if j == nil {
		t.Fatal("job not stored")
	}
	st, frames := checkServedViews(t, ts, j)
	if st.State != StateDone || st.Report == nil || !st.Report.Found || st.Program != "fig1" {
		t.Fatalf("completed status %+v", st)
	}
	var stages []string
	for _, f := range frames {
		if f.event == EventStage {
			stages = append(stages, f.data.Stage)
		}
	}
	if len(stages) != 7 || stages[0] != "provoke" || stages[6] != "search" {
		t.Fatalf("replayed stages %v", stages)
	}
	waitedJSON, _ := json.Marshal(waited)
	gotJSON, _ := json.Marshal(st)
	if !bytes.Equal(waitedJSON, gotJSON) {
		t.Fatalf("status changed after finish\n wait: %s\n  GET: %s", waitedJSON, gotJSON)
	}
}

// TestFailedJobsKeepNoRun drives one server through every other
// terminal path: a run cancelled by shutdown mid-search, a deadline
// that expires while the job is queued, a queue_full refusal and a
// shutting_down refusal. None keeps its run; the cancelled run's
// status still carries its flight log.
func TestFailedJobsKeepNoRun(t *testing.T) {
	clk := newFakeClock()
	srv := New(Config{Workers: 1, QueueDepth: 1, Clock: clk.now})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The worker runs an undirected search that does not end on its
	// own (see TestShutdownAttachesFlightLog).
	w := heisendump.WorkloadByName("apache-2")
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Tenant: "test",
		Source: w.Source,
		Input:  &InputSpec{Scalars: w.Input.Scalars, Arrays: w.Input.Arrays},
		Options: JobOptions{Workers: 1, PlainChess: true, Bound: 3,
			TrialBudget: 10_000_000},
	}))
	running := srv.store.get(st.ID)
	if running == nil {
		t.Fatal("job not stored")
	}
	for after := uint64(0); ; {
		evs, closed, wake := running.hub.since(after)
		if slices.ContainsFunc(evs, func(e Event) bool { return e.Type == EventHeartbeat }) {
			break
		}
		if closed {
			t.Fatal("job finished before its first heartbeat")
		}
		if len(evs) > 0 {
			after = evs[len(evs)-1].Seq
		}
		<-wake
	}

	// One job waits behind it with a deadline the clock then passes,
	// and the next finds the tenant's queue full.
	queuedReq := fig1Request(t, "queued")
	queuedReq.Options.DeadlineMS = 1
	resp := postJSON(t, ts.URL+"/v1/jobs", queuedReq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: status %d", resp.StatusCode)
	}
	queued := srv.store.get(decodeStatus(t, resp).ID)
	resp = postJSON(t, ts.URL+"/v1/jobs", fig1Request(t, "full"))
	if ep := decodeError(t, resp); ep.Code != CodeQueueFull {
		t.Fatalf("full queue: payload %+v", ep)
	}
	full := jobByKey(t, srv, "test", "full")
	clk.advance(time.Second)

	// Shutdown cancels the search, then the worker finds the queued
	// job past its deadline; a submission after it is refused.
	srv.Shutdown()
	resp = postJSON(t, ts.URL+"/v1/jobs", fig1Request(t, "draining"))
	if ep := decodeError(t, resp); ep.Code != CodeShuttingDown {
		t.Fatalf("drained server: payload %+v", ep)
	}
	draining := jobByKey(t, srv, "test", "draining")

	for _, c := range []struct {
		j    *job
		code string
	}{
		{running, CodeShuttingDown},
		{queued, CodeDeadlineExceeded},
		{full, CodeQueueFull},
		{draining, CodeShuttingDown},
	} {
		got, _ := checkServedViews(t, ts, c.j)
		if got.State != StateFailed || got.Error == nil || got.Error.Code != c.code {
			t.Fatalf("%s: status %+v error %+v, want failed with %s", c.j.id, got, got.Error, c.code)
		}
		if ran := c.j == running; (got.StartedAt != nil) != ran || (got.Error.Flight != nil) != ran {
			t.Fatalf("%s: started %v, flight %+v", c.j.id, got.StartedAt, got.Error.Flight)
		}
	}
	fl := running.status().Error.Flight
	if len(fl.Ranks) == 0 || len(fl.Decisions) == 0 || fl.Decisions[len(fl.Decisions)-1].Kind != "cancelled" {
		t.Fatalf("cancelled run's flight log %+v", fl)
	}
}

// TestStoreRefinishKeepsFirstExpiry: finishing a terminal job again
// changes neither its state nor its expiry nor its place in the
// eviction order.
func TestStoreRefinishKeepsFirstExpiry(t *testing.T) {
	clk := newFakeClock()
	s := newStore(time.Minute, clk.now)
	a, _ := s.admit(&job{tenant: "t", key: "a"})
	b, _ := s.admit(&job{tenant: "t", key: "b"})
	s.finish(a, &JobReport{Outcome: OutcomeFound}, nil)
	first := a.expires
	clk.advance(10 * time.Second)
	s.finish(b, &JobReport{Outcome: OutcomeFound}, nil)
	clk.advance(10 * time.Second)
	s.finish(a, nil, &ErrorPayload{Code: CodeInternal})

	if !a.expires.Equal(first) {
		t.Fatalf("expiry moved from %v to %v", first, a.expires)
	}
	if st := a.status(); st.State != StateDone || st.Error != nil {
		t.Fatalf("second finish changed the status: %+v", st)
	}
	if !slices.Equal(s.expiry, []*job{a, b}) || s.stats().Terminal != 2 {
		t.Fatalf("eviction order %v, stats %+v", s.expiry, s.stats())
	}
	clk.advance(first.Sub(clk.now()) + time.Nanosecond)
	s.sweep()
	if s.get(a.id) != nil || s.get(b.id) == nil {
		t.Fatal("the sweep past the first expiry did not evict exactly the first-finished job")
	}
}
