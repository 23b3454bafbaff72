package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"heisendump"
	"heisendump/internal/gen"
	"heisendump/internal/telemetry"
)

// calmSrc never fails: a deadline test can park a worker in its
// stress phase for as long as the stress budget allows.
const calmSrc = `
program calm;

global int x;
lock L;

func main() {
    spawn worker();
    acquire(L);
    x = x + 1;
    release(L);
}

func worker() {
    acquire(L);
    x = x + 2;
    release(L);
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, ts
}

func fig1Request(t *testing.T, key string) JobRequest {
	t.Helper()
	w := heisendump.WorkloadByName("fig1")
	if w == nil {
		t.Fatal("fig1 workload missing")
	}
	return JobRequest{
		JobKey: key,
		Tenant: "test",
		Source: w.Source,
		Input:  &InputSpec{Scalars: w.Input.Scalars, Arrays: w.Input.Arrays},
		Options: JobOptions{
			Workers:     1,
			TrialBudget: 1000,
		},
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) *JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func decodeError(t *testing.T, resp *http.Response) *ErrorPayload {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Error *ErrorPayload `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil {
		t.Fatal("no error payload in non-2xx response")
	}
	return env.Error
}

// TestSubmitWaitDifferential is the handler-level differential check:
// the HTTP-fetched report must be identical to a direct in-process
// Session run over the same (source, input, options), projected
// through the same BuildReport.
func TestSubmitWaitDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := fig1Request(t, "diff-1")

	resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.State != StateDone || st.Report == nil {
		t.Fatalf("terminal status: %+v", st)
	}
	if st.Program != "fig1" {
		t.Fatalf("program name %q", st.Program)
	}

	// Direct in-process run, identical projection.
	opts, ep := req.Options.sessionOptions(nil)
	if ep != nil {
		t.Fatal(ep)
	}
	prog, err := heisendump.Compile(req.Source)
	if err != nil {
		t.Fatal(err)
	}
	sess := heisendump.NewCompiled(prog, req.Input.toInput(), opts...)
	rep, runErr := sess.Reproduce(context.Background())
	want, wantEp := BuildReport(rep, runErr, false)
	if wantEp != nil {
		t.Fatalf("direct run failed: %v", wantEp)
	}

	got, _ := json.Marshal(st.Report)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("HTTP report differs from direct Session run\n http: %s\ndirect: %s", got, wantJSON)
	}
	if !st.Report.Found || st.Report.Outcome != OutcomeFound {
		t.Fatalf("fig1 not reproduced: %+v", st.Report)
	}
}

func TestSubmitBadJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ep := decodeError(t, resp); ep.Code != CodeBadRequest {
		t.Fatalf("code %q", ep.Code)
	}
}

// TestSubmitBadProgram pins satellite (b): parser/checker rejections
// come back as typed 400 bad_program payloads with the phase and
// line, distinct from internal 500s.
func TestSubmitBadProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Source: "program broken; func main( {}"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse reject status %d", resp.StatusCode)
	}
	ep := decodeError(t, resp)
	if ep.Code != CodeBadProgram || ep.Phase != "parse" {
		t.Fatalf("parse reject payload %+v", ep)
	}

	// A syntactically valid program the static checker refuses.
	resp = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Source: `
program checkfail;
func main() {
    undeclared = 1;
}
`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("check reject status %d", resp.StatusCode)
	}
	ep = decodeError(t, resp)
	if ep.Code != CodeBadProgram || ep.Phase != "check" {
		t.Fatalf("check reject payload %+v", ep)
	}
}

func TestSubmitBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := fig1Request(t, "")
	req.Input = &InputSpec{Scalars: map[string]int64{"no_such_global": 7}}
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ep := decodeError(t, resp)
	if ep.Code != CodeBadInput || ep.Name != "no_such_global" {
		t.Fatalf("bad_input payload %+v", ep)
	}
}

func TestSubmitUnknownHeuristic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := fig1Request(t, "")
	req.Options.Heuristic = "psychic"
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ep := decodeError(t, resp); ep.Code != CodeBadRequest {
		t.Fatalf("code %q", ep.Code)
	}
}

// TestSubmitBoundRange: a preemption bound outside 0..maxBound, a
// negative trial or stress budget, or a workers width outside
// 0..maxWorkers is refused at admission with a typed 400 and nothing
// queued or stored; the ends of the bound range are admitted.
func TestSubmitBoundRange(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	refused := []struct {
		name string
		set  func(*JobOptions)
	}{
		{"bound -1", func(o *JobOptions) { o.Bound = -1 }},
		{"bound 4", func(o *JobOptions) { o.Bound = 4 }},
		{"bound 40", func(o *JobOptions) { o.Bound = 40 }},
		{"trial_budget -1", func(o *JobOptions) { o.TrialBudget = -1 }},
		{"stress_budget -1", func(o *JobOptions) { o.StressBudget = -1 }},
		{"workers -1", func(o *JobOptions) { o.Workers = -1 }},
		{"workers 100000", func(o *JobOptions) { o.Workers = 100000 }},
		{"deadline_ms -1", func(o *JobOptions) { o.DeadlineMS = -1 }},
		{"deadline_ms 9223372036855", func(o *JobOptions) { o.DeadlineMS = 9223372036855 }},
	}
	for _, c := range refused {
		req := fig1Request(t, "")
		c.set(&req.Options)
		resp := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", c.name, resp.StatusCode)
		}
		if ep := decodeError(t, resp); ep.Code != CodeBadRequest {
			t.Fatalf("%s: code %q", c.name, ep.Code)
		}
	}
	if q, st := srv.sched.stats(), srv.store.stats(); q.Queued != 0 || q.Served != 0 || st.Jobs != 0 {
		t.Fatalf("refused options reached the queue: scheduler %+v, store %+v", q, st)
	}

	for _, bound := range []int{0, maxBound} {
		req := fig1Request(t, "")
		req.Options.Bound = bound
		resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bound %d: status %d", bound, resp.StatusCode)
		}
		if st := decodeStatus(t, resp); st.State != StateDone {
			t.Fatalf("bound %d: terminal status %+v", bound, st)
		}
	}
}

func TestGetNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ep := decodeError(t, resp); ep.Code != CodeNotFound {
		t.Fatalf("code %q", ep.Code)
	}
}

// TestIdempotentResubmit: the same (tenant, job_key) resubmitted
// returns the original job (200, same id) instead of a duplicate.
func TestIdempotentResubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := fig1Request(t, "idem-1")

	first := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs?wait=1", req))
	resp := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dup status %d, want 200", resp.StatusCode)
	}
	second := decodeStatus(t, resp)
	if second.ID != first.ID {
		t.Fatalf("dup created a new job: %s vs %s", second.ID, first.ID)
	}
	if second.State != StateDone || second.Report == nil {
		t.Fatalf("dup did not return the completed job: %+v", second)
	}
}

// TestDeadline504 pins deadline admission: a job whose deadline
// expires — queued or mid-run — finishes failed with a typed
// deadline_exceeded payload, surfaced to waiters as HTTP 504.
func TestDeadline504(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := JobRequest{
		Tenant: "test",
		Source: calmSrc,
		Options: JobOptions{
			// calm never fails, so the stress phase grinds until the
			// deadline cancels it.
			StressBudget: 50_000_000,
			DeadlineMS:   25,
		},
	}
	resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.State != StateFailed || st.Error == nil || st.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("terminal status: %+v err=%+v", st, st.Error)
	}
}

// TestQueueFull429 pins queue-depth admission over HTTP: with one
// worker pinned on a long job and the backlog at depth, the next
// submission is shed with 429 + Retry-After.
func TestQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	slow := JobRequest{Tenant: "t", Source: calmSrc,
		Options: JobOptions{StressBudget: 50_000_000}}
	running := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", slow))

	// Wait until the worker has actually dequeued it, so the backlog
	// below is unambiguous.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + running.ID)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	queued := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Tenant: "t", Source: calmSrc,
		Options: JobOptions{StressBudget: 50_000_000}})
	if queued.StatusCode != http.StatusAccepted {
		t.Fatalf("backlog fill status %d", queued.StatusCode)
	}
	queued.Body.Close()

	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Tenant: "t", Source: calmSrc})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	ep := decodeError(t, resp)
	if ep.Code != CodeQueueFull || ep.Tenant != "t" || ep.Limit != 1 {
		t.Fatalf("queue_full payload %+v", ep)
	}
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	event string
	id    uint64
	data  Event
}

func readSSE(t *testing.T, url string) []sseFrame {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var frames []sseFrame
	for _, raw := range strings.Split(buf.String(), "\n\n") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		var f sseFrame
		for _, line := range strings.Split(raw, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "id: "):
				fmt.Sscanf(strings.TrimPrefix(line, "id: "), "%d", &f.id)
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.data); err != nil {
					t.Fatalf("bad SSE data %q: %v", line, err)
				}
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// TestSSEStream pins the event stream contract: dense ascending seq;
// the seven stage events in pipeline order; heartbeats with monotone
// folded Tries; exactly one terminal "done" frame carrying the final
// status — the event stream's ordering guarantees, surfaced over HTTP.
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs?wait=1", fig1Request(t, "sse-1")))

	frames := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(frames) == 0 {
		t.Fatal("empty stream")
	}

	var stages []string
	lastTries, doneFrames := -1, 0
	for i, f := range frames {
		if f.id != uint64(i+1) || f.data.Seq != f.id {
			t.Fatalf("frame %d: seq %d / id %d, want dense from 1", i, f.data.Seq, f.id)
		}
		switch f.event {
		case EventStage:
			stages = append(stages, f.data.Stage)
		case EventHeartbeat:
			if f.data.Heartbeat == nil {
				t.Fatalf("heartbeat frame %d without snapshot", i)
			}
			if f.data.Heartbeat.Tries < lastTries {
				t.Fatalf("frame %d: folded tries regressed %d -> %d", i, lastTries, f.data.Heartbeat.Tries)
			}
			lastTries = f.data.Heartbeat.Tries
		case EventDone:
			doneFrames++
			if i != len(frames)-1 {
				t.Fatalf("done frame %d is not last of %d", i, len(frames))
			}
			if f.data.Status == nil || f.data.Status.State != StateDone {
				t.Fatalf("done frame status: %+v", f.data.Status)
			}
		default:
			t.Fatalf("frame %d: unknown event %q", i, f.event)
		}
	}
	wantStages := []string{"provoke", "align", "aligned-dump", "diff", "prioritize", "candidates", "search"}
	if strings.Join(stages, ",") != strings.Join(wantStages, ",") {
		t.Fatalf("stages %v, want %v", stages, wantStages)
	}
	if doneFrames != 1 {
		t.Fatalf("%d done frames, want exactly 1", doneFrames)
	}

	// Replay from the middle: ?after=N serves only seq > N.
	mid := len(frames) / 2
	tail := readSSE(t, fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", ts.URL, st.ID, mid))
	if len(tail) != len(frames)-mid {
		t.Fatalf("after=%d replayed %d frames, want %d", mid, len(tail), len(frames)-mid)
	}
	if tail[0].id != uint64(mid+1) {
		t.Fatalf("replay starts at seq %d, want %d", tail[0].id, mid+1)
	}
}

// TestSSEAfterPastTheEnd: an after parameter at or past the last Seq
// serves an empty stream, up to the largest uint64, whose successor
// wraps to 0.
func TestSSEAfterPastTheEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs?wait=1", fig1Request(t, "sse-past-end")))
	for _, after := range []uint64{1 << 63, math.MaxUint64 - 1, math.MaxUint64} {
		if frames := readSSE(t, fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", ts.URL, st.ID, after)); len(frames) != 0 {
			t.Fatalf("after=%d served %d frames from seq %d, want none", after, len(frames), frames[0].id)
		}
	}
}

// TestSSERingPastCapacity: a fig1 job's 10 events in a ring of 4 keep
// the last 4, with dense Seq from the first retained one; history
// asked for below the window starts at the oldest retained event; and
// the dropped-events counter grows by the 6 dropped.
func TestSSERingPastCapacity(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, EventBuffer: 4})
	dropped := telemetry.ServerSSEDropped.Value()
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs?wait=1", fig1Request(t, "sse-ring")))
	const total, ring = 10, 4
	if d := telemetry.ServerSSEDropped.Value() - dropped; d != total-ring {
		t.Fatalf("heisen_server_sse_dropped_total grew by %d, want %d", d, total-ring)
	}
	evs, closed, _ := srv.store.get(st.ID).hub.since(0)
	if !closed || len(evs) != ring {
		t.Fatalf("since(0): %d events (closed %v), want the last %d", len(evs), closed, ring)
	}
	for i, e := range evs {
		if e.Seq != total-ring+1+uint64(i) {
			t.Fatalf("since(0): event %d has seq %d, want %d", i, e.Seq, total-ring+1+i)
		}
	}
	if evs[ring-1].Type != EventDone {
		t.Fatalf("last retained event is %q, want %q", evs[ring-1].Type, EventDone)
	}
	frames := readSSE(t, fmt.Sprintf("%s/v1/jobs/%s/events?after=2", ts.URL, st.ID))
	if len(frames) != ring || frames[0].id != total-ring+1 {
		t.Fatalf("after=2 served %v, want %d frames from seq %d", frames, ring, total-ring+1)
	}
}

// TestBatchEndpoint pins the corpus intake: cmd/fuzz JSON-lines
// entries submitted wholesale, each becoming an idempotent job keyed
// by its generator seed; a wholesale resubmission is all dups. A
// workers parameter out of range refuses every entry as bad_request.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var buf bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		p := gen.Generate(seed)
		e := gen.Entry{Seed: p.Seed, Name: p.Name, Source: p.Source,
			TrialBudget: 200, StressBudget: 500}
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	body := buf.Bytes()

	resp, err := http.Post(ts.URL+"/v1/batch?tenant=corpus&workers=100000", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var refused BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&refused); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if refused.Accepted != 0 || refused.Rejected != 3 {
		t.Fatalf("workers 100000: batch response %+v", refused)
	}
	for _, r := range refused.Results {
		if r.Error == nil || r.Error.Code != CodeBadRequest {
			t.Fatalf("workers 100000: result %+v", r)
		}
	}

	resp, err = http.Post(ts.URL+"/v1/batch?tenant=corpus&workers=1", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if br.Accepted != 3 || br.Rejected != 0 {
		t.Fatalf("batch response %+v", br)
	}
	for _, r := range br.Results {
		if r.Dup || r.ID == "" {
			t.Fatalf("result %+v", r)
		}
		// Wait each job out; outcome depends on the seed, but every
		// job must reach a terminal state with a report.
		st := decodeStatus(t, mustGet(t, ts.URL+"/v1/jobs/"+r.ID+"?wait=1"))
		if st.State != StateDone || st.Report == nil {
			t.Fatalf("job %s: %+v", r.ID, st)
		}
	}

	// Wholesale resubmission: pure dups, no new jobs.
	resp, err = http.Post(ts.URL+"/v1/batch?tenant=corpus&workers=1", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br2 BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i, r := range br2.Results {
		if !r.Dup || r.ID != br.Results[i].ID {
			t.Fatalf("resubmit result %d: %+v, want dup of %s", i, r, br.Results[i].ID)
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs?wait=1", fig1Request(t, "stats-1")))

	resp := mustGet(t, ts.URL+"/v1/stats")
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 || st.Scheduler.Served < 1 || st.Store.Jobs < 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Compile.Entries == 0 {
		t.Fatalf("compile cache empty after a job: %+v", st.Compile)
	}
}

// TestShutdownDrains: Shutdown cancels a running job, which finishes
// with a typed shutting_down error and its deterministic partial
// report rather than vanishing.
func TestShutdownDrains(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Tenant: "t", Source: calmSrc,
		Options: JobOptions{StressBudget: 50_000_000},
	}))
	j := srv.store.get(st.ID)
	if j == nil {
		t.Fatal("job not stored")
	}
	srv.Shutdown()
	<-j.done
	got := j.status()
	if got.State != StateFailed || got.Error == nil || got.Error.Code != CodeShuttingDown {
		t.Fatalf("after shutdown: %+v err=%+v", got, got.Error)
	}
}

// TestShutdownAttachesFlightLog: a job cancelled mid-search carries
// its flight log on the error payload — the last trials and fold
// decisions, ending in a "cancelled" decision rather than a trial
// budget's "cutoff".
func TestShutdownAttachesFlightLog(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := heisendump.WorkloadByName("apache-2")
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Tenant: "t",
		Source: w.Source,
		Input:  &InputSpec{Scalars: w.Input.Scalars, Arrays: w.Input.Arrays},
		Options: JobOptions{
			Workers: 1, PlainChess: true, Bound: 3,
			// Undirected CHESS does not find apache-2 within millions
			// of tries, so the search is still running at shutdown.
			TrialBudget: 10_000_000,
		},
	}))
	j := srv.store.get(st.ID)
	if j == nil {
		t.Fatal("job not stored")
	}
	// Shut down once the search has committed its first rank.
	for after := uint64(0); ; {
		evs, closed, wake := j.hub.since(after)
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
	srv.Shutdown()
	<-j.done

	got := j.status()
	if got.State != StateFailed || got.Error == nil || got.Error.Code != CodeShuttingDown {
		t.Fatalf("after shutdown: %+v err=%+v", got, got.Error)
	}
	fl := got.Error.Flight
	if fl == nil || len(fl.Ranks) == 0 || len(fl.Decisions) == 0 {
		t.Fatalf("error payload's flight log is empty: %+v", fl)
	}
	if last := fl.Decisions[len(fl.Decisions)-1]; last.Kind != "cancelled" {
		t.Fatalf("last flight decision %+v, want kind cancelled", last)
	}
}
