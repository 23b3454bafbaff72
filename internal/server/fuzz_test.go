package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"heisendump"
	"heisendump/internal/gen"
)

// admissionSeeds are FuzzAdmission's seed bodies: the heisend smoke
// gate's short corpus (gen seeds 1-8) as the batch endpoint turns it
// into jobs, and fig1 under each option row of TestSubmitBoundRange.
func admissionSeeds(f *testing.F) [][]byte {
	var reqs []JobRequest
	for seed := int64(1); seed <= 8; seed++ {
		p := gen.Generate(seed)
		e := gen.Entry{Seed: p.Seed, Name: p.Name, Source: p.Source,
			TrialBudget: 1500, StressBudget: 3000}
		reqs = append(reqs, RequestFromCorpusEntry(e, "smoke", JobOptions{Workers: 1}))
	}
	w := heisendump.WorkloadByName("fig1")
	for _, o := range []JobOptions{
		{Bound: -1}, {Bound: 4}, {Bound: 40}, {Bound: maxBound}, {},
		{TrialBudget: -1}, {StressBudget: -1},
		{Workers: -1}, {Workers: 100000},
		{DeadlineMS: -1}, {DeadlineMS: 9223372036855},
	} {
		reqs = append(reqs, JobRequest{Tenant: "test", Source: w.Source,
			Input: &InputSpec{Scalars: w.Input.Scalars, Arrays: w.Input.Arrays}, Options: o})
	}
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		bodies[i] = b
	}
	return bodies
}

// FuzzAdmission posts arbitrary bodies to POST /v1/jobs on a server
// drained before the first request, so admission runs in full
// (decoding, compiling, input and option checks, the store) and no job
// ever runs. Every response must be a 200 duplicate or a typed refusal
// sent with its code's HTTP status; the service's own fault, internal,
// must never appear.
func FuzzAdmission(f *testing.F) {
	for _, b := range admissionSeeds(f) {
		f.Add(b)
	}
	// Each clock read steps past the TTL, so every admission's sweep
	// evicts the job the one before it stored and the store stays
	// empty however long the fuzzer runs.
	const ttl = time.Minute
	var mu sync.Mutex
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(ttl + time.Second)
		return now
	}
	srv := New(Config{Workers: 1, ResultTTL: ttl, Clock: clock})
	srv.Shutdown()
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("200 that is not a duplicate's status: %s", rec.Body)
			}
			return
		}
		var env struct {
			Error *ErrorPayload `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
			t.Fatalf("status %d without an error payload: %s", rec.Code, rec.Body)
		}
		switch ep := env.Error; ep.Code {
		case CodeBadRequest, CodeBadProgram, CodeBadInput, CodeTooLarge, CodeShuttingDown:
			if rec.Code != ep.HTTPStatus() {
				t.Fatalf("code %s sent with status %d, want %d", ep.Code, rec.Code, ep.HTTPStatus())
			}
		default:
			t.Fatalf("status %d, code %q: %s", rec.Code, ep.Code, ep.Message)
		}
	})
}
