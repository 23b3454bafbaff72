package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"heisendump"
	"heisendump/internal/gen"
	"heisendump/internal/server"
)

// TestSmokeDifferential is the e2e smoke gate: boot the batch service
// on loopback, submit a generated-workload corpus over HTTP at
// workers {1,4}, and diff every fetched report against a direct
// in-process Session run.
//
// At workers=1 the entire report is deterministic, so the comparison
// is bit-for-bit on the JSON. At workers=4 the cost counters may vary
// with worker scheduling, so the comparison pins the deterministic
// fingerprint (Outcome, Found, Tries, Schedule) — the same invariant
// the library's own determinism tests enforce.
func TestSmokeDifferential(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}

	// The corpus: gen programs with the oracle's -short budgets, as
	// cmd/fuzz -out would emit them.
	var entries []gen.Entry
	var corpus bytes.Buffer
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p := gen.Generate(seed)
		e := gen.Entry{Seed: p.Seed, Name: p.Name, Source: p.Source,
			TrialBudget: 1500, StressBudget: 3000}
		entries = append(entries, e)
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		corpus.Write(b)
		corpus.WriteByte('\n')
	}

	srv := server.New(server.Config{Workers: 4, QueueDepth: 2 * seeds})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown()
	}()

	// Direct in-process runs through the identical projection. The
	// fingerprint is configuration-independent; the full report is
	// compared only at workers=1 where it is deterministic.
	directFull := make(map[string][]byte) // name -> report JSON at workers=1
	type fp struct {
		Outcome  string
		Found    bool
		Tries    int
		Schedule string
	}
	directFP := make(map[string]fp)
	for _, e := range entries {
		prog, err := heisendump.Compile(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		s := heisendump.NewCompiled(prog, &heisendump.Input{},
			heisendump.WithWorkers(1),
			heisendump.WithTrialBudget(e.TrialBudget),
			heisendump.WithStressBudget(e.StressBudget),
		)
		rep, runErr := s.Reproduce(context.Background())
		jr, ep := server.BuildReport(rep, runErr, false)
		if ep != nil {
			t.Fatalf("%s direct run: %v", e.Name, ep)
		}
		b, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		directFull[e.Name] = b
		directFP[e.Name] = fp{jr.Outcome, jr.Found, jr.Tries, jr.Schedule}
	}

	for _, workers := range []int{1, 4} {
		tenant := fmt.Sprintf("w%d", workers)
		url := fmt.Sprintf("%s/v1/batch?tenant=%s&workers=%d", ts.URL, tenant, workers)
		resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(corpus.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var br server.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if br.Accepted != len(entries) || br.Rejected != 0 {
			t.Fatalf("[%s] batch: %+v", tenant, br)
		}

		for i, r := range br.Results {
			e := entries[i]
			resp, err := http.Get(ts.URL + "/v1/jobs/" + r.ID + "?wait=1")
			if err != nil {
				t.Fatal(err)
			}
			var st server.JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if st.State != server.StateDone || st.Report == nil {
				t.Fatalf("[%s] %s: state %s err=%+v", tenant, e.Name, st.State, st.Error)
			}

			if workers == 1 {
				got, _ := json.Marshal(st.Report)
				if want := directFull[e.Name]; !bytes.Equal(got, want) {
					t.Errorf("[%s] %s: HTTP report differs from direct Session run\n  http: %s\ndirect: %s",
						tenant, e.Name, got, want)
				}
				continue
			}
			want := directFP[e.Name]
			got := fp{st.Report.Outcome, st.Report.Found, st.Report.Tries, st.Report.Schedule}
			if got != want {
				t.Errorf("[%s] %s: fingerprint drift\n  http: %+v\ndirect: %+v", tenant, e.Name, got, want)
			}
		}
	}

	// Telemetry cross-check: with every job terminal the process is
	// quiescent, so the Prometheus scrape and /v1/stats' telemetry
	// snapshot read the same registry at rest and must agree exactly on
	// the core counters — all of which the batches above advanced.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Telemetry map[string]int64 `json:"telemetry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	metrics := scrapeMetrics(t, ts.URL)
	for _, series := range []string{
		"heisen_server_jobs_submitted_total",
		`heisen_server_jobs_completed_total{outcome="reproduced"}`,
		"heisen_chess_searches_total",
		"heisen_chess_trials_executed_total",
		"heisen_chess_steps_executed_total",
		"heisen_progcache_hits_total",
		"heisen_progcache_misses_total",
	} {
		if metrics[series] <= 0 {
			t.Errorf("/metrics: core counter %s is %d, want > 0", series, metrics[series])
		}
		if metrics[series] != stats.Telemetry[series] {
			t.Errorf("/metrics and /v1/stats disagree on %s: %d vs %d",
				series, metrics[series], stats.Telemetry[series])
		}
	}
	// Every admitted job reached a terminal outcome.
	completed := metrics[`heisen_server_jobs_completed_total{outcome="reproduced"}`] +
		metrics[`heisen_server_jobs_completed_total{outcome="not_reproduced"}`] +
		metrics[`heisen_server_jobs_completed_total{outcome="error"}`]
	if submitted := metrics["heisen_server_jobs_submitted_total"]; completed != submitted {
		t.Errorf("jobs accounting: %d completed, %d submitted", completed, submitted)
	}
	// The per-instance gauge families (scraped from the server object,
	// not the registry) are present too.
	for _, series := range []string{"heisen_server_queued", "heisen_server_store_jobs"} {
		if _, ok := metrics[series]; !ok {
			t.Errorf("/metrics: per-instance gauge %s missing", series)
		}
	}
}

// scrapeMetrics GETs /metrics, validates the exposition-format
// essentials (content type, line shape, HELP/TYPE headers preceding
// samples), and returns every sample as series -> value.
func scrapeMetrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics: content type %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("/metrics: malformed sample line %q", line)
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Errorf("/metrics: sample %q has no preceding # TYPE header", f[0])
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("/metrics: non-integer sample %q: %v", line, err)
		}
		out[f[0]] = v
	}
	if len(out) == 0 {
		t.Fatal("/metrics: empty scrape")
	}
	return out
}
