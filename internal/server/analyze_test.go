package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"

	"heisendump"
)

// racySrc carries an obvious unguarded conflicting pair, so the
// analyzer must report at least one race candidate.
const racySrc = `
program racy;

global int x;

func main() {
    spawn worker();
    x = x + 1;
}

func worker() {
    x = x + 2;
}
`

// TestAnalyzeEndpoint: POST /v1/analyze compiles through the shared
// cache and returns the static report — candidates on a racy program,
// a clean report on a fully-locked one, and cache_hit on a repeat.
func TestAnalyzeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	decode := func(resp *http.Response) AnalyzeResponse {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var ar AnalyzeResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		return ar
	}

	ar := decode(postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: racySrc}))
	if ar.Report == nil || len(ar.Report.Races) == 0 {
		t.Fatalf("racy program reported no race candidates: %+v", ar.Report)
	}
	if ar.Report.Program != "racy" {
		t.Errorf("program name %q, want racy", ar.Report.Program)
	}

	clean := decode(postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: calmSrc}))
	if len(clean.Report.Races) != 0 || len(clean.Report.Deadlocks) != 0 {
		t.Errorf("fully-locked program reported candidates: %+v", clean.Report)
	}

	again := decode(postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: racySrc}))
	if !again.CacheHit {
		t.Error("repeat analyze of the same source missed the compile cache")
	}
	if len(again.Report.Races) != len(ar.Report.Races) {
		t.Errorf("repeat analyze changed the report: %d vs %d races", len(again.Report.Races), len(ar.Report.Races))
	}
}

// freshSeq numbers the programs TestCacheHitIsPerRequest compiles, so
// each is new to the process's shared cache however often the test
// runs.
var freshSeq atomic.Int64

// TestCacheHitIsPerRequest: cache_hit says whether this request's
// compile was served from the shared cache, whatever other requests
// compile meanwhile. Fresh programs admitted as jobs and analyzed
// while another goroutine keeps compiling a hot source all report a
// miss; resubmitting one under a new job key, and analyzing one
// again, report a hit.
func TestCacheHitIsPerRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := heisendump.Compile(racySrc); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	fresh := func() string {
		return fmt.Sprintf("%s// fresh program %d\n", heisendump.WorkloadByName("fig1").Source, freshSeq.Add(1))
	}
	analyze := func(src string) bool {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: src})
		defer resp.Body.Close()
		var ar AnalyzeResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d, %v", resp.StatusCode, err)
		}
		return ar.CacheHit
	}
	var src string
	for i := 0; i < 20; i++ {
		req := fig1Request(t, fmt.Sprintf("cache-hit-job-%d", i))
		src = fresh()
		req.Source = src
		if st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", req)); st.CacheHit {
			t.Fatalf("fresh job %d reports cache_hit", i)
		}
		if analyze(fresh()) {
			t.Fatalf("fresh analyze %d reports cache_hit", i)
		}
	}
	req := fig1Request(t, "cache-hit-resubmitted")
	req.Source = src
	if st := decodeStatus(t, postJSON(t, ts.URL+"/v1/jobs", req)); !st.CacheHit {
		t.Fatal("a resubmitted program reports no cache_hit")
	}
	if !analyze(src) {
		t.Fatal("analyzing a submitted program reports no cache_hit")
	}
}

// TestAnalyzeEndpointErrors: malformed JSON, missing source, and a
// program the compiler rejects all come back as typed 400s — the same
// classification job submission uses.
func TestAnalyzeEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	wantCode := func(resp *http.Response, status int, code string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("status %d, want %d", resp.StatusCode, status)
		}
		var body struct {
			Error *ErrorPayload `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Error == nil || body.Error.Code != code {
			t.Fatalf("error payload %+v, want code %s", body.Error, code)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCode(resp, http.StatusBadRequest, CodeBadRequest)

	wantCode(postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{}), http.StatusBadRequest, CodeBadRequest)

	wantCode(postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: "program broken; func"}),
		http.StatusBadRequest, CodeBadProgram)
}

// TestAnalyzeMatchesInProcess: the endpoint's report is byte-identical
// to a direct heisendump.Analyze over the same source — the service
// adds no nondeterminism, the /v1/analyze analogue of the heisend
// differential smoke gate.
func TestAnalyzeMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	w := heisendump.WorkloadByName("apache-2")
	if w == nil {
		t.Fatal("apache-2 workload missing")
	}

	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: w.Source})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ar AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}

	prog, err := heisendump.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	direct := heisendump.Analyze(prog)

	got, err := json.Marshal(ar.Report)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("service report differs from in-process analysis:\n%s\nvs\n%s", got, want)
	}
}
