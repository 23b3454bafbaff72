package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"heisendump/internal/lang"
)

// serve runs one request through the server's handler in-process and
// returns the recorded response.
func serve(t *testing.T, req *http.Request) *http.Response {
	t.Helper()
	srv := New(Config{Workers: 1})
	t.Cleanup(srv.Shutdown)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Result()
}

// checkTooLarge asserts a typed too_large refusal carrying limit.
func checkTooLarge(t *testing.T, resp *http.Response, limit int) {
	t.Helper()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if ep := decodeError(t, resp); ep.Code != "too_large" || ep.Limit != limit {
		t.Fatalf("payload %+v, want code too_large with limit %d", ep, limit)
	}
}

// oversizedJSON marshals v, whose source field alone fills the 1 MiB
// jobs/analyze limit.
func oversizedJSON(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func TestSubmitBodyTooLarge(t *testing.T) {
	body := oversizedJSON(t, JobRequest{Source: strings.Repeat("x", 1<<20)})
	checkTooLarge(t, serve(t, httptest.NewRequest("POST", "/v1/jobs", body)), 1<<20)
}

func TestAnalyzeBodyTooLarge(t *testing.T) {
	body := oversizedJSON(t, AnalyzeRequest{Source: strings.Repeat("x", 1<<20)})
	checkTooLarge(t, serve(t, httptest.NewRequest("POST", "/v1/analyze", body)), 1<<20)
}

// junkLine is one 1 MiB corpus line that fails JSON decoding at its
// first byte.
var junkLine = append(bytes.Repeat([]byte("x"), 1<<20-1), '\n')

// junkLines yields n bytes of junkLine repeats, so the batch handler
// streams a body of any length without the test allocating it.
type junkLines struct{ n, off int }

func (r *junkLines) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], junkLine[r.off:])
	r.off = (r.off + k) % len(junkLine)
	r.n -= k
	return k, nil
}

func TestBatchBodyTooLarge(t *testing.T) {
	const limit = 64 << 20
	// A declared length over the limit is refused before reading.
	req := httptest.NewRequest("POST", "/v1/batch", &junkLines{n: 1})
	req.ContentLength = limit + 1
	checkTooLarge(t, serve(t, req), limit)

	// A body of undeclared length is refused once it runs past the
	// limit.
	req = httptest.NewRequest("POST", "/v1/batch", &junkLines{n: limit + 1})
	checkTooLarge(t, serve(t, req), limit)
}

// TestOversizedArrayRejectedAtAdmission: a program declaring more array
// elements than the language allows is a typed 400 bad_program, with
// the declaration's line, on both admission endpoints — it never
// reaches a worker's Machine.Reset. That holds too when a size literal
// past int64 would wrap negative and lower the running total. An
// object wider than the language allows is refused the same way.
func TestOversizedArrayRejectedAtAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	wide := make([]string, lang.MaxFieldNames+1)
	for i := range wide {
		wide[i] = fmt.Sprintf("f%d", i)
	}
	for _, prog := range []struct {
		src   string
		phase string
	}{
		{"program p;\nglobal int a[1000000000000000];\nfunc main() { a[0] = 1; }\n", "check"},
		{"program p;\nglobal int z[18445744073709551616];\nglobal int a[1000000000000000];\nfunc main() { a[0] = 1; }\n", "parse"},
		{"program p;\nglobal ptr p; func main() { p = new(" + strings.Join(wide, ", ") + "); }\n", "check"},
	} {
		for _, tc := range []struct {
			path string
			body any
		}{
			{"/v1/analyze", AnalyzeRequest{Source: prog.src}},
			{"/v1/jobs", JobRequest{Source: prog.src}},
		} {
			resp := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("%s: status %d, want 400", tc.path, resp.StatusCode)
			}
			if ep := decodeError(t, resp); ep.Code != CodeBadProgram || ep.Phase != prog.phase || ep.Line != 2 {
				t.Fatalf("%s: payload %+v, want bad_program in phase %s at line 2", tc.path, ep, prog.phase)
			}
		}
	}
}

// TestDuplicateLabelIsBadProgram: a function that declares one goto
// label twice is the client's fault, a typed 400 bad_program in phase
// check at the second label's line, on both admission endpoints.
func TestDuplicateLabelIsBadProgram(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := "program p;\nglobal int x;\nfunc main() {\n  L: x = 1;\n  L: x = 2;\n}\n"
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/analyze", AnalyzeRequest{Source: src}},
		{"/v1/jobs", JobRequest{Source: src}},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s: status %d, want 400", tc.path, resp.StatusCode)
		}
		if ep := decodeError(t, resp); ep.Code != CodeBadProgram || ep.Phase != "check" || ep.Line != 5 {
			t.Fatalf("%s: payload %+v, want bad_program in phase check at line 5", tc.path, ep)
		}
	}
}

// TestDeeplyNestedSourceIsBadProgram: a job of 400,000 nested
// parentheses (about 800 KB, under the 1 MiB body limit) is a typed
// 400 bad_program on both endpoints, and the server keeps serving.
// Without the parser's nesting bound the source overflows the Go
// stack, a fatal error that takes the whole process down, so the
// requests run in a child process and the parent checks how it ended.
func TestDeeplyNestedSourceIsBadProgram(t *testing.T) {
	if os.Getenv("HEISEN_DEEP_NESTING_CHILD") == "1" {
		deeplyNestedRequests(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDeeplyNestedSourceIsBadProgram$")
	cmd.Env = append(os.Environ(), "HEISEN_DEEP_NESTING_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		if len(out) > 2000 {
			out = out[:2000]
		}
		t.Fatalf("child process failed: %v\n%s", err, out)
	}
}

func deeplyNestedRequests(t *testing.T) {
	const depth = 400_000
	src := "program p;\nglobal int x;\nfunc main() {\n  x = " +
		strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + ";\n}\n"
	if len(src) >= 1<<20 {
		t.Fatalf("source is %d bytes, over the 1 MiB body limit", len(src))
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/analyze", AnalyzeRequest{Source: src}},
		{"/v1/jobs", JobRequest{Source: src}},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s: status %d, want 400", tc.path, resp.StatusCode)
		}
		if ep := decodeError(t, resp); ep.Code != CodeBadProgram || ep.Phase != "parse" || ep.Line != 4 {
			t.Fatalf("%s: payload %+v, want bad_program in phase parse at line 4", tc.path, ep)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Source: calmSrc})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze after the refusals: status %d, want 200", resp.StatusCode)
	}
}
