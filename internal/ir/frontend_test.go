package ir_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heisendump/internal/gen"
	"heisendump/internal/ir"
	"heisendump/internal/lang"
	"heisendump/internal/statics"
	"heisendump/internal/workloads"
)

var updateFrontEnd = flag.Bool("update", false, "rewrite testdata/frontend.sha256 from the current code")

// frontEndGoldenPath holds one line per (program, instrumentation):
// the two names, the sha256 of the program's bytecode image and the
// sha256 of its static report, each as JSON.
const frontEndGoldenPath = "testdata/frontend.sha256"

// corpusProgram is one source of the front-end corpus.
type corpusProgram struct {
	name, source string
}

// frontEndCorpus lists every registered workload and the generated
// programs of seeds 1 to seeds.
func frontEndCorpus(seeds int64) []corpusProgram {
	var out []corpusProgram
	for _, name := range workloads.Names() {
		out = append(out, corpusProgram{name, workloads.ByName(name).Source})
	}
	for seed := int64(1); seed <= seeds; seed++ {
		out = append(out, corpusProgram{fmt.Sprintf("gen-%d", seed), gen.Generate(seed).Source})
	}
	return out
}

// TestFrontEndGolden pins the compiled form of every registered
// workload and generated seeds 1-300, with and without loop
// instrumentation: the bytecode image (each op and so the
// superinstruction chosen, the pools, the source map, the sync table
// and MaxStack) and the static report. The reference oracle does not
// pin the lowering, since a lost fusion executes the same. Run with
// -update to rewrite the file.
func TestFrontEndGolden(t *testing.T) {
	want := readFrontEndGolden(t)
	var got []string
	for _, p := range frontEndCorpus(300) {
		ast, err := lang.Parse(p.source)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, instrument := range []bool{false, true} {
			prog, err := ir.Compile(ast, ir.Options{InstrumentLoops: instrument})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			key := fmt.Sprintf("%s instrument=%v", p.name, instrument)
			line := key + " " + jsonSum(t, prog.BC) + " " + jsonSum(t, statics.Analyze(prog))
			got = append(got, line)
			if *updateFrontEnd {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no golden line", key)
			} else if w != line {
				t.Errorf("compiled form differs from the golden line:\n got:  %s\n want: %s", line, w)
			}
		}
	}
	if *updateFrontEnd {
		if err := os.MkdirAll(filepath.Dir(frontEndGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(frontEndGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%d golden lines, %d compiled programs", len(want), len(got))
	}
}

// BenchmarkCompile times the front end every heisend job pays before
// its run: lang.Parse, which runs Check, then ir.Compile with loop
// instrumentation. One op compiles every registered workload and
// generated seeds 1-200; it reports B/op and allocs/op, and µs per
// program.
func BenchmarkCompile(b *testing.B) {
	corpus := frontEndCorpus(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range corpus {
			ast, err := lang.Parse(p.source)
			if err != nil {
				b.Fatalf("%s: %v", p.name, err)
			}
			if _, err := ir.Compile(ast, ir.Options{InstrumentLoops: true}); err != nil {
				b.Fatalf("%s: %v", p.name, err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(corpus)), "µs/program")
}

// jsonSum renders v as JSON and returns the hex sha256 of the bytes.
func jsonSum(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// readFrontEndGolden loads the golden lines keyed by "program
// instrumentation".
func readFrontEndGolden(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	if *updateFrontEnd {
		return out
	}
	f, err := os.Open(frontEndGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("%s: malformed line %q", frontEndGoldenPath, sc.Text())
		}
		out[fields[0]+" "+fields[1]] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
