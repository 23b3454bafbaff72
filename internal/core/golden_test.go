package core_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"heisendump/internal/core"
	"heisendump/internal/coredump"
	"heisendump/internal/gen"
	"heisendump/internal/interp"
	"heisendump/internal/ir"
	"heisendump/internal/slicing"
	"heisendump/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/analysis.sha256 from the current code")

// goldenPath holds one line per (workload, configuration): the two
// names and the sha256 of the analysis's canonical rendering.
const goldenPath = "testdata/analysis.sha256"

// goldenMaxTries caps each golden search, so an alignment that leads
// the search astray ends in a pinned cutoff instead of running long.
const goldenMaxTries = 3000

// TestAnalysisGolden pins everything the schedule search starts from,
// and what it finds, on every Table 2 bug, fig1 and generated seeds
// 1-40 under the temporal and dependence heuristics and under
// execution-index and instruction-count alignment (workers 1): the
// aligned point, the CSVs, every prioritized access, every candidate
// with its block and its future set, and Found/Tries/Schedule. Each
// analysis renders canonically on one line, and the line's sha256 must
// match testdata/analysis.sha256; a mismatch prints the rendering.
// Run with -update to rewrite the file.
func TestAnalysisGolden(t *testing.T) {
	type subject struct {
		name  string
		prog  *ir.Program
		input *interp.Input
	}
	var subs []subject
	for _, w := range append(workloads.Bugs(), workloads.Fig1) {
		cp, err := w.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subject{w.Name, cp, w.Input})
	}
	for seed := int64(1); seed <= 40; seed++ {
		p := gen.Generate(seed)
		cp, err := p.Compile(true)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, subject{fmt.Sprintf("gen-%d", seed), cp, p.Input})
	}
	type config struct {
		name string
		cfg  core.Config
	}
	var configs []config
	for _, h := range []slicing.Heuristic{slicing.Temporal, slicing.Dependence} {
		for _, al := range []core.AlignmentMethod{core.AlignByIndex, core.AlignByInstructionCount} {
			configs = append(configs, config{h.String() + "/" + al.String(),
				core.Config{Heuristic: h, Alignment: al, Workers: 1, MaxTries: goldenMaxTries}})
		}
	}

	want := readGolden(t)
	var got []string
	ctx := context.Background()
	for _, sub := range subs {
		var fail *core.FailureReport
		for _, c := range configs {
			p := core.NewPipeline(sub.prog, sub.input, c.cfg)
			if fail == nil {
				var err error
				if fail, err = p.ProvokeFailureContext(ctx); err != nil {
					t.Fatalf("%s: provoke: %v", sub.name, err)
				}
			}
			line := renderAnalysis(ctx, p, fail)
			key := sub.name + " " + c.name
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(line)))
			got = append(got, key+" "+sum)
			if *updateGolden {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no golden sum", key)
			} else if w != sum {
				t.Errorf("%s: analysis differs from the golden sum; it renders as\n%s", key, line)
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%d golden sums, %d analyses", len(want), len(got))
	}
}

// readGolden loads the golden sums keyed by "workload configuration".
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	if *updateGolden {
		return out
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		out[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// renderAnalysis analyzes fail under p's configuration, searches, and
// renders the artifacts and the search outcome canonically on one
// line.
func renderAnalysis(ctx context.Context, p *core.Pipeline, fail *core.FailureReport) string {
	var b strings.Builder
	an := p.NewAnalysis(fail)
	if err := an.ThroughContext(ctx, core.StageCandidates); err != nil {
		fmt.Fprintf(&b, "error=%v", err)
		return b.String()
	}
	rep := an.Report
	fmt.Fprintf(&b, "align=%v/%d/%v", rep.AlignKind, rep.AlignSteps, rep.AlignPC)
	b.WriteString(" csvs=")
	for _, c := range rep.CSVs {
		fmt.Fprintf(&b, "[%s %v %v %s %s]", c.Path, c.A, c.B, goldenDumpVar(c.AVar), goldenDumpVar(c.BVar))
	}
	b.WriteString(" accesses=")
	for _, a := range rep.Accesses {
		b.WriteString(goldenAccess(p.Prog, a))
	}
	b.WriteString(" candidates=")
	for _, c := range rep.Candidates {
		fmt.Fprintf(&b, "[%d %d %v %d %d %q block=", c.ID, c.Thread, c.Kind, c.Seq, c.Step, c.Lock)
		for _, a := range c.Accesses {
			b.WriteString(goldenAccess(p.Prog, a))
		}
		var future []string
		for i, csv := range rep.CSVs {
			if c.FutureCSVs.Has(i) {
				future = append(future, csv.BVar.String())
			}
		}
		slices.Sort(future)
		fmt.Fprintf(&b, " future=%v]", future)
	}
	res, err := p.ReproduceContext(ctx, fail, rep)
	if err != nil {
		fmt.Fprintf(&b, " search-error=%v", err)
		return b.String()
	}
	fmt.Fprintf(&b, " found=%v tries=%d schedule=", res.Found, res.Tries)
	for _, ap := range res.Schedule {
		fmt.Fprintf(&b, "[%d->%d]", ap.Candidate.ID, ap.SwitchTo)
	}
	return b.String()
}

func goldenAccess(prog *ir.Program, a slicing.Access) string {
	return fmt.Sprintf("(%d %d %v %s %v %d)", a.Step, a.Thread, a.PC, goldenVar(prog, a.Var), a.IsWrite, a.Priority)
}

// goldenVar renders every field of a variable identity as the
// name-keyed identities did: kind, base name (through prog's tables),
// element index, object and frame.
func goldenVar(prog *ir.Program, v interp.VarID) string {
	var idx, obj, frame int64
	switch v.Kind {
	case interp.VArrayElem:
		idx = v.Idx
	case interp.VField:
		obj = int64(v.Obj())
	case interp.VLocal:
		frame = v.Frame()
	}
	return fmt.Sprintf("%d:%s:%d:%d:%d", v.Kind, v.Name(prog), idx, obj, frame)
}

// goldenDumpVar renders every field of a location in a dump's terms.
func goldenDumpVar(v coredump.Var) string {
	return fmt.Sprintf("%d:%s:%d:%d:%d", v.Kind, v.Name, v.Idx, v.Obj, v.FrameID)
}
