package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"heisendump/internal/core"
	"heisendump/internal/index"
	"heisendump/internal/slicing"
	"heisendump/internal/workloads"
)

func fig1Pipeline(t testing.TB, cfg core.Config) *core.Pipeline {
	t.Helper()
	w := workloads.Fig1
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return core.NewPipeline(prog, w.Input, cfg)
}

func TestPipelineProvokesFailure(t *testing.T) {
	p := fig1Pipeline(t, core.Config{})
	fail, err := p.ProvokeFailureContext(context.Background())
	if err != nil {
		t.Fatalf("provoke: %v", err)
	}
	if fail.Dump == nil || fail.DumpBytes <= 0 {
		t.Fatalf("bad failure report: %+v", fail)
	}
	if fail.Signature.Reason != "null pointer dereference" {
		t.Fatalf("unexpected signature: %+v", fail.Signature)
	}
	if got := fail.Dump.CallingContext(); got != "T1 -> F" {
		t.Fatalf("calling context = %q, want %q", got, "T1 -> F")
	}
}

func TestPipelineAnalysisFindsAlignedPointAndCSV(t *testing.T) {
	p := fig1Pipeline(t, core.Config{})
	fail, err := p.ProvokeFailureContext(context.Background())
	if err != nil {
		t.Fatalf("provoke: %v", err)
	}
	an, err := p.AnalyzeContext(context.Background(), fail)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if an.AlignKind == index.AlignNone {
		t.Fatal("no alignment")
	}
	if an.IndexLen == 0 {
		t.Fatal("empty failure index")
	}
	// The salient CSV must be the flag x.
	foundX := false
	for _, c := range an.CSVs {
		if c.Path == "x" {
			foundX = true
		}
	}
	if !foundX {
		t.Fatalf("CSVs %v do not include x", csvPaths(an))
	}
	if len(an.Candidates) == 0 {
		t.Fatal("no preemption candidates")
	}
	if len(an.Accesses) == 0 {
		t.Fatal("no CSV accesses")
	}
}

// cancelAfterCtx reports no error for its first n Err calls and
// context.Canceled from then on.
type cancelAfterCtx struct {
	context.Context
	n int
}

func (c *cancelAfterCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestAlignedDumpResumesAfterCancelledReplay cancels the aligned-dump
// replay at its first step and resumes the analysis: the resumed stage
// rewinds the machine the alignment left and captures the dump, CSVs
// and candidates an uncancelled analysis does.
func TestAlignedDumpResumesAfterCancelledReplay(t *testing.T) {
	ctx := context.Background()
	p := fig1Pipeline(t, core.Config{})
	fail, err := p.ProvokeFailureContext(ctx)
	if err != nil {
		t.Fatalf("provoke: %v", err)
	}
	want := p.NewAnalysis(fail)
	if err := want.ThroughContext(ctx, core.StageCandidates); err != nil {
		t.Fatalf("uncancelled analysis: %v", err)
	}

	a := p.NewAnalysis(fail)
	if err := a.ThroughContext(ctx, core.StageAlign); err != nil {
		t.Fatalf("align: %v", err)
	}
	// The stage loop's check passes; the replay's first poll cancels.
	err = a.ThroughContext(&cancelAfterCtx{Context: ctx, n: 1}, core.StageAlignedDump)
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("want ErrCancelled from the replay, got %v", err)
	}
	if a.Report.AlignedDump != nil {
		t.Fatal("a cancelled replay captured a dump")
	}
	if err := a.ThroughContext(ctx, core.StageCandidates); err != nil {
		t.Fatalf("resumed analysis: %v", err)
	}
	if !reflect.DeepEqual(a.Report.AlignedDump, want.Report.AlignedDump) {
		t.Fatal("resumed replay captured a different aligned dump")
	}
	if got, w := csvPaths(a.Report), csvPaths(want.Report); !reflect.DeepEqual(got, w) {
		t.Fatalf("resumed CSVs %v, want %v", got, w)
	}
	if got, w := len(a.Report.Candidates), len(want.Report.Candidates); got != w {
		t.Fatalf("resumed analysis has %d candidates, want %d", got, w)
	}
}

func csvPaths(an *core.AnalysisReport) []string {
	var out []string
	for _, c := range an.CSVs {
		out = append(out, c.Path)
	}
	return out
}

func TestPipelineReproducesFig1WithTemporalHeuristic(t *testing.T) {
	p := fig1Pipeline(t, core.Config{Heuristic: slicing.Temporal, MaxTries: 500})
	rep, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Search.Found {
		t.Fatalf("failure not reproduced in %d tries", rep.Search.Tries)
	}
	t.Logf("reproduced in %d tries (align=%v, csvs=%d, candidates=%d)",
		rep.Search.Tries, rep.Analysis.AlignKind, len(rep.Analysis.CSVs), len(rep.Analysis.Candidates))
}

func TestPipelineReproducesFig1WithDependenceHeuristic(t *testing.T) {
	p := fig1Pipeline(t, core.Config{Heuristic: slicing.Dependence, MaxTries: 500})
	rep, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Search.Found {
		t.Fatalf("failure not reproduced in %d tries", rep.Search.Tries)
	}
}

func TestPipelinePlainChessAlsoWorksOnTinyExample(t *testing.T) {
	// Fig. 1 is small enough for undirected CHESS; the orders-of-
	// magnitude gap appears on the larger Table 2 workloads.
	p := fig1Pipeline(t, core.Config{PlainChess: true, MaxTries: 5000})
	rep, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Search.Found {
		t.Fatalf("plain CHESS did not reproduce fig1 in %d tries", rep.Search.Tries)
	}
}

func TestPipelineInstructionCountBaselineRuns(t *testing.T) {
	p := fig1Pipeline(t, core.Config{Alignment: core.AlignByInstructionCount, MaxTries: 200})
	fail, err := p.ProvokeFailureContext(context.Background())
	if err != nil {
		t.Fatalf("provoke: %v", err)
	}
	an, err := p.AnalyzeContext(context.Background(), fail)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if an.AlignKind == index.AlignNone {
		t.Fatal("baseline found no alignment")
	}
	if an.FailureIndex != nil {
		t.Fatal("baseline must not reverse engineer an index")
	}
}
