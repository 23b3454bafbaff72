package heisendump_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"heisendump"
)

// TestPublicAPIEndToEnd exercises the exported facade: parse, compile,
// Session, dump comparison and index reverse engineering.
func TestPublicAPIEndToEnd(t *testing.T) {
	w := heisendump.WorkloadByName("fig1")
	if w == nil {
		t.Fatal("fig1 workload missing")
	}
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := heisendump.NewCompiled(prog, w.Input, heisendump.WithTrialBudget(500)).Reproduce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the index through the public helper; it must agree with
	// the pipeline's.
	idx, err := heisendump.ReverseIndex(prog, rep.Failure.Dump)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Equal(rep.Analysis.FailureIndex) {
		t.Fatal("public ReverseIndex disagrees with the pipeline")
	}
	// Public dump comparison reproduces the analysis diff counts.
	diff := heisendump.CompareDumps(rep.Failure.Dump, rep.Analysis.AlignedDump)
	if diff.VarsCompared != rep.Analysis.Diff.VarsCompared || len(diff.Diffs) != len(rep.Analysis.Diff.Diffs) {
		t.Fatal("public CompareDumps disagrees with the pipeline")
	}
}

func TestCompileSource(t *testing.T) {
	prog, err := heisendump.CompileSource(`
program api;
global int x;
func main() {
    x = 41;
    x = x + 1;
}
`, true)
	if err != nil {
		t.Fatal(err)
	}
	if prog.FuncIndex("main") < 0 {
		t.Fatal("main missing")
	}
	if _, err := heisendump.CompileSource("garbage", true); err == nil {
		t.Fatal("bad source compiled")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	names := heisendump.WorkloadNames()
	if len(names) < 14 { // 7 bugs + fig1 + 6 splash kernels
		t.Fatalf("registry too small: %v", names)
	}
	if len(heisendump.Bugs()) != 7 {
		t.Fatal("Bugs() != 7")
	}
	if len(heisendump.SplashKernels()) != 6 {
		t.Fatal("SplashKernels() != 6")
	}
	if heisendump.WorkloadByName("does-not-exist") != nil {
		t.Fatal("phantom workload")
	}
}

func TestMeasureOverheadPublic(t *testing.T) {
	o, err := heisendump.MeasureOverhead(heisendump.WorkloadByName("splash-radix"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.StepRatio() < 1 {
		t.Fatalf("ratio %f < 1", o.StepRatio())
	}
}

func TestDumpSerializationPublic(t *testing.T) {
	w := heisendump.WorkloadByName("mysql-2")
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	fail, err := heisendump.NewCompiled(prog, w.Input).ProvokeFailure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fail.Dump.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != fail.DumpBytes {
		t.Fatalf("encoded %d bytes, reported %d", buf.Len(), fail.DumpBytes)
	}
}

func TestInstructionCountConfig(t *testing.T) {
	w := heisendump.WorkloadByName("mysql-4")
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	s := heisendump.NewCompiled(prog, w.Input,
		heisendump.WithAlignment(heisendump.AlignByInstructionCount),
		heisendump.WithHeuristic(heisendump.Dependence),
		heisendump.WithTrialBudget(2000),
	)
	rep, err := s.Reproduce(context.Background())
	if err != nil && !errors.Is(err, heisendump.ErrScheduleNotFound) {
		t.Fatal(err)
	}
	if rep.Analysis.FailureIndex != nil {
		t.Fatal("instruction-count baseline must not build an index")
	}
}

func TestAnonymizeDumpPublic(t *testing.T) {
	w := heisendump.WorkloadByName("fig1")
	prog, err := w.Compile(true)
	if err != nil {
		t.Fatal(err)
	}
	s := heisendump.NewCompiled(prog, w.Input)
	fail, err := s.ProvokeFailure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	an, err := s.Analyze(context.Background(), fail)
	if err != nil {
		t.Fatal(err)
	}
	af := heisendump.AnonymizeDump(fail.Dump, prog, 7)
	ap := heisendump.AnonymizeDump(an.AlignedDump, prog, 7)
	raw := heisendump.CompareDumps(fail.Dump, an.AlignedDump)
	anon := heisendump.CompareDumps(af, ap)
	if len(raw.CSVs()) != len(anon.CSVs()) {
		t.Fatalf("anonymization changed the CSV set: %d vs %d", len(raw.CSVs()), len(anon.CSVs()))
	}
	idx, err := heisendump.ReverseIndex(prog, af)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Equal(an.FailureIndex) {
		t.Fatal("index from anonymized dump differs")
	}
}
